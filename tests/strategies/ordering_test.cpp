// DegeneracyOrderer equivalence with the reference order.
//
// The orderer must produce, after ANY event sequence, exactly the order the
// reference lazy-bucket core (tests/helpers/smallest_last_reference.hpp)
// computes on the current conflict graph.  The reference shares no code with
// the library's elimination core, so a change to the core's order fails
// here.  BBB's colors (and therefore the committed figure CSVs) depend on
// this bit-identity, so the soaks drive networks through randomized mixes of
// joins, leaves, moves and power changes and compare after every event.

#include "strategies/ordering.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../helpers/smallest_last_reference.hpp"
#include "net/network.hpp"
#include "sim/workload.hpp"
#include "strategies/coloring.hpp"
#include "util/rng.hpp"

namespace {

using minim::net::AdhocNetwork;
using minim::net::NodeId;
using minim::strategies::DegeneracyOrderer;

std::vector<NodeId> reference_order(const AdhocNetwork& net,
                                    const std::vector<NodeId>& vertices) {
  // The reference core over a materialized adjacency copy — shares no code
  // with the orderer's core and no state with its cached-span path.
  const auto adj = minim::strategies::conflict_adjacency(net);
  return minim::test::reference::smallest_last_order(adj, vertices);
}

/// One random event; returns a one-line description for failure messages.
std::string random_event(AdhocNetwork& net, std::vector<NodeId>& live,
                         minim::util::Rng& rng) {
  const double dice = rng.uniform01();
  if (live.size() < 5 || dice < 0.45) {
    const NodeId id = net.add_node({{rng.uniform(0, 100), rng.uniform(0, 100)},
                                    rng.uniform(15.0, 45.0)});
    live.push_back(id);
    return "join " + std::to_string(id);
  }
  const std::size_t pick = static_cast<std::size_t>(rng.below(live.size()));
  const NodeId v = live[pick];
  if (dice < 0.6) {
    net.remove_node(v);
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    return "leave " + std::to_string(v);
  }
  if (dice < 0.8) {
    net.set_position(v, {rng.uniform(0, 100), rng.uniform(0, 100)});
    return "move " + std::to_string(v);
  }
  net.set_range(v, rng.uniform(10.0, 60.0));
  return "power " + std::to_string(v);
}

TEST(DegeneracyOrderer, MatchesFromScratchAcrossEventSoakAndTieBreaks) {
  minim::util::Rng rng(777);
  for (int round = 0; round < 3; ++round) {
    AdhocNetwork net;
    DegeneracyOrderer orderer;
    std::vector<NodeId> live;
    std::vector<NodeId> out;
    for (int event = 0; event < 120; ++event) {
      const std::string what = random_event(net, live, rng);
      const std::vector<NodeId> vertices = net.nodes();
      orderer.order(net, vertices, out);
      ASSERT_EQ(out, reference_order(net, vertices))
          << "round " << round << ", event " << event << " (" << what << ")";
    }
  }
}

TEST(DegeneracyOrderer, ReusedAcrossNetworkResetMatchesReference) {
  minim::util::Rng rng(33);
  AdhocNetwork net;
  DegeneracyOrderer orderer;
  std::vector<NodeId> out;
  std::vector<NodeId> live;
  for (int event = 0; event < 10; ++event) random_event(net, live, rng);
  std::vector<NodeId> vertices = net.nodes();
  orderer.order(net, vertices, out);

  net.reset(100.0, 100.0);  // clears the conflict graph and its journal
  live.clear();
  for (int event = 0; event < 10; ++event) random_event(net, live, rng);
  vertices = net.nodes();
  orderer.order(net, vertices, out);
  EXPECT_EQ(out, reference_order(net, vertices));
}

/// A perfbench-shaped churn stream on `width` x `height` at ranges drawn
/// from [min_range, max_range]: `population` joins, then `events` of a mix
/// of leave-and-rejoin, move, 3x power raise and power restore, comparing
/// the orderer with the reference after every churn event.
void expect_reference_across_churn(double width, double height,
                                   std::size_t population, double min_range,
                                   double max_range, int events,
                                   std::uint64_t seed) {
  minim::util::Rng rng(seed);
  AdhocNetwork net(width, height);
  const auto config = [&] {
    return minim::net::NodeConfig{
        {rng.uniform(0, width), rng.uniform(0, height)},
        rng.uniform(min_range, max_range)};
  };
  std::vector<NodeId> live;
  for (std::size_t i = 0; i < population; ++i) live.push_back(net.add_node(config()));

  DegeneracyOrderer orderer;
  std::vector<NodeId> out;
  for (int event = 0; event < events; ++event) {
    const std::size_t pick = static_cast<std::size_t>(rng.below(live.size()));
    const NodeId v = live[pick];
    const double dice = rng.uniform01();
    std::string what;
    if (dice < 0.3) {
      net.remove_node(v);
      live[pick] = net.add_node(config());
      what = "leave " + std::to_string(v) + ", join " + std::to_string(live[pick]);
    } else if (dice < 0.6) {
      net.set_position(v, {rng.uniform(0, width), rng.uniform(0, height)});
      what = "move " + std::to_string(v);
    } else if (dice < 0.8) {
      net.set_range(v, net.config(v).range * 3.0);
      what = "raise " + std::to_string(v);
    } else {
      net.set_range(v, rng.uniform(min_range, max_range));
      what = "restore " + std::to_string(v);
    }
    const std::vector<NodeId> vertices = net.nodes();
    orderer.order(net, vertices, out);
    ASSERT_EQ(out, reference_order(net, vertices))
        << "event " << event << " (" << what << ")";
  }
}

TEST(DegeneracyOrderer, MatchesReferenceOnDenseChurnConflictGraphs) {
  // perfbench's dense-churn field: 300 nodes on 100x100, ranges 10-25.
  expect_reference_across_churn(100.0, 100.0, 300, 10.0, 25.0, 400, 31);
}

TEST(DegeneracyOrderer, MatchesReferenceOnSparseChurnConflictGraphs) {
  // sparse-churn's constant-density field at mean degree ~12, at 2000 nodes.
  const minim::sim::WorkloadParams p = minim::sim::make_large_n_params(
      2000, 12.0, minim::sim::Placement::kUniform);
  expect_reference_across_churn(p.width, p.height, p.n, p.min_range,
                                p.max_range, 150, 32);
}

}  // namespace
