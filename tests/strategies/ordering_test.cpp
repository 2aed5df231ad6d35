// DegeneracyOrderer equivalence with the from-scratch reference.
//
// The maintained orderer must produce, after ANY event sequence, exactly the
// order a from-scratch `graph::smallest_last_order` computes on the current
// conflict graph.  BBB's colors (and therefore the committed figure CSVs)
// depend on this bit-identity, so the soak drives a network through a
// randomized mix of joins, leaves, moves and power changes and compares
// after every single event.

#include "strategies/ordering.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "graph/algorithms.hpp"
#include "net/network.hpp"
#include "strategies/coloring.hpp"
#include "util/rng.hpp"

namespace {

using minim::net::AdhocNetwork;
using minim::net::NodeId;
using minim::strategies::DegeneracyOrderer;

std::vector<NodeId> reference_order(const AdhocNetwork& net,
                                    const std::vector<NodeId>& vertices) {
  // From-scratch reference over a materialized adjacency copy — shares no
  // state with the orderer's cached-span path.
  const auto adj = minim::strategies::conflict_adjacency(net);
  return minim::graph::smallest_last_order(adj, vertices);
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

}  // namespace
