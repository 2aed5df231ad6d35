// BBB recolors from scratch at every event: after each event its colors must
// equal `color_network` on the current network, and its report must list
// exactly the nodes whose color moved, across every coloring order and
// randomized event soaks.  The bounded path's foreign-mutation guard is
// pinned here too.

#include <gtest/gtest.h>

#include <vector>

#include "net/constraints.hpp"
#include "net/network.hpp"
#include "strategies/bbb.hpp"
#include "strategies/coloring.hpp"
#include "util/rng.hpp"

namespace minim::strategies {

// Names the parameterized cases by order; gtest's default prints the enum's
// raw bytes.
void PrintTo(ColoringOrder order, std::ostream* os) { *os << to_string(order); }

}  // namespace minim::strategies

namespace {

using minim::core::Recode;
using minim::core::RecodeReport;
using minim::net::AdhocNetwork;
using minim::net::CodeAssignment;
using minim::net::Color;
using minim::net::NodeId;
using minim::strategies::BbbStrategy;
using minim::strategies::color_network;
using minim::strategies::ColoringOrder;
using minim::util::Rng;

/// Asserts that `asg` holds the from-scratch `color_network` colors, and
/// that `report` lists, in ascending node order, every node whose color
/// differs from `before` (the colors of `nodes` right before the strategy
/// ran).
void expect_from_scratch(const AdhocNetwork& net, ColoringOrder order,
                         const std::vector<NodeId>& nodes,
                         const std::vector<Color>& before,
                         const CodeAssignment& asg, const RecodeReport& report,
                         int event_index) {
  CodeAssignment expected;
  color_network(net, order, expected);
  std::vector<Recode> moved;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Color now = asg.color(nodes[i]);
    ASSERT_EQ(now, expected.color(nodes[i]))
        << "node " << nodes[i] << " after event " << event_index;
    if (now != before[i]) moved.push_back(Recode{nodes[i], before[i], now});
  }
  ASSERT_EQ(report.max_color_after, expected.max_color()) << "event " << event_index;
  ASSERT_EQ(report.changes.size(), moved.size()) << "event " << event_index;
  for (std::size_t i = 0; i < moved.size(); ++i) {
    EXPECT_EQ(report.changes[i].node, moved[i].node) << "event " << event_index;
    EXPECT_EQ(report.changes[i].old_color, moved[i].old_color)
        << "event " << event_index;
    EXPECT_EQ(report.changes[i].new_color, moved[i].new_color)
        << "event " << event_index;
  }
}

/// Drives one randomized join/move/power/leave history through BBB and
/// checks it against the from-scratch coloring after every event.
void soak(ColoringOrder order, std::uint64_t seed, int events) {
  Rng rng(seed);
  AdhocNetwork net;
  CodeAssignment asg;
  BbbStrategy bbb(order);
  std::vector<NodeId> live;

  for (int event = 0; event < events; ++event) {
    const double roll = rng.uniform(0, 1);
    std::vector<NodeId> nodes;
    std::vector<Color> before;
    const auto record_before = [&] {
      nodes = net.nodes();
      before.clear();
      for (NodeId v : nodes) before.push_back(asg.color(v));
    };
    RecodeReport report;
    if (live.size() < 5 || roll < 0.4) {
      const NodeId id = net.add_node(
          {{rng.uniform(0, 100), rng.uniform(0, 100)}, rng.uniform(10, 35)});
      live.push_back(id);
      record_before();
      report = bbb.on_join(net, asg, id);
    } else if (roll < 0.6) {
      const NodeId v = live[rng.below(live.size())];
      net.set_position(v, {rng.uniform(0, 100), rng.uniform(0, 100)});
      record_before();
      report = bbb.on_move(net, asg, v);
    } else if (roll < 0.85) {
      const NodeId v = live[rng.below(live.size())];
      const double old_range = net.config(v).range;
      net.set_range(v, rng.uniform(0, 40));
      record_before();
      report = bbb.on_power_change(net, asg, v, old_range);
    } else {
      const std::size_t index = rng.below(live.size());
      const NodeId v = live[index];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(index));
      net.remove_node(v);
      asg.clear(v);
      record_before();
      report = bbb.on_leave(net, asg, v);
    }

    ASSERT_NO_FATAL_FAILURE(
        expect_from_scratch(net, order, nodes, before, asg, report, event));
    ASSERT_TRUE(minim::net::is_valid(net, asg)) << "event " << event;
  }
}

class BbbIncrementalOrder : public ::testing::TestWithParam<ColoringOrder> {};

TEST_P(BbbIncrementalOrder, MatchesFullRecolorOverRandomizedEvents) {
  soak(GetParam(), 9001, 90);
  soak(GetParam(), 9002, 90);
}

INSTANTIATE_TEST_SUITE_P(StaticOrders, BbbIncrementalOrder,
                         ::testing::Values(ColoringOrder::kSmallestLast,
                                           ColoringOrder::kLargestFirst,
                                           ColoringOrder::kIdentity));

TEST(BbbIncremental, DSaturAlwaysUsesFullPathAndStaysValid) {
  soak(ColoringOrder::kDSatur, 9005, 60);
}

TEST(BbbIncremental, SurvivesForeignAssignmentMutation) {
  // An out-of-band color change must not leak into the next event: BBB
  // recolors every node, so it lands on the from-scratch result.
  Rng rng(77);
  AdhocNetwork net;
  CodeAssignment asg;
  BbbStrategy bbb(ColoringOrder::kSmallestLast);
  std::vector<NodeId> ids;
  for (int i = 0; i < 20; ++i) {
    ids.push_back(net.add_node(
        {{rng.uniform(0, 100), rng.uniform(0, 100)}, rng.uniform(15, 30)}));
    bbb.on_join(net, asg, ids.back());
  }
  // Clobber a color behind the strategy's back.
  const Color clobbered = asg.color(ids[4]) + 17;
  asg.set_color(ids[4], clobbered);

  const double old_range = net.config(ids[2]).range;
  net.set_range(ids[2], old_range * 1.5);
  const RecodeReport report = bbb.on_power_change(net, asg, ids[2], old_range);
  CodeAssignment expected;
  color_network(net, ColoringOrder::kSmallestLast, expected);
  for (NodeId v : net.nodes()) EXPECT_EQ(asg.color(v), expected.color(v)) << v;
  bool reported = false;
  for (const Recode& change : report.changes)
    if (change.node == ids[4]) reported = change.old_color == clobbered;
  EXPECT_TRUE(reported) << "the clobbered node's repair is not reported";
}

TEST(BbbIncremental, BoundedGuardFallsBackWhenADirtyNodeWasRecolored) {
  // The bounded path checks only the journal-dirty nodes' colors against
  // its snapshot.  Raising x's range gives x new conflict partners, so x is
  // journal-dirty.  With x's color clobbered first, the event must fall
  // back to the from-scratch path and land on the from-scratch colors; the
  // twin run without the clobber absorbs the same event, so the guard is
  // what forces the fallback.
  for (const bool clobber : {false, true}) {
    AdhocNetwork net;
    CodeAssignment asg;
    BbbStrategy::Params params;
    params.bounded_propagation = true;
    params.propagation_slack = 1.0;  // a budget of every node: no bailout
    BbbStrategy bbb(ColoringOrder::kSmallestLast, params);
    // A 10 x 10 lattice, spacing 10, range 10.5: each node reaches its four
    // axis neighbors.
    std::vector<NodeId> ids;
    for (int row = 0; row < 10; ++row)
      for (int col = 0; col < 10; ++col)
        ids.push_back(net.add_node({{10.0 * col, 10.0 * row}, 10.5}));
    bbb.on_join(net, asg, ids.back());  // seeds the ranks and the snapshot
    const BbbStrategy::Counters before = bbb.counters();

    const NodeId x = ids[44];
    if (clobber) asg.set_color(x, asg.color(x) + 17);
    const double old_range = net.config(x).range;
    net.set_range(x, 14.5);  // now reaches the diagonal neighbors too
    bbb.on_power_change(net, asg, x, old_range);

    const BbbStrategy::Counters& after = bbb.counters();
    EXPECT_EQ(after.full_events, before.full_events + (clobber ? 1 : 0))
        << "clobber=" << clobber;
    EXPECT_EQ(after.bounded_events, before.bounded_events + (clobber ? 0 : 1))
        << "clobber=" << clobber;
    ASSERT_TRUE(minim::net::is_valid(net, asg)) << "clobber=" << clobber;
    if (!clobber) continue;
    CodeAssignment expected;
    color_network(net, ColoringOrder::kSmallestLast, expected);
    for (NodeId v : net.nodes()) EXPECT_EQ(asg.color(v), expected.color(v)) << v;
  }
}

}  // namespace
