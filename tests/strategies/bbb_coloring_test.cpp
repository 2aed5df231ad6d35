// Global coloring heuristics (the BBB substrate) and the BBB baseline
// strategy: validity of every ordering, quality relations, recode counting.

#include <gtest/gtest.h>

#include "../helpers.hpp"
#include "net/constraints.hpp"
#include "strategies/bbb.hpp"
#include "strategies/coloring.hpp"
#include "util/rng.hpp"

namespace minim::strategies {

// Names the parameterized cases by order; gtest's default prints the enum's
// raw bytes.
void PrintTo(ColoringOrder order, std::ostream* os) { *os << to_string(order); }

}  // namespace minim::strategies

namespace {

using minim::net::AdhocNetwork;
using minim::net::CodeAssignment;
using minim::net::Color;
using minim::net::NodeId;
using minim::strategies::BbbStrategy;
using minim::strategies::color_network;
using minim::strategies::ColoringOrder;
using minim::strategies::conflict_adjacency;
using minim::test::build_world;
using minim::test::World;
using minim::util::Rng;

AdhocNetwork random_network(Rng& rng, std::size_t n) {
  AdhocNetwork net;
  for (std::size_t i = 0; i < n; ++i)
    net.add_node({{rng.uniform(0, 100), rng.uniform(0, 100)}, rng.uniform(15, 35)});
  return net;
}

// ------------------------------------------------------------ colorings

class ColoringOrderTest : public ::testing::TestWithParam<ColoringOrder> {};

TEST_P(ColoringOrderTest, ProducesValidAssignment) {
  Rng rng(81);
  for (int trial = 0; trial < 5; ++trial) {
    const AdhocNetwork net = random_network(rng, 40);
    CodeAssignment asg;
    const Color used = color_network(net, GetParam(), asg);
    ASSERT_TRUE(minim::net::is_valid(net, asg));
    ASSERT_EQ(used, asg.max_color(net.nodes()));
  }
}

TEST_P(ColoringOrderTest, UsesAtMostMaxConflictDegreePlusOne) {
  Rng rng(82);
  const AdhocNetwork net = random_network(rng, 50);
  const auto adj = conflict_adjacency(net);
  std::size_t max_conflict_degree = 0;
  for (NodeId v : net.nodes())
    max_conflict_degree = std::max(max_conflict_degree, adj[v].size());
  CodeAssignment asg;
  const Color used = color_network(net, GetParam(), asg);
  EXPECT_LE(used, max_conflict_degree + 1);
}

INSTANTIATE_TEST_SUITE_P(Orders, ColoringOrderTest,
                         ::testing::Values(ColoringOrder::kSmallestLast,
                                           ColoringOrder::kDSatur,
                                           ColoringOrder::kLargestFirst,
                                           ColoringOrder::kIdentity));

TEST(Coloring, EmptyNetworkUsesZeroColors) {
  AdhocNetwork net;
  CodeAssignment asg;
  EXPECT_EQ(color_network(net, ColoringOrder::kSmallestLast, asg), 0u);
}

TEST(Coloring, CliqueNeedsExactlyNColors) {
  // All nodes mutually in range: the conflict graph is a clique.
  AdhocNetwork net;
  for (int i = 0; i < 6; ++i)
    net.add_node({{static_cast<double>(i), 0}, 50.0});
  for (const auto order :
       {ColoringOrder::kSmallestLast, ColoringOrder::kDSatur,
        ColoringOrder::kLargestFirst, ColoringOrder::kIdentity}) {
    CodeAssignment asg;
    EXPECT_EQ(color_network(net, order, asg), 6u) << to_string(order);
  }
}

TEST(Coloring, IndependentNodesAllGetColor1) {
  AdhocNetwork net;
  net.add_node({{0, 0}, 1.0});
  net.add_node({{50, 50}, 1.0});
  net.add_node({{99, 99}, 1.0});
  CodeAssignment asg;
  EXPECT_EQ(color_network(net, ColoringOrder::kSmallestLast, asg), 1u);
}

TEST(Coloring, HiddenTerminalsGetDistinctColors) {
  // Two transmitters out of mutual range sharing one receiver must differ.
  AdhocNetwork net;
  const NodeId a = net.add_node({{0, 0}, 12.0});
  net.add_node({{10, 0}, 1.0});
  const NodeId c = net.add_node({{20, 0}, 12.0});
  CodeAssignment asg;
  color_network(net, ColoringOrder::kDSatur, asg);
  EXPECT_NE(asg.color(a), asg.color(c));
}

TEST(Coloring, SmallestLastNotWorseThanIdentityOnAverage) {
  // Not a theorem, but a strong statistical expectation over many trials;
  // guards against order plumbing regressions (e.g. ignoring the order).
  Rng rng(83);
  double sl_total = 0;
  double id_total = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const AdhocNetwork net = random_network(rng, 40);
    CodeAssignment a1;
    CodeAssignment a2;
    sl_total += color_network(net, ColoringOrder::kSmallestLast, a1);
    id_total += color_network(net, ColoringOrder::kIdentity, a2);
  }
  EXPECT_LE(sl_total, id_total + 2);
}

// ------------------------------------------------------------ BBB strategy

TEST(BbbStrategy, JoinRecolorsFromScratchAndStaysValid) {
  Rng rng(84);
  AdhocNetwork net;
  CodeAssignment asg;
  BbbStrategy bbb;
  for (int i = 0; i < 30; ++i) {
    const NodeId id = net.add_node(
        {{rng.uniform(0, 100), rng.uniform(0, 100)}, rng.uniform(15, 35)});
    const auto report = bbb.on_join(net, asg, id);
    ASSERT_TRUE(minim::net::is_valid(net, asg)) << "join " << i;
    ASSERT_GE(report.recodings(), 1u);  // the joiner itself always counts
  }
}

TEST(BbbStrategy, RecodeCountIsColorDiff) {
  // Deterministic scenario: recoloring an unchanged network is a no-op, so
  // the second event reports zero recodings.
  AdhocNetwork net;
  CodeAssignment asg;
  BbbStrategy bbb;
  for (int i = 0; i < 10; ++i)
    net.add_node({{static_cast<double>(10 * i), 0}, 12.0});
  bbb.on_join(net, asg, 9);
  // A power *decrease* that changes no edges: BBB recolors from scratch and
  // lands on the identical assignment.
  const double old_range = net.config(0).range;
  net.set_range(0, old_range - 0.1);
  const auto report = bbb.on_power_change(net, asg, 0, old_range);
  EXPECT_EQ(report.recodings(), 0u);
  EXPECT_EQ(report.event, minim::core::EventType::kPowerDecrease);
}

TEST(BbbStrategy, HandlesLeaveMovePower) {
  Rng rng(85);
  World world = build_world(25, 20.5, 30.5, rng);
  BbbStrategy bbb;

  const NodeId mover = world.ids[3];
  world.network.set_position(mover, {rng.uniform(0, 100), rng.uniform(0, 100)});
  bbb.on_move(world.network, world.assignment, mover);
  ASSERT_TRUE(minim::net::is_valid(world.network, world.assignment));

  const NodeId riser = world.ids[4];
  const double old_range = world.network.config(riser).range;
  world.network.set_range(riser, old_range * 2);
  const auto report =
      bbb.on_power_change(world.network, world.assignment, riser, old_range);
  EXPECT_EQ(report.event, minim::core::EventType::kPowerIncrease);
  ASSERT_TRUE(minim::net::is_valid(world.network, world.assignment));

  const NodeId gone = world.ids[5];
  world.network.remove_node(gone);
  world.assignment.clear(gone);
  bbb.on_leave(world.network, world.assignment, gone);
  ASSERT_TRUE(minim::net::is_valid(world.network, world.assignment));
}

TEST(BbbStrategy, NearOptimalColorCountVsDistributed) {
  // The Fig 10(a) relation: BBB's from-scratch color count is no worse than
  // what incremental Minim accumulated.
  Rng rng(86);
  World world = build_world(60, 20.5, 30.5, rng);
  const Color minim_colors = world.assignment.max_color(world.network.nodes());
  CodeAssignment fresh;
  const Color bbb_colors =
      color_network(world.network, ColoringOrder::kSmallestLast, fresh);
  EXPECT_LE(bbb_colors, minim_colors);
}

TEST(BbbStrategy, Names) {
  EXPECT_EQ(BbbStrategy().name(), "BBB");
  EXPECT_EQ(BbbStrategy(ColoringOrder::kDSatur).name(), "BBB/dsatur");
  EXPECT_EQ(BbbStrategy(ColoringOrder::kLargestFirst).name(), "BBB/largest-first");
}

}  // namespace
