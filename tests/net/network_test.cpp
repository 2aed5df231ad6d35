// The network model: edge rule d <= r, incremental edge maintenance under
// join/leave/move/power events, checked against O(n^2) reconstruction.

#include "net/network.hpp"

#include <gtest/gtest.h>

#include "../helpers.hpp"
#include "util/rng.hpp"

namespace {

using minim::graph::NodeId;
using minim::net::AdhocNetwork;
using minim::net::NodeConfig;
using minim::util::Rng;
using minim::util::Vec2;

/// Asserts the incremental graph equals the brute-force rebuild.
void expect_graph_consistent(const AdhocNetwork& net) {
  const auto fresh = net.rebuild_graph_brute_force();
  const auto& incremental = net.graph();
  ASSERT_EQ(incremental.node_count(), fresh.node_count());
  ASSERT_EQ(incremental.edge_count(), fresh.edge_count());
  for (NodeId u : net.nodes()) {
    ASSERT_EQ(minim::test::ids(incremental.out_neighbors(u)),
              minim::test::ids(fresh.out_neighbors(u)))
        << "node " << u;
    ASSERT_EQ(minim::test::ids(incremental.in_neighbors(u)),
              minim::test::ids(fresh.in_neighbors(u)))
        << "node " << u;
  }
}

TEST(AdhocNetwork, EdgeRuleIsDistanceAtMostRange) {
  AdhocNetwork net;
  const NodeId a = net.add_node({{0, 0}, 10.0});
  const NodeId b = net.add_node({{10, 0}, 5.0});  // exactly at a's range
  EXPECT_TRUE(net.graph().has_edge(a, b));   // d = 10 <= r_a = 10 (inclusive)
  EXPECT_FALSE(net.graph().has_edge(b, a));  // d = 10 > r_b = 5
}

TEST(AdhocNetwork, AsymmetricRangesGiveAsymmetricEdges) {
  AdhocNetwork net;
  const NodeId strong = net.add_node({{0, 0}, 50.0});
  const NodeId weak = net.add_node({{30, 0}, 10.0});
  EXPECT_TRUE(net.graph().has_edge(strong, weak));
  EXPECT_FALSE(net.graph().has_edge(weak, strong));
  EXPECT_EQ(minim::test::ids(net.heard_by(weak)), (std::vector<NodeId>{strong}));
  EXPECT_TRUE(net.heard_by(strong).empty());
}

TEST(AdhocNetwork, JoinEstablishesBothDirections) {
  AdhocNetwork net;
  net.add_node({{0, 0}, 20.0});
  net.add_node({{10, 0}, 20.0});
  const NodeId late = net.add_node({{5, 0}, 20.0});
  // The late joiner must have edges in both directions with both peers.
  EXPECT_EQ(net.heard_by(late).size(), 2u);
  EXPECT_EQ(net.hearers_of(late).size(), 2u);
  expect_graph_consistent(net);
}

TEST(AdhocNetwork, RemoveNodeCleansEdges) {
  AdhocNetwork net;
  const NodeId a = net.add_node({{0, 0}, 20.0});
  const NodeId b = net.add_node({{5, 0}, 20.0});
  net.add_node({{10, 0}, 20.0});
  net.remove_node(b);
  EXPECT_FALSE(net.contains(b));
  EXPECT_EQ(net.node_count(), 2u);
  EXPECT_FALSE(net.graph().has_edge(a, b));
  expect_graph_consistent(net);
}

TEST(AdhocNetwork, SetRangeOnlyChangesOwnOutEdges) {
  AdhocNetwork net;
  const NodeId a = net.add_node({{0, 0}, 5.0});
  const NodeId b = net.add_node({{10, 0}, 15.0});
  EXPECT_FALSE(net.graph().has_edge(a, b));
  EXPECT_TRUE(net.graph().has_edge(b, a));
  net.set_range(a, 12.0);
  EXPECT_TRUE(net.graph().has_edge(a, b));
  EXPECT_TRUE(net.graph().has_edge(b, a));  // b's edge untouched
  net.set_range(a, 3.0);
  EXPECT_FALSE(net.graph().has_edge(a, b));
  expect_graph_consistent(net);
}

TEST(AdhocNetwork, MoveUpdatesBothDirections) {
  AdhocNetwork net;
  const NodeId a = net.add_node({{0, 0}, 15.0});
  const NodeId b = net.add_node({{50, 50}, 15.0});
  EXPECT_EQ(net.graph().edge_count(), 0u);
  net.set_position(b, {10, 0});
  EXPECT_TRUE(net.graph().has_edge(a, b));
  EXPECT_TRUE(net.graph().has_edge(b, a));
  expect_graph_consistent(net);
}

TEST(AdhocNetwork, PositionsClampedToField) {
  AdhocNetwork net(100, 100);
  const NodeId a = net.add_node({{150, -10}, 5.0});
  EXPECT_DOUBLE_EQ(net.config(a).position.x, 100.0);
  EXPECT_DOUBLE_EQ(net.config(a).position.y, 0.0);
  net.set_position(a, {-3, 200});
  EXPECT_DOUBLE_EQ(net.config(a).position.x, 0.0);
  EXPECT_DOUBLE_EQ(net.config(a).position.y, 100.0);
}

TEST(AdhocNetwork, MinimalConnectivity) {
  AdhocNetwork net;
  const NodeId a = net.add_node({{0, 0}, 20.0});
  EXPECT_FALSE(net.minimally_connected(a));  // alone
  const NodeId b = net.add_node({{10, 0}, 20.0});
  EXPECT_TRUE(net.minimally_connected(a));
  EXPECT_TRUE(net.minimally_connected(b));
}

TEST(AdhocNetwork, ZeroRangeNodeHearsButIsNotHeard) {
  AdhocNetwork net;
  const NodeId mute = net.add_node({{0, 0}, 0.0});
  const NodeId loud = net.add_node({{5, 0}, 10.0});
  EXPECT_TRUE(net.graph().has_edge(loud, mute));
  EXPECT_FALSE(net.graph().has_edge(mute, loud));
  EXPECT_EQ(minim::test::ids(net.heard_by(mute)), (std::vector<NodeId>{loud}));
}

TEST(AdhocNetwork, NegativeRangeRejected) {
  AdhocNetwork net;
  EXPECT_THROW(net.add_node({{0, 0}, -1.0}), std::invalid_argument);
  const NodeId a = net.add_node({{0, 0}, 1.0});
  EXPECT_THROW(net.set_range(a, -0.5), std::invalid_argument);
}

TEST(AdhocNetwork, IdReuseAfterLeave) {
  AdhocNetwork net;
  const NodeId a = net.add_node({{0, 0}, 10.0});
  net.add_node({{20, 0}, 10.0});
  net.remove_node(a);
  const NodeId reused = net.add_node({{40, 0}, 10.0});
  EXPECT_EQ(reused, a);
  expect_graph_consistent(net);
}

// Randomized churn soak: after every event the incremental edge set must
// equal the brute-force rebuild.
struct ChurnParams {
  std::uint64_t seed;
  int events;
  double min_range;
  double max_range;
};

// Names each case by its contents; gtest's default would print the raw
// bytes, padding included, so the name changed per build.
void PrintTo(const ChurnParams& params, std::ostream* os) {
  *os << "seed" << params.seed << "_events" << params.events << "_range"
      << params.min_range << "-" << params.max_range;
}

class NetworkChurnTest : public ::testing::TestWithParam<ChurnParams> {};

TEST_P(NetworkChurnTest, IncrementalGraphMatchesBruteForce) {
  const auto param = GetParam();
  Rng rng(param.seed);
  AdhocNetwork net;
  std::vector<NodeId> alive;

  for (int event = 0; event < param.events; ++event) {
    const double dice = rng.uniform01();
    if (alive.size() < 5 || dice < 0.35) {
      alive.push_back(net.add_node(
          {{rng.uniform(0, 100), rng.uniform(0, 100)},
           rng.uniform(param.min_range, param.max_range)}));
    } else if (dice < 0.5) {
      const std::size_t pick = rng.below(alive.size());
      net.remove_node(alive[pick]);
      alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (dice < 0.75) {
      const NodeId v = alive[rng.below(alive.size())];
      net.set_position(v, {rng.uniform(0, 100), rng.uniform(0, 100)});
    } else {
      const NodeId v = alive[rng.below(alive.size())];
      net.set_range(v, rng.uniform(param.min_range, param.max_range * 2));
    }
    expect_graph_consistent(net);
  }
}

INSTANTIATE_TEST_SUITE_P(Churn, NetworkChurnTest,
                         ::testing::Values(ChurnParams{1, 120, 20.5, 30.5},
                                           ChurnParams{2, 120, 5.0, 10.0},
                                           ChurnParams{3, 120, 40.0, 70.0},
                                           ChurnParams{4, 200, 0.0, 100.0}));

}  // namespace
