#include "graph/algorithms.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "../helpers/smallest_last_reference.hpp"
#include "util/rng.hpp"

namespace {

using minim::graph::Digraph;
using minim::graph::hop_distance;
using minim::graph::k_hop_ball;
using minim::graph::NodeId;
using minim::graph::smallest_last_order;
using Adjacency = std::vector<std::vector<NodeId>>;

/// Directed path 0 -> 1 -> 2 -> ... -> n-1.
Digraph directed_path(int n) {
  Digraph g;
  for (int i = 0; i < n; ++i) g.add_node();
  for (int i = 0; i + 1 < n; ++i)
    g.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(i + 1));
  return g;
}

/// Undirected adjacency on vertices [0, n): one {u, v} per pair, rows
/// ascending.
Adjacency undirected(std::size_t n,
                     const std::vector<std::pair<NodeId, NodeId>>& edges) {
  Adjacency adj(n);
  for (const auto& [u, v] : edges) {
    adj[u].push_back(v);
    adj[v].push_back(u);
  }
  for (auto& row : adj) std::sort(row.begin(), row.end());
  return adj;
}

/// Undirected path 0 - 1 - ... - n-1.
Adjacency path_adjacency(NodeId n) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
  return undirected(n, edges);
}

std::vector<NodeId> first_ids(NodeId n) {
  std::vector<NodeId> ids(n);
  for (NodeId v = 0; v < n; ++v) ids[v] = v;
  return ids;
}

TEST(KHopBall, HopsIgnoreEdgeDirection) {
  // Even though edges point one way, hop neighborhoods are undirected:
  // node 3 in a directed path sees both sides.
  Digraph g = directed_path(7);
  EXPECT_EQ(k_hop_ball(g, 3, 1), (std::vector<NodeId>{2, 4}));
  EXPECT_EQ(k_hop_ball(g, 3, 2), (std::vector<NodeId>{1, 2, 4, 5}));
  EXPECT_EQ(k_hop_ball(g, 3, 3), (std::vector<NodeId>{0, 1, 2, 4, 5, 6}));
}

TEST(KHopBall, ZeroHopsIsEmpty) {
  Digraph g = directed_path(3);
  EXPECT_TRUE(k_hop_ball(g, 1, 0).empty());
}

TEST(KHopBall, LargeKCoversComponentOnly) {
  Digraph g = directed_path(4);
  const NodeId isolated = g.add_node();
  const auto ball = k_hop_ball(g, 0, 100);
  EXPECT_EQ(ball, (std::vector<NodeId>{1, 2, 3}));
  EXPECT_TRUE(std::find(ball.begin(), ball.end(), isolated) == ball.end());
}

TEST(KHopBall, DuplicatePathsCountedOnce) {
  // Diamond: 0->1, 0->2, 1->3, 2->3.
  Digraph g;
  for (int i = 0; i < 4; ++i) g.add_node();
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  EXPECT_EQ(k_hop_ball(g, 0, 2), (std::vector<NodeId>{1, 2, 3}));
}

TEST(HopDistance, PathDistances) {
  Digraph g = directed_path(6);
  EXPECT_EQ(hop_distance(g, 0, 0), 0u);
  EXPECT_EQ(hop_distance(g, 0, 1), 1u);
  EXPECT_EQ(hop_distance(g, 0, 5), 5u);
  EXPECT_EQ(hop_distance(g, 5, 0), 5u);  // undirected view
}

TEST(HopDistance, UnreachableIsMax) {
  Digraph g;
  g.add_node();
  g.add_node();
  EXPECT_EQ(hop_distance(g, 0, 1), std::numeric_limits<std::size_t>::max());
}

TEST(SmallestLast, OrdersEveryVertexOnce) {
  auto order = smallest_last_order(path_adjacency(8), first_ids(8));
  EXPECT_EQ(order.size(), 8u);
  std::sort(order.begin(), order.end());
  EXPECT_EQ(order, first_ids(8));
}

TEST(SmallestLast, CliqueAnyOrderIsFine) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < 5; ++u)
    for (NodeId v = u + 1; v < 5; ++v) edges.emplace_back(u, v);
  const auto order = smallest_last_order(undirected(5, edges), first_ids(5));
  EXPECT_EQ(order.size(), 5u);
}

TEST(SmallestLast, StarColoringOrderPutsHubEarly) {
  // Star: hub adjacent to all leaves.  Smallest-last eliminates leaves
  // first (the hub ties with the final leaf at degree 1), so the *coloring*
  // order has the hub in the first two positions — which is what bounds the
  // greedy coloring at 2 colors.
  const NodeId hub = 0;
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId leaf = 1; leaf <= 6; ++leaf) edges.emplace_back(hub, leaf);
  const auto order = smallest_last_order(undirected(7, edges), first_ids(7));
  EXPECT_TRUE(order[0] == hub || order[1] == hub);
}

TEST(SmallestLast, SubsetRestrictsDegrees) {
  // Path 0-1-2-3; restricted to {0, 2, 3}, vertex 2-3 form an edge and 0 is
  // isolated.  All three must appear exactly once.
  auto order = smallest_last_order(path_adjacency(4), {0, 2, 3});
  EXPECT_EQ(order.size(), 3u);
  std::sort(order.begin(), order.end());
  EXPECT_EQ(order, (std::vector<NodeId>{0, 2, 3}));
}

TEST(SmallestLast, EmptyVertexSet) {
  EXPECT_TRUE(smallest_last_order(path_adjacency(3), {}).empty());
}

// ------------------------------------------ exact order against the oracle

/// `smallest_last_order` equals the reference core's sequence exactly.
void expect_reference_order(const Adjacency& adj,
                            const std::vector<NodeId>& vertices) {
  ASSERT_EQ(smallest_last_order(adj, vertices),
            minim::test::reference::smallest_last_order(adj, vertices));
}

TEST(SmallestLast, StarTieBreakIsNewestEntrantFirst) {
  // Leaves 1..6 enter class 1 in id order, so 6 goes first; each leaf lowers
  // the hub by one, and at class 1 the hub, the newest entrant, goes before
  // leaf 1.  Elimination 6 5 4 3 2 0 1, colored in reverse.
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId leaf = 1; leaf <= 6; ++leaf) edges.emplace_back(0, leaf);
  EXPECT_EQ(smallest_last_order(undirected(7, edges), first_ids(7)),
            (std::vector<NodeId>{1, 0, 2, 3, 4, 5, 6}));
}

TEST(SmallestLast, MatchesReferenceOnStarsCliquesAndPaths) {
  for (NodeId n = 1; n <= 24; ++n) {
    std::vector<std::pair<NodeId, NodeId>> star;
    std::vector<std::pair<NodeId, NodeId>> clique;
    for (NodeId v = 0; v < n; ++v)
      if (v != n / 2) star.emplace_back(n / 2, v);  // hub mid-range
    for (NodeId u = 0; u < n; ++u)
      for (NodeId v = u + 1; v < n; ++v) clique.emplace_back(u, v);
    std::vector<NodeId> reversed = first_ids(n);
    std::reverse(reversed.begin(), reversed.end());
    for (const Adjacency& adj :
         {undirected(n, star), undirected(n, clique), path_adjacency(n)}) {
      SCOPED_TRACE("n = " + std::to_string(n));
      expect_reference_order(adj, first_ids(n));
      expect_reference_order(adj, reversed);
    }
  }
}

TEST(SmallestLast, MatchesReferenceOnRandomSimpleGraphs) {
  // Random simple graphs at densities 0 to 1 over up to 45 ids.  The vertex
  // set is a random subset in shuffled order, so rows name ids past the
  // vertex bound; rows also name phantom ids past every vertex, and each
  // row is shuffled.
  minim::util::Rng rng(2024);
  for (int trial = 0; trial < 4000; ++trial) {
    const NodeId n = 1 + static_cast<NodeId>(rng.below(45));
    const double density = trial % 10 == 0 ? 1.0 : rng.uniform01();
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (NodeId u = 0; u < n; ++u)
      for (NodeId v = u + 1; v < n; ++v)
        if (rng.chance(density)) edges.emplace_back(u, v);
    Adjacency adj = undirected(n, edges);
    for (auto& row : adj) {
      if (rng.chance(0.3)) row.push_back(n + static_cast<NodeId>(rng.below(8)));
      if (rng.chance(0.1)) row.push_back(NodeId{1} << 30);
      rng.shuffle(row);
    }
    const double keep = rng.uniform(0.2, 1.0);
    std::vector<NodeId> vertices;
    for (NodeId v = 0; v < n; ++v)
      if (rng.chance(keep)) vertices.push_back(v);
    rng.shuffle(vertices);
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_reference_order(adj, vertices);
  }
}

// ------------------------------------------------------- input contract

TEST(SmallestLast, RepeatedVertexFailsRequire) {
  // Vertex 0 enters its class twice; once it is eliminated, the cursor runs
  // through the stale copy and off the top of the classes.
  EXPECT_THROW(smallest_last_order(path_adjacency(3), {0, 0, 1}),
               std::invalid_argument);
}

TEST(SmallestLast, RowListingANeighborTwiceFailsRequire) {
  // Symmetric, but edge {1, 2} is listed twice in both rows: eliminating one
  // end would lower the other's degree by two.
  Adjacency adj = path_adjacency(3);
  adj[1].push_back(2);
  adj[2].push_back(1);
  EXPECT_THROW(smallest_last_order(adj, first_ids(3)), std::invalid_argument);
}

TEST(SmallestLast, AsymmetricAdjacencyFailsRequire) {
  // A directed 3-cycle.  Its degrees sum to 3, room in the pool for one
  // edge's push, but two of its eliminations each lower a live vertex.
  EXPECT_THROW(smallest_last_order(Adjacency{{1}, {2}, {0}}, first_ids(3)),
               std::invalid_argument);
  // One arc without its reverse, in an otherwise symmetric path.
  Adjacency adj = path_adjacency(3);
  adj[0].push_back(2);
  EXPECT_THROW(smallest_last_order(adj, first_ids(3)), std::invalid_argument);
}

}  // namespace
