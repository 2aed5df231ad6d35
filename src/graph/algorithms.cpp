#include "graph/algorithms.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "util/require.hpp"

namespace minim::graph {

namespace {

/// Visits undirected neighbors (out ∪ in) of `v`.
template <typename Fn>
void for_each_undirected_neighbor(const Digraph& g, NodeId v, Fn&& fn) {
  const auto& outs = g.out_neighbors(v);
  const auto& ins = g.in_neighbors(v);
  // Merge two sorted lists, deduplicating.
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < outs.size() || j < ins.size()) {
    NodeId next;
    if (j >= ins.size() || (i < outs.size() && outs[i] <= ins[j])) {
      next = outs[i];
      if (j < ins.size() && ins[j] == next) ++j;
      ++i;
    } else {
      next = ins[j];
      ++j;
    }
    fn(next);
  }
}

}  // namespace

std::vector<NodeId> k_hop_ball(const Digraph& g, NodeId start, std::size_t k) {
  MINIM_REQUIRE(g.contains(start), "k_hop_ball: unknown start");
  std::vector<std::size_t> dist(g.id_bound(), std::numeric_limits<std::size_t>::max());
  dist[start] = 0;
  std::queue<NodeId> frontier;
  frontier.push(start);
  std::vector<NodeId> ball;
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop();
    if (dist[v] == k) continue;
    for_each_undirected_neighbor(g, v, [&](NodeId w) {
      if (dist[w] != std::numeric_limits<std::size_t>::max()) return;
      dist[w] = dist[v] + 1;
      ball.push_back(w);
      frontier.push(w);
    });
  }
  std::sort(ball.begin(), ball.end());
  return ball;
}

std::size_t hop_distance(const Digraph& g, NodeId a, NodeId b) {
  MINIM_REQUIRE(g.contains(a) && g.contains(b), "hop_distance: unknown node");
  if (a == b) return 0;
  std::vector<std::size_t> dist(g.id_bound(), std::numeric_limits<std::size_t>::max());
  dist[a] = 0;
  std::queue<NodeId> frontier;
  frontier.push(a);
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop();
    std::size_t found = std::numeric_limits<std::size_t>::max();
    for_each_undirected_neighbor(g, v, [&](NodeId w) {
      if (dist[w] != std::numeric_limits<std::size_t>::max()) return;
      dist[w] = dist[v] + 1;
      if (w == b) found = dist[w];
      frontier.push(w);
    });
    if (found != std::numeric_limits<std::size_t>::max()) return found;
  }
  return std::numeric_limits<std::size_t>::max();
}

}  // namespace minim::graph
