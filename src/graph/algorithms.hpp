#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "graph/digraph.hpp"

/// \file algorithms.hpp
/// \brief Graph traversals and orderings used by the recoding strategies.
///
/// The protocols reason about *hop* neighborhoods on the communication graph,
/// i.e. the undirected view of the digraph (u and v are 1 hop apart if either
/// u->v or v->u).  CP's vicinity is the 2-hop ball; Theorem 4.1.10 talks
/// about joins >= 5 hops apart; BBB-style coloring heuristics need
/// degeneracy (smallest-last) orderings.

namespace minim::graph {

/// Nodes at undirected hop distance in [1, k] from `start` (excludes start).
/// Returned ascending by id.
std::vector<NodeId> k_hop_ball(const Digraph& g, NodeId start, std::size_t k);

/// Undirected hop distance from `a` to `b`; SIZE_MAX when unreachable.
std::size_t hop_distance(const Digraph& g, NodeId a, NodeId b);

/// Reusable scratch for `smallest_last_eliminate`: persistent buckets and
/// id-indexed side arrays, so a per-event caller (the BBB orderer) performs
/// no allocation after warmup.
struct EliminationArena {
  std::vector<std::size_t> degree;           ///< working copy; consumed
  std::vector<char> in_set;                  ///< 1 for members of `vertices`
  std::vector<char> removed;
  std::vector<std::vector<NodeId>> buckets;  ///< capacity kept across runs
  std::vector<NodeId> out;                   ///< the coloring order
};

/// Core smallest-last elimination over any id-indexed adjacency.  Consumes
/// `arena.degree` / `arena.in_set` (the caller fills them: degree[v] =
/// |adj[v] ∩ vertices|, in_set[v] = 1 for v ∈ vertices, both indexed up to
/// every id adj may name) and writes the *coloring* order (reverse
/// elimination) into `arena.out`.  Among vertices of minimum remaining
/// degree the most recently pushed one is eliminated first (a lazy bucket
/// stack); the committed figure CSVs depend on that tie-break.  The output
/// is a pure function of (adjacency, vertices) — independent of arena
/// history — which is the invariant the maintained-orderer soaks rely on.
template <typename Adj>
void smallest_last_eliminate(const Adj& adj, const std::vector<NodeId>& vertices,
                             EliminationArena& arena) {
  const std::size_t bound = arena.in_set.size();
  std::size_t max_deg = 0;
  for (NodeId v : vertices) max_deg = std::max(max_deg, arena.degree[v]);

  if (arena.buckets.size() < max_deg + 1) arena.buckets.resize(max_deg + 1);
  for (auto& bucket : arena.buckets) bucket.clear();
  for (NodeId v : vertices) arena.buckets[arena.degree[v]].push_back(v);

  arena.removed.assign(bound, 0);
  std::vector<NodeId>& elimination = arena.out;
  elimination.clear();
  elimination.reserve(vertices.size());
  std::vector<std::size_t>& degree = arena.degree;
  std::vector<char>& in_set = arena.in_set;
  std::vector<char>& removed = arena.removed;
  auto& buckets = arena.buckets;

  std::size_t cursor = 0;
  while (elimination.size() < vertices.size()) {
    while (cursor < buckets.size() && buckets[cursor].empty()) ++cursor;
    // Entries may be stale (degree since decreased); skip them lazily.
    const NodeId v = buckets[cursor].back();
    buckets[cursor].pop_back();
    if (removed[v] || degree[v] != cursor) {
      if (!removed[v] && degree[v] < cursor) buckets[degree[v]].push_back(v);
      if (cursor > 0 && !buckets[cursor - 1].empty()) --cursor;
      continue;
    }
    removed[v] = 1;
    elimination.push_back(v);
    for (NodeId w : adj[v]) {
      if (w >= bound || !in_set[w] || removed[w]) continue;
      buckets[--degree[w]].push_back(w);
    }
    if (cursor > 0) --cursor;
  }
  std::reverse(elimination.begin(), elimination.end());
}

/// Smallest-last (degeneracy) ordering of an undirected adjacency structure
/// over the given `vertices`.  Returns vertices in the order they should be
/// *colored* (reverse of elimination), which is the classic degeneracy-greedy
/// coloring order.  `adj[v]` is any id-indexed neighbor range — a
/// `vector<vector<NodeId>>` or a view over `net::ConflictGraph` rows — and
/// ids absent from `vertices` are ignored.  The from-scratch reference the
/// maintained orderer (`strategies::DegeneracyOrderer`) is soaked against.
template <typename Adj>
std::vector<NodeId> smallest_last_order(const Adj& adj,
                                        const std::vector<NodeId>& vertices) {
  std::size_t bound = 0;
  for (NodeId v : vertices) bound = std::max<std::size_t>(bound, v + 1);

  EliminationArena arena;
  arena.in_set.assign(bound, 0);
  for (NodeId v : vertices) arena.in_set[v] = 1;
  arena.degree.assign(bound, 0);
  for (NodeId v : vertices) {
    std::size_t d = 0;
    for (NodeId w : adj[v])
      if (w < bound && arena.in_set[w]) ++d;
    arena.degree[v] = d;
  }
  smallest_last_eliminate(adj, vertices, arena);
  return std::move(arena.out);
}

}  // namespace minim::graph
