#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "graph/digraph.hpp"
#include "util/require.hpp"

/// \file algorithms.hpp
/// \brief Graph traversals and orderings used by the recoding strategies.
///
/// The protocols reason about *hop* neighborhoods on the communication graph,
/// i.e. the undirected view of the digraph (u and v are 1 hop apart if either
/// u->v or v->u).  CP's vicinity is the 2-hop ball; Theorem 4.1.10 talks
/// about joins >= 5 hops apart; BBB-style coloring heuristics need
/// degeneracy (smallest-last) orderings.
///
/// ## The smallest-last order, exactly
///
/// `smallest_last_eliminate` repeats, until every vertex is eliminated:
///
///   * take the lowest non-empty degree class;
///   * eliminate the vertex that entered that class most recently (the
///     initial entries go in `vertices` order);
///   * lower the degree of each live neighbor, in row order, making each
///     one the newest entrant of its new class.
///
/// The coloring order is the reverse of the elimination order, and BBB's
/// colors, with them the committed figure CSVs, depend on this exact
/// tie-break.  Each class is a LIFO stack linked through one flat entry
/// pool; a lowered vertex's old entry stays behind, stale.  The contract:
/// distinct vertices, and a symmetric adjacency that lists each neighbor at
/// most once.  Under it each elimination lowers a live neighbor's degree by
/// exactly one, so every live vertex's current entry sits at or above the
/// cursor, and every stale entry the cursor pops belongs to an eliminated
/// vertex: a pop tests only `gone`, and the neighbor loop commits its pushes
/// by arithmetic instead of branching on liveness.
///
/// The oracle that pins this order is the earlier lazy-bucket core, kept
/// verbatim in tests/helpers/smallest_last_reference.hpp (it re-pushed stale
/// entries and stepped the cursor back, repairs the contract makes dead);
/// tests/graph/algorithms_test.cpp and tests/strategies/ordering_test.cpp
/// compare exact sequences with it.

namespace minim::graph {

/// Nodes at undirected hop distance in [1, k] from `start` (excludes start).
/// Returned ascending by id.
std::vector<NodeId> k_hop_ball(const Digraph& g, NodeId start, std::size_t k);

/// Undirected hop distance from `a` to `b`; SIZE_MAX when unreachable.
std::size_t hop_distance(const Digraph& g, NodeId a, NodeId b);

/// Reusable scratch for `smallest_last_eliminate`, so a per-event caller (the
/// BBB orderer) performs no allocation after warmup.  `reset(bound)` sizes
/// the id-indexed arrays for ids [0, bound) plus a sentinel slot at `bound`,
/// every slot off the vertex set; the caller then clears `gone[v]` and sets
/// `degree[v]` for each vertex.
struct EliminationArena {
  static constexpr std::uint32_t kEmpty = std::numeric_limits<std::uint32_t>::max();

  /// One stack entry; `next` is the entry below it, kEmpty at the bottom.
  struct Entry {
    NodeId node;
    std::uint32_t next;
  };

  std::vector<std::uint32_t> degree;  ///< live degree; 0 off the vertex set
  std::vector<std::uint8_t> gone;     ///< 1 off the vertex set or once eliminated
  std::vector<std::uint32_t> heads;   ///< per degree class: its newest entry
  std::vector<Entry> pool;            ///< every stack's entries; never shrinks

  void reset(std::size_t bound) {
    degree.assign(bound + 1, 0);
    gone.assign(bound + 1, 1);
  }
};

/// Core smallest-last elimination (the order in the file comment) over any
/// id-indexed adjacency that meets the contract there.  Reads each vertex's
/// degree from `arena` (after `arena.reset`, the caller sets degree[v] =
/// |adj[v] ∩ vertices|) and writes the coloring order, the reverse
/// elimination, into `out`.  A row may name ids at or past the arena's
/// bound: they read the sentinel slot, which is never live.  The output is a
/// pure function of (adjacency, vertices), independent of arena history,
/// which the maintained-orderer soaks rely on.
template <typename Adj>
void smallest_last_eliminate(const Adj& adj, const std::vector<NodeId>& vertices,
                             EliminationArena& arena, std::vector<NodeId>& out) {
  using Entry = EliminationArena::Entry;
  constexpr std::uint32_t kEmpty = EliminationArena::kEmpty;
  const std::size_t bound = arena.gone.size() - 1;  // the sentinel's slot
  std::uint32_t* const degree = arena.degree.data();
  std::uint8_t* const gone = arena.gone.data();

  std::uint32_t max_deg = 0;
  std::size_t degree_sum = 0;
  for (NodeId v : vertices) {
    max_deg = std::max(max_deg, degree[v]);
    degree_sum += degree[v];
  }
  // Each vertex enters once, and each edge once more, when its first end is
  // eliminated; one slot more takes the last uncommitted write.
  const std::size_t entries = vertices.size() + degree_sum / 2 + 1;
  if (arena.pool.size() < entries) arena.pool.resize(entries);
  arena.heads.assign(max_deg + 1, kEmpty);
  std::uint32_t* const heads = arena.heads.data();
  Entry* const pool = arena.pool.data();

  std::uint32_t top = 0;
  for (NodeId v : vertices) {
    pool[top] = {v, heads[degree[v]]};
    heads[degree[v]] = top++;
  }

  out.resize(vertices.size());
  std::size_t left = vertices.size();
  std::uint32_t cursor = 0;
  while (left > 0) {
    // Only a repeated vertex (or an asymmetric adjacency) empties every
    // stack before each vertex is eliminated.
    while (heads[cursor] == kEmpty) {
      ++cursor;
      MINIM_REQUIRE(cursor <= max_deg,
                    "smallest_last_eliminate: vertices must be distinct");
    }
    const Entry popped = pool[heads[cursor]];
    heads[cursor] = popped.next;
    const NodeId v = popped.node;
    if (gone[v]) continue;  // stale: v was eliminated from a lower class
    gone[v] = 1;
    out[--left] = v;
    for (NodeId w : adj[v]) {
      // Every neighbor writes an entry; only a live one commits it.
      const std::size_t slot = std::min<std::size_t>(w, bound);
      const std::uint32_t live = gone[slot] ^ 1u;
      const std::uint32_t d = degree[slot] - live;
      degree[slot] = d;
      const std::uint32_t head = heads[d];
      pool[top] = {w, head};
      heads[d] = head ^ ((head ^ top) & (0u - live));
      top += live;
    }
    cursor -= cursor > 0 ? 1u : 0u;
  }
}

/// Smallest-last (degeneracy) ordering of an undirected adjacency structure
/// over the given `vertices`.  Returns vertices in the order they should be
/// *colored* (reverse of elimination), which is the classic degeneracy-greedy
/// coloring order.  `adj[v]` is any id-indexed neighbor range — a
/// `vector<vector<NodeId>>` or a view over `net::ConflictGraph` rows — and
/// ids absent from `vertices` are ignored.  The input must meet the contract
/// in the file comment; a repeated vertex, a row that names a vertex twice,
/// or a row naming a vertex whose row does not name it back fails a
/// MINIM_REQUIRE.  The from-scratch reference the maintained orderer
/// (`strategies::DegeneracyOrderer`) is soaked against.
template <typename Adj>
std::vector<NodeId> smallest_last_order(const Adj& adj,
                                        const std::vector<NodeId>& vertices) {
  std::size_t bound = 0;
  for (NodeId v : vertices) bound = std::max<std::size_t>(bound, v + 1);

  EliminationArena arena;
  arena.reset(bound);
  for (NodeId v : vertices) arena.gone[v] = 0;
  // listed[w] = 1 + the index of the last row that named vertex w.
  std::vector<std::size_t> listed(bound, 0);
  // Every (row, neighbor) pair between vertices, the row in the high half.
  std::vector<std::uint64_t> arcs;
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    std::uint32_t d = 0;
    for (NodeId w : adj[vertices[i]]) {
      if (w >= bound || arena.gone[w]) continue;
      MINIM_REQUIRE(listed[w] != i + 1,
                    "smallest_last_order: a row lists a neighbor twice");
      listed[w] = i + 1;
      arcs.push_back(std::uint64_t{vertices[i]} << 32 | w);
      ++d;
    }
    arena.degree[vertices[i]] = d;
  }
  // An arc without its reverse would let the elimination lower a vertex
  // past its degree, or push more entries than the pool holds.
  std::sort(arcs.begin(), arcs.end());
  for (std::uint64_t arc : arcs)
    MINIM_REQUIRE(std::binary_search(arcs.begin(), arcs.end(), arc << 32 | arc >> 32),
                  "smallest_last_order: the adjacency must be symmetric");
  std::vector<NodeId> out;
  smallest_last_eliminate(adj, vertices, arena, out);
  return out;
}

}  // namespace minim::graph
