#pragma once

#include <cstdint>
#include <vector>

#include "net/assignment.hpp"
#include "net/network.hpp"

/// \file coloring.hpp
/// \brief Global conflict-graph coloring heuristics (the BBB substrate).
///
/// The TOCA problem is vertex coloring of the *conflict graph*: nodes are
/// adjacent iff CA1 or CA2 forbids them the same color.  Optimal coloring is
/// NP-complete [Bertossi-Bonuccelli 1995], so the paper's global baseline
/// (BBB, from Battiti-Bertossi-Bonuccelli 1999) is a sequential greedy
/// heuristic.  The original code was never released; we provide the standard
/// ordering family — smallest-last (degeneracy), DSATUR, largest-first and
/// identity — with smallest-last as the default "near-optimal" stand-in, and
/// expose the choice as an ablation.
///
/// All loops read the network's cached `net::ConflictGraph` rows directly
/// (no per-node partner enumeration) and compute each node's lowest free
/// color with a reusable occupancy bitmap, so coloring an event is
/// allocation-free per node — O(V + E) on the conflict graph.

namespace minim::strategies {

/// Vertex orderings for sequential greedy coloring.
enum class ColoringOrder {
  kSmallestLast,  ///< degeneracy order; classic near-optimal default
  kDSatur,        ///< Brelaz's saturation-degree-first [9]
  kLargestFirst,  ///< descending conflict degree
  kIdentity,      ///< ascending node id (worst-case baseline)
};

const char* to_string(ColoringOrder order);

/// Reusable color-occupancy bitmap: mark the colors of a node's colored
/// conflict neighbors, read the saturation / lowest free color, unmark.
/// Replaces the per-node collect-sort-unique pattern — no allocation after
/// warmup, O(deg) per node.  Shared by the greedy/DSATUR loops and BBB's
/// rank-bounded propagation, which must stay bit-identical to them.
class ColorScratch {
 public:
  void mark(net::Color c) {
    if (c >= marks_.size()) marks_.resize(c + 1, 0);
    if (!marks_[c]) {
      marks_[c] = 1;
      marked_.push_back(c);
    }
  }

  /// Number of distinct colors marked (DSATUR's saturation degree).
  std::size_t saturation() const { return marked_.size(); }

  /// Smallest positive color not marked.
  net::Color lowest_free() const {
    net::Color candidate = 1;
    while (candidate < marks_.size() && marks_[candidate]) ++candidate;
    return candidate;
  }

  void reset() {
    for (net::Color c : marked_) marks_[c] = 0;
    marked_.clear();
  }

 private:
  std::vector<std::uint8_t> marks_;  // indexed by color
  std::vector<net::Color> marked_;   // undo list
};

/// Conflict-graph adjacency for all live nodes: `adj[v]` lists every node
/// that may not share v's color, ascending.  Indexed by node id.  A copy of
/// the network's cached conflict graph — prefer reading
/// `net.conflict_graph()` directly in hot paths.
std::vector<std::vector<net::NodeId>> conflict_adjacency(const net::AdhocNetwork& net);

/// The vertex sequence greedy coloring visits for `order` (`color_network`,
/// BBB's from-scratch pass).  DSATUR interleaves ordering with coloring and
/// has no precomputable sequence; for it this returns `vertices` unchanged.
std::vector<net::NodeId> coloring_sequence(const net::AdhocNetwork& net,
                                           std::vector<net::NodeId> vertices,
                                           ColoringOrder order);

/// Greedy-colors exactly `sequence`, in that order, against the cached
/// conflict adjacency; every node takes the lowest color not used by an
/// already-colored conflict neighbor.  Colors of nodes outside `sequence`
/// are held fixed.  Returns the highest color assigned to the sequence.
net::Color greedy_color_in_sequence(const net::AdhocNetwork& net,
                                    const std::vector<net::NodeId>& sequence,
                                    net::CodeAssignment& assignment);

/// Colors the whole network from scratch with sequential greedy coloring in
/// the given order, writing into `out` (existing colors ignored/overwritten).
/// Returns the number of colors used.
net::Color color_network(const net::AdhocNetwork& net, ColoringOrder order,
                         net::CodeAssignment& out);

}  // namespace minim::strategies
