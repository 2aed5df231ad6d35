#pragma once

#include <algorithm>
#include <bit>
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
/// color with a reusable occupancy bitset, so coloring an event is
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

/// Reusable color-occupancy bitset: mark the colors of a node's conflict
/// partners, read the saturation or the lowest free color, reset.  A mark
/// ORs one bit into a 64-color word and tests nothing, so a scan over a
/// node's partners has no data-dependent branch: a `kNoColor` partner lands
/// in bit 0, which neither read counts, and `mark(c, false)` ORs a zero
/// bit, which lets BBB's propagation mark every partner and let the rank
/// decide.  No allocation after warmup, O(deg) per node.  Shared by the
/// greedy/DSATUR loops and BBB's rank-bounded propagation, which must stay
/// bit-identical to them.
class ColorScratch {
 public:
  /// Marks color `c` when `keep` is true.
  void mark(net::Color c, bool keep = true) {
    const std::size_t w = c >> 6;
    if (w >= used_) grow(w);
    words_[w] |= std::uint64_t{keep} << (c & 63);
  }

  /// Number of distinct colors marked (DSATUR's saturation degree).
  std::size_t saturation() const {
    std::size_t count =
        static_cast<std::size_t>(std::popcount(words_[0] & ~std::uint64_t{1}));
    for (std::size_t w = 1; w < used_; ++w)
      count += static_cast<std::size_t>(std::popcount(words_[w]));
    return count;
  }

  /// Smallest positive color not marked.
  net::Color lowest_free() const {
    std::uint64_t taken = words_[0] | 1;  // color 0 is never free
    std::size_t w = 0;
    while (taken == ~std::uint64_t{0} && ++w < used_) taken = words_[w];
    if (w == used_) taken = 0;  // every word in use is full; the next is clear
    return static_cast<net::Color>((w << 6) + static_cast<std::size_t>(
                                                  std::countr_zero(~taken)));
  }

  /// Clears every mark; zeroes only the words marked since the last reset.
  void reset() {
    std::fill_n(words_.begin(), used_, std::uint64_t{0});
    used_ = 1;
  }

 private:
  /// Puts word `w` in use (the words past `used_` are already zero).
  void grow(std::size_t w) {
    if (w >= words_.size()) words_.resize(w + 1, 0);
    used_ = w + 1;
  }

  std::vector<std::uint64_t> words_ = std::vector<std::uint64_t>(1, 0);
  std::size_t used_ = 1;  ///< words [0, used_) may hold marks
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
