#pragma once

#include <cstdint>
#include <span>
#include <vector>

/// \file bipartite_graph.hpp
/// \brief Weighted bipartite graphs for the recoding matching step.
///
/// RecodeOnJoin/RecodeOnMove build the graph G' = (V1 ∪ V2, E') where V1 is
/// the set of nodes to recode, V2 the color pool {1..max}, and an edge
/// (u, c) exists iff node u may legally take color c given the colors of all
/// nodes *outside* V1.  Edge weights are 3 for "u's old color" and 1
/// otherwise (paper, Section 4.1); the weight type is integral because the
/// optimality proofs are exact-arithmetic arguments.
///
/// G' is dense — a recode set's members may take most of its pool — so the
/// graph is a row-major |left| × |right| weight matrix in which 0 means "no
/// edge".  The matchers read a left vertex's row in ascending right order,
/// and the Hungarian takes its costs straight from the rows.

namespace minim::matching {

using Weight = std::int64_t;

/// Dense weighted bipartite graph with `left_size` x `right_size` vertices.
class BipartiteGraph {
 public:
  BipartiteGraph(std::uint32_t left_size, std::uint32_t right_size);

  /// Adds edge (l, r, w).  Requires valid endpoints and w > 0; a parallel
  /// edge (a nonzero cell) is rejected in O(1), in any insertion order.
  void add_edge(std::uint32_t l, std::uint32_t r, Weight w);

  std::uint32_t left_size() const { return left_size_; }
  std::uint32_t right_size() const { return right_size_; }
  std::size_t edge_count() const { return edge_count_; }
  /// Largest edge weight; 0 when the graph has no edge.
  Weight max_weight() const { return max_weight_; }

  /// Left vertex `l`'s row: entry r is the weight of (l, r), 0 when absent.
  std::span<const Weight> row(std::uint32_t l) const;

  /// Weight of (l, r); 0 when absent.
  Weight weight(std::uint32_t l, std::uint32_t r) const;

  bool has_edge(std::uint32_t l, std::uint32_t r) const { return weight(l, r) > 0; }

 private:
  std::uint32_t left_size_;
  std::uint32_t right_size_;
  std::vector<Weight> cells_;  ///< row-major, left_size_ x right_size_
  std::size_t edge_count_ = 0;
  Weight max_weight_ = 0;
};

/// A matching: `left_to_right[l]` is the matched right vertex or `kUnmatched`.
struct MatchingResult {
  static constexpr std::uint32_t kUnmatched = static_cast<std::uint32_t>(-1);

  std::vector<std::uint32_t> left_to_right;
  Weight total_weight = 0;

  std::size_t cardinality() const {
    std::size_t n = 0;
    for (auto r : left_to_right)
      if (r != kUnmatched) ++n;
    return n;
  }
};

/// Checks `m` is a valid matching on `g` (edges exist, right vertices unique)
/// and that `total_weight` is consistent.  Used by tests and debug builds.
bool is_valid_matching(const BipartiteGraph& g, const MatchingResult& m);

}  // namespace minim::matching
