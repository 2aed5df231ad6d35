#pragma once

#include <cstdint>
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

namespace minim::matching {

using Weight = std::int64_t;

/// One weighted left->right edge.
struct BipartiteEdge {
  std::uint32_t left;
  std::uint32_t right;
  Weight weight;
};

/// Adjacency-list bipartite graph with `left_size` x `right_size` vertices.
class BipartiteGraph {
 public:
  BipartiteGraph(std::uint32_t left_size, std::uint32_t right_size);

  /// Adds edge (l, r, w).  Requires valid endpoints and w > 0.
  /// Parallel edges are rejected: in O(1) when `r` exceeds every right
  /// endpoint `l` already has (ascending insertion, the recode builder's
  /// order), by a scan of l's edges otherwise.
  void add_edge(std::uint32_t l, std::uint32_t r, Weight w);

  std::uint32_t left_size() const { return left_size_; }
  std::uint32_t right_size() const { return right_size_; }
  std::size_t edge_count() const { return edges_.size(); }

  const std::vector<BipartiteEdge>& edges() const { return edges_; }

  /// Edges incident to left vertex `l` (indices into `edges()`).
  const std::vector<std::uint32_t>& edges_of_left(std::uint32_t l) const;

  /// Weight of (l, r); 0 when absent.
  Weight weight(std::uint32_t l, std::uint32_t r) const;

  bool has_edge(std::uint32_t l, std::uint32_t r) const { return weight(l, r) > 0; }

 private:
  std::uint32_t left_size_;
  std::uint32_t right_size_;
  std::vector<BipartiteEdge> edges_;
  std::vector<std::vector<std::uint32_t>> left_adj_;
  /// Per left vertex: one past its largest right endpoint (0 when it has no
  /// edges), so an edge at or above it is provably new.
  std::vector<std::uint32_t> right_end_;
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
