#include "matching/bipartite_graph.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace minim::matching {

BipartiteGraph::BipartiteGraph(std::uint32_t left_size, std::uint32_t right_size)
    : left_size_(left_size),
      right_size_(right_size),
      cells_(static_cast<std::size_t>(left_size) * right_size, 0) {}

void BipartiteGraph::add_edge(std::uint32_t l, std::uint32_t r, Weight w) {
  MINIM_REQUIRE(l < left_size_, "bipartite edge: left vertex out of range");
  MINIM_REQUIRE(r < right_size_, "bipartite edge: right vertex out of range");
  MINIM_REQUIRE(w > 0, "bipartite edge weights must be positive");
  Weight& cell = cells_[static_cast<std::size_t>(l) * right_size_ + r];
  MINIM_REQUIRE(cell == 0, "bipartite edge added twice");
  cell = w;
  ++edge_count_;
  max_weight_ = std::max(max_weight_, w);
}

std::span<const Weight> BipartiteGraph::row(std::uint32_t l) const {
  MINIM_REQUIRE(l < left_size_, "row: left vertex out of range");
  return {cells_.data() + static_cast<std::size_t>(l) * right_size_, right_size_};
}

Weight BipartiteGraph::weight(std::uint32_t l, std::uint32_t r) const {
  MINIM_REQUIRE(l < left_size_ && r < right_size_, "weight: vertex out of range");
  return cells_[static_cast<std::size_t>(l) * right_size_ + r];
}

bool is_valid_matching(const BipartiteGraph& g, const MatchingResult& m) {
  if (m.left_to_right.size() != g.left_size()) return false;
  std::vector<char> right_used(g.right_size(), 0);
  Weight total = 0;
  for (std::uint32_t l = 0; l < g.left_size(); ++l) {
    const std::uint32_t r = m.left_to_right[l];
    if (r == MatchingResult::kUnmatched) continue;
    if (r >= g.right_size()) return false;
    if (right_used[r]) return false;
    right_used[r] = 1;
    const Weight w = g.weight(l, r);
    if (w <= 0) return false;  // matched along a non-edge
    total += w;
  }
  return total == m.total_weight;
}

}  // namespace minim::matching
