#include "matching/heuristics.hpp"

#include <algorithm>

namespace minim::matching {

MatchingResult greedy_matching(const BipartiteGraph& g) {
  struct Edge {
    std::uint32_t left;
    std::uint32_t right;
    Weight weight;
  };
  std::vector<Edge> edges;
  edges.reserve(g.edge_count());
  for (std::uint32_t l = 0; l < g.left_size(); ++l) {
    const auto row = g.row(l);
    for (std::uint32_t r = 0; r < row.size(); ++r)
      if (row[r] > 0) edges.push_back(Edge{l, r, row[r]});
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    if (a.left != b.left) return a.left < b.left;
    return a.right < b.right;
  });
  MatchingResult result;
  result.left_to_right.assign(g.left_size(), MatchingResult::kUnmatched);
  std::vector<char> right_used(g.right_size(), 0);
  for (const auto& e : edges) {
    if (result.left_to_right[e.left] != MatchingResult::kUnmatched) continue;
    if (right_used[e.right]) continue;
    result.left_to_right[e.left] = e.right;
    right_used[e.right] = 1;
    result.total_weight += e.weight;
  }
  return result;
}

}  // namespace minim::matching
