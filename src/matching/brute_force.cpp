#include "matching/brute_force.hpp"

#include <vector>

#include "util/require.hpp"

namespace minim::matching {

namespace {

struct Search {
  const BipartiteGraph& g;
  std::vector<std::uint32_t> current;
  std::vector<char> right_used;
  Weight current_weight = 0;
  MatchingResult best;

  explicit Search(const BipartiteGraph& graph)
      : g(graph),
        current(graph.left_size(), MatchingResult::kUnmatched),
        right_used(graph.right_size(), 0) {
    best.left_to_right = current;
    best.total_weight = 0;
  }

  void run(std::uint32_t l) {
    if (l == g.left_size()) {
      if (current_weight > best.total_weight) {
        best.total_weight = current_weight;
        best.left_to_right = current;
      }
      return;
    }
    // Option 1: leave l unmatched.
    run(l + 1);
    // Option 2: match l along each free incident edge, in ascending right
    // order.
    const auto row = g.row(l);
    for (std::uint32_t r = 0; r < row.size(); ++r) {
      if (row[r] == 0 || right_used[r]) continue;
      right_used[r] = 1;
      current[l] = r;
      current_weight += row[r];
      run(l + 1);
      current_weight -= row[r];
      current[l] = MatchingResult::kUnmatched;
      right_used[r] = 0;
    }
  }
};

}  // namespace

MatchingResult brute_force_max_weight_matching(const BipartiteGraph& g) {
  MINIM_REQUIRE(g.left_size() <= 12, "brute force matcher limited to 12 left vertices");
  Search search(g);
  search.run(0);
  return search.best;
}

}  // namespace minim::matching
