#include "matching/hopcroft_karp.hpp"

#include <limits>
#include <queue>
#include <vector>

namespace minim::matching {

namespace {

constexpr std::uint32_t kNil = std::numeric_limits<std::uint32_t>::max();

struct HopcroftKarp {
  const BipartiteGraph& g;
  std::vector<std::uint32_t> match_l;  // left -> right
  std::vector<std::uint32_t> match_r;  // right -> left
  std::vector<std::uint32_t> dist;

  explicit HopcroftKarp(const BipartiteGraph& graph)
      : g(graph),
        match_l(graph.left_size(), kNil),
        match_r(graph.right_size(), kNil),
        dist(graph.left_size(), 0) {}

  bool bfs() {
    std::queue<std::uint32_t> q;
    bool reachable_free = false;
    for (std::uint32_t l = 0; l < g.left_size(); ++l) {
      if (match_l[l] == kNil) {
        dist[l] = 0;
        q.push(l);
      } else {
        dist[l] = kNil;
      }
    }
    while (!q.empty()) {
      const std::uint32_t l = q.front();
      q.pop();
      const auto row = g.row(l);
      for (std::uint32_t r = 0; r < row.size(); ++r) {
        if (row[r] == 0) continue;
        const std::uint32_t next = match_r[r];
        if (next == kNil) {
          reachable_free = true;
        } else if (dist[next] == kNil) {
          dist[next] = dist[l] + 1;
          q.push(next);
        }
      }
    }
    return reachable_free;
  }

  bool dfs(std::uint32_t l) {
    const auto row = g.row(l);
    for (std::uint32_t r = 0; r < row.size(); ++r) {
      if (row[r] == 0) continue;
      const std::uint32_t next = match_r[r];
      if (next == kNil || (dist[next] == dist[l] + 1 && dfs(next))) {
        match_l[l] = r;
        match_r[r] = l;
        return true;
      }
    }
    dist[l] = kNil;
    return false;
  }

  void solve() {
    while (bfs()) {
      for (std::uint32_t l = 0; l < g.left_size(); ++l)
        if (match_l[l] == kNil) dfs(l);
    }
  }
};

}  // namespace

MatchingResult max_cardinality_matching(const BipartiteGraph& g) {
  HopcroftKarp hk(g);
  hk.solve();
  MatchingResult result;
  result.left_to_right.assign(g.left_size(), MatchingResult::kUnmatched);
  for (std::uint32_t l = 0; l < g.left_size(); ++l) {
    if (hk.match_l[l] == kNil) continue;
    result.left_to_right[l] = hk.match_l[l];
    result.total_weight += g.weight(l, hk.match_l[l]);
  }
  return result;
}

}  // namespace minim::matching
