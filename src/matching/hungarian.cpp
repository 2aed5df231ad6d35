#include "matching/hungarian.hpp"

#include <limits>
#include <vector>

namespace minim::matching {

MatchingResult max_weight_matching(const BipartiteGraph& g) {
  const std::size_t n = g.left_size();   // rows
  MatchingResult result;
  result.left_to_right.assign(n, MatchingResult::kUnmatched);
  const Weight w_max = g.max_weight();
  if (n == 0 || w_max == 0) return result;  // no edges at all

  // Minimize cost w_max - w over a row-perfect assignment.  Columns
  // [1, R] are the real right vertices, their costs read from g's rows (a
  // non-edge has weight 0); columns [R+1, R+n] are padding slots of cost
  // w_max (weight 0), so a row-perfect assignment always exists.  A row
  // assigned at weight 0 is reported unmatched.
  const std::size_t r_real = g.right_size();
  const std::size_t m = r_real + n;

  constexpr Weight kInf = std::numeric_limits<Weight>::max() / 4;

  // e-maxx formulation with 1-based potentials; p[j] = row matched to col
  // j.  Reused per thread: strategies run one per worker thread.
  thread_local std::vector<Weight> u;
  thread_local std::vector<Weight> v;
  thread_local std::vector<std::size_t> p;    // 0 = free column
  thread_local std::vector<std::size_t> way;
  thread_local std::vector<Weight> minv;
  thread_local std::vector<char> used;
  thread_local std::vector<std::size_t> visited;  // the used columns, in order
  u.assign(n + 1, 0);
  v.assign(m + 1, 0);
  p.assign(m + 1, 0);
  way.assign(m + 1, 0);

  for (std::size_t i = 1; i <= n; ++i) {
    p[0] = i;
    std::size_t j0 = 0;
    minv.assign(m + 1, kInf);
    used.assign(m + 1, 0);
    visited.clear();
    // An unused column's minv is stored plus `offset`, the sum of this
    // search's deltas, so a step subtracts its delta from all of them by
    // adding it here, and scans the columns once.
    Weight offset = 0;
    do {
      used[j0] = 1;
      visited.push_back(j0);
      const std::size_t i0 = p[j0];
      // cost - u[i0] - v[j] + offset == base - w - v[j]
      const Weight base = w_max - u[i0] + offset;
      const Weight* row = g.row(static_cast<std::uint32_t>(i0 - 1)).data();
      Weight least = kInf;
      std::size_t j1 = 0;
      const auto relax = [&](std::size_t j, Weight cur) {
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < least) {
          least = minv[j];
          j1 = j;
        }
      };
      for (std::size_t j = 1; j <= r_real; ++j)
        if (!used[j]) relax(j, base - row[j - 1] - v[j]);
      for (std::size_t j = r_real + 1; j <= m; ++j)
        if (!used[j]) relax(j, base - v[j]);
      const Weight delta = least - offset;
      for (const std::size_t j : visited) {
        u[p[j]] += delta;
        v[j] -= delta;
      }
      offset += delta;
      j0 = j1;
    } while (p[j0] != 0);
    // Augment along the alternating path.
    do {
      const std::size_t j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  for (std::size_t j = 1; j <= m; ++j) {
    if (p[j] == 0) continue;
    const std::size_t i = p[j] - 1;
    if (j > r_real) continue;                          // padding slot: unmatched
    const Weight w = g.weight(static_cast<std::uint32_t>(i),
                              static_cast<std::uint32_t>(j - 1));
    if (w <= 0) continue;                              // zero-cost non-edge
    result.left_to_right[i] = static_cast<std::uint32_t>(j - 1);
    result.total_weight += w;
  }
  return result;
}

}  // namespace minim::matching
