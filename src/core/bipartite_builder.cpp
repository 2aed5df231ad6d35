#include "core/bipartite_builder.hpp"

#include <algorithm>
#include <bit>

#include "util/require.hpp"

namespace minim::core {

RecodeProblem build_recode_problem(const net::AdhocNetwork& net,
                                   const net::CodeAssignment& assignment,
                                   std::vector<net::NodeId> v1,
                                   const BipartiteWeights& weights) {
  MINIM_REQUIRE(weights.old_color_weight > 0 && weights.other_weight > 0,
                "matching weights must be positive");
  std::sort(v1.begin(), v1.end());
  v1.erase(std::unique(v1.begin(), v1.end()), v1.end());

  RecodeProblem problem;
  problem.v1 = std::move(v1);
  const auto& set = problem.v1;

  // Per-member forbidden color sets (colors of conflict partners outside V1)
  // and the pool bound `max`.  Inlined rather than routed through
  // `net::forbidden_colors`' std::function filter, with V1 membership served
  // from an epoch-stamped array: the two passes below visit every conflict
  // partner of every V1 member of every join, and both the indirect call and
  // the per-partner binary search dominated the join profile.  The scratch is
  // thread_local because strategies run one per worker thread.
  thread_local std::vector<std::uint64_t> member_epoch;
  thread_local std::uint64_t epoch = 0;
  if (member_epoch.size() < net.id_bound()) member_epoch.resize(net.id_bound(), 0);
  ++epoch;
  for (net::NodeId v : set) member_epoch[v] = epoch;

  // Pass 1: the pool bound `max`, over the members' old colors and their
  // outside partners' colors.  A member partner counts as color 0 through a
  // 0/1 factor rather than a branch.
  const auto& conflicts = net.conflict_graph();
  net::Color max_color = net::kNoColor;
  for (net::NodeId u : set) {
    for (net::NodeId v : conflicts.neighbors(u)) {
      const net::Color outside = member_epoch[v] != epoch;
      max_color = std::max(max_color, outside * assignment.color(v));
    }
    max_color = std::max(max_color, assignment.color(u));
  }
  problem.max_color = max_color;

  // Pass 2: one forbidden bitset row per member, bit c standing for color
  // c.  Every partner ORs its color's bit in, with "outside V1" as the bit's
  // value, so the scan has no data-dependent branch; an uncolored partner
  // lands in bit 0, which emission masks off.  A member's color is at most
  // `max` too, so every bit lands inside the row.  Rows span this set's own
  // pool 0..max, never the network-wide maximum, so a far-away high color
  // costs nothing here.
  constexpr std::size_t kBits = 64;
  const std::size_t words = max_color / kBits + 1;
  thread_local std::vector<std::uint64_t> forbidden;
  forbidden.assign(set.size() * words, 0);
  for (std::size_t i = 0; i < set.size(); ++i) {
    std::uint64_t* row = forbidden.data() + i * words;
    for (net::NodeId v : conflicts.neighbors(set[i])) {
      const net::Color c = assignment.color(v);
      const std::uint64_t outside = member_epoch[v] != epoch;
      row[c / kBits] |= outside << (c % kBits);
    }
  }

  // Pass 3: each member's edges are the complement of its row over
  // 1..max, walked word by word in ascending color into the member's row of
  // the weight matrix.  Bit 0 (kNoColor) and the bits above max are masked
  // off.
  const std::size_t top_bit = max_color % kBits;
  const std::uint64_t last_mask = top_bit == kBits - 1
                                      ? ~std::uint64_t{0}
                                      : (std::uint64_t{1} << (top_bit + 1)) - 1;
  problem.graph = matching::BipartiteGraph(static_cast<std::uint32_t>(set.size()),
                                           max_color);
  for (std::size_t i = 0; i < set.size(); ++i) {
    const net::Color old = assignment.color(set[i]);
    const std::uint64_t* row = forbidden.data() + i * words;
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t allowed = ~row[w];
      if (w == 0) allowed &= ~std::uint64_t{1};
      if (w == words - 1) allowed &= last_mask;
      for (; allowed != 0; allowed &= allowed - 1) {
        const auto c = static_cast<net::Color>(
            w * kBits + static_cast<std::size_t>(std::countr_zero(allowed)));
        const matching::Weight weight =
            (c == old) ? weights.old_color_weight : weights.other_weight;
        problem.graph.add_edge(static_cast<std::uint32_t>(i), c - 1, weight);
      }
    }
  }
  return problem;
}

}  // namespace minim::core
