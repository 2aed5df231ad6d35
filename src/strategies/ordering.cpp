#include "strategies/ordering.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace minim::strategies {

void DegeneracyOrderer::order(const net::AdhocNetwork& net,
                              const std::vector<net::NodeId>& vertices,
                              std::vector<net::NodeId>& out) {
  MINIM_REQUIRE(vertices.size() == net.node_count(),
                "DegeneracyOrderer: vertices must be the full live node set");
  const net::ConflictGraph& cg = net.conflict_graph();
  ++counters_.degree_rebuilds;

  // The conflict rows list live nodes only, so for the full vertex set the
  // restricted degree |adj[v] ∩ vertices| is exactly the row size.
  const std::size_t bound = net.id_bound();
  arena_.in_set.assign(bound, 0);
  arena_.degree.assign(bound, 0);
  for (net::NodeId v : vertices) {
    arena_.in_set[v] = 1;
    arena_.degree[v] = cg.degree(v);
  }

  smallest_last_eliminate(cg, vertices, arena_);
  out = arena_.out;
}

bool DegeneracyOrderer::ranks_maintained_for(const net::AdhocNetwork& net) const {
  return rank_nonce_ != 0 && rank_nonce_ == net.conflict_graph().nonce();
}

bool DegeneracyOrderer::try_maintain_ranks(const net::AdhocNetwork& net,
                                           std::span<const net::NodeId> dirty,
                                           std::span<const net::NodeId> join_order,
                                           std::span<const net::NodeId> reborn) {
  if (!ranks_maintained_for(net)) return false;

  const auto is_reborn = [&reborn](net::NodeId v) {
    return std::binary_search(reborn.begin(), reborn.end(), v);
  };

  // Pass 1 — classify without mutating, so a drift-threshold refusal leaves
  // the maintained order exactly as it was (the caller rebuilds from a fresh
  // canonical sequence either way).  A reborn id (freed and reused within
  // the window) is both a departure of its previous occupant — tombstoned —
  // and a fresh joiner — appended.
  std::size_t tombstones = 0;
  appended_.clear();
  for (net::NodeId v : dirty) {
    const bool ranked = rank(v) != kNoRank;
    if (!net.contains(v)) {
      if (ranked) ++tombstones;
    } else if (is_reborn(v)) {
      if (ranked) ++tombstones;
      appended_.push_back(v);
    } else if (!ranked) {
      appended_.push_back(v);
    }
  }

  const std::size_t drift = rank_drift_ + tombstones + appended_.size();
  if (static_cast<double>(drift) > params_.rank_rebuild_fraction *
                                       static_cast<double>(net.node_count()))
    return false;

  // Pass 2 — apply.  Departures (and the previous occupants of reborn ids)
  // empty their slot in place; no other node moves, which is the
  // no-flips-among-survivors invariant bounded BBB propagation relies on.
  for (net::NodeId v : dirty) {
    if (net.contains(v) && !is_reborn(v)) continue;
    const std::uint32_t r = rank(v);
    if (r == kNoRank) continue;
    rank_seq_[r] = net::kInvalidNode;
    rank_[v] = kNoRank;
  }

  // Joiners go at the tail.  With a caller-supplied `join_order` (batched
  // absorption) they keep the order a sequential replay would have appended
  // them in — the relative-order source the bounded recolor's equivalence
  // claim rests on.  Otherwise (single-event absorption, or ids the caller
  // did not list) they sort by descending conflict degree then ascending id
  // — the neighborhood a fresh node would occupy late in a smallest-last
  // order anyway.  Their relative order against survivors *is* new, but
  // every conflict neighbor of a joiner is journal-dirty (each pair's 0 → 1
  // witness transition marks both ends), so the propagation seeds already
  // cover every flip this introduces.
  const net::ConflictGraph& cg = net.conflict_graph();
  join_pos_.clear();
  for (std::uint32_t i = 0; i < join_order.size(); ++i)
    join_pos_.emplace_back(join_order[i], i);
  std::sort(join_pos_.begin(), join_pos_.end());
  const auto join_position = [this](net::NodeId v) -> std::uint32_t {
    const auto it = std::lower_bound(
        join_pos_.begin(), join_pos_.end(),
        std::make_pair(v, std::uint32_t{0}),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    return it != join_pos_.end() && it->first == v
               ? it->second
               : static_cast<std::uint32_t>(-1);  // unlisted: after everyone
  };
  std::sort(appended_.begin(), appended_.end(),
            [&cg, &join_position](net::NodeId a, net::NodeId b) {
              const std::uint32_t pa = join_position(a);
              const std::uint32_t pb = join_position(b);
              if (pa != pb) return pa < pb;
              const std::size_t da = cg.degree(a);
              const std::size_t db = cg.degree(b);
              if (da != db) return da > db;
              return a < b;
            });
  for (net::NodeId v : appended_) {
    if (v >= rank_.size()) rank_.resize(v + 1, kNoRank);
    rank_[v] = static_cast<std::uint32_t>(rank_seq_.size());
    rank_seq_.push_back(v);
  }

  rank_drift_ = drift;
  counters_.rank_tombstones += tombstones;
  counters_.rank_appends += appended_.size();
  ++counters_.rank_updates;
  return true;
}

void DegeneracyOrderer::rebuild_ranks(const net::AdhocNetwork& net,
                                      const std::vector<net::NodeId>& sequence) {
  MINIM_REQUIRE(sequence.size() == net.node_count(),
                "rebuild_ranks: sequence must cover the full live node set");
  rank_nonce_ = net.conflict_graph().nonce();
  rank_seq_ = sequence;
  rank_.assign(net.id_bound(), kNoRank);
  for (std::uint32_t i = 0; i < rank_seq_.size(); ++i)
    rank_[rank_seq_[i]] = i;
  rank_drift_ = 0;
  ++counters_.rank_rebuilds;
}

}  // namespace minim::strategies
