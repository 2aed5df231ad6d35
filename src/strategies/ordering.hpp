#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/algorithms.hpp"
#include "net/network.hpp"

/// \file ordering.hpp
/// \brief Degeneracy (smallest-last) ordering over the cached conflict graph.
///
/// BBB recolors from scratch at every event in smallest-last order.
/// `DegeneracyOrderer::order` takes each node's starting degree from its
/// conflict row — for the full live vertex set the restricted degree is
/// exactly the row size, so no adjacency scan is needed — and replays the
/// elimination through a persistent `graph::EliminationArena`, so a
/// steady-state event performs no allocation.  The elimination itself visits
/// every vertex and edge, so each order costs O(V + E).
///
/// The produced order is bit-identical to from-scratch
/// `graph::smallest_last_order` on the current graph — both run the same
/// `smallest_last_eliminate` core on equal inputs, and the randomized event
/// soaks in tests/strategies/ordering_test.cpp hold it to that.  BBB's
/// colors, and with them the committed figure CSVs, depend on exactly this
/// equivalence.
///
/// ## Maintained ranks (rank-bounded BBB)
///
/// *Serving* an order is O(V+E): the elimination replays over every
/// vertex.  The second mode removes that per-event linear scan.  Instead of
/// recomputing the order, the orderer keeps a persistent **stable rank
/// index** — `rank(v)` is v's slot in a stored coloring sequence — and
/// absorbs each event's conflict-journal dirty set locally:
///
///   * departed ids are tombstoned (their slot empties; nobody else moves);
///   * never-ranked ids (joiners) are appended at the tail, ordered among
///     themselves by descending conflict degree then id (where a fresh
///     low-degree node tends to land under smallest-last anyway);
///   * every other live node keeps its exact rank.
///
/// The invariant this buys is what bounded change propagation needs: in an
/// absorbed ("bounded") update, the *relative* order of any two previously
/// ranked nodes is unchanged, so a greedy recolor can only differ at ranks
/// reachable from the dirty set — no order flip exists anywhere else.  The
/// stored order drifts away from true smallest-last as events accumulate;
/// when appends + tombstones since the last rebuild exceed
/// `Params::rank_rebuild_fraction` of the live set, `try_maintain_ranks`
/// refuses and the caller reseeds via `rebuild_ranks` with a fresh canonical
/// sequence (amortized O(mean degree) per event).  The coloring-quality cost
/// of the drift is the explicit metric the bounded-BBB fuzz harness gates.
namespace minim::strategies {

class DegeneracyOrderer {
 public:
  struct Params {
    /// Maintained-rank drift bound: `try_maintain_ranks` demands a rebuild
    /// once appends + tombstones since the last `rebuild_ranks` exceed this
    /// fraction of the live node count.
    double rank_rebuild_fraction = 0.25;
  };

  /// Work counts since construction.
  struct Counters {
    /// `order()` calls; each reads every degree from the conflict rows.
    /// perfbench is its only reader; ROADMAP item 1's benchmark change
    /// deletes it.
    std::uint64_t degree_rebuilds = 0;
    /// Always 0: `order()` reads no journal.  perfbench is its only reader;
    /// ROADMAP item 1's benchmark change deletes it.
    std::uint64_t journal_fallbacks = 0;
    // Maintained-rank mode.
    std::uint64_t rank_updates = 0;       ///< absorbed (bounded) updates
    std::uint64_t rank_rebuilds = 0;      ///< rebuild_ranks calls
    std::uint64_t rank_appends = 0;       ///< joiners appended at the tail
    std::uint64_t rank_tombstones = 0;    ///< departures tombstoned in place
  };

  /// Rank of an id never present in the maintained order.
  static constexpr std::uint32_t kNoRank = static_cast<std::uint32_t>(-1);

  DegeneracyOrderer() = default;
  explicit DegeneracyOrderer(Params params) : params_(params) {}

  /// Smallest-last coloring order of `vertices` over `net`'s cached conflict
  /// graph, written into `out`.  Requires `vertices` to be the network's
  /// full live node set (ascending) — the precondition under which each
  /// node's restricted degree is its conflict row size.
  void order(const net::AdhocNetwork& net, const std::vector<net::NodeId>& vertices,
             std::vector<net::NodeId>& out);

  // ---------------------------------------------------- maintained ranks

  /// Absorbs one event's deduped dirty set (raw conflict-journal ids, each
  /// once, in any order — appends are sorted by a total order, join
  /// position then conflict degree then id, so the caller passes them in
  /// journal order; it does NOT filter liveness — departures are
  /// recognized here) into the maintained order.  Returns false — leaving
  /// the maintained state unmodified — when no order is maintained for this
  /// network yet or the accumulated drift demands a rebuild; the caller must
  /// then compute a fresh full sequence and hand it to `rebuild_ranks`.
  ///
  /// Batched absorption: when the dirty window covers several events, the
  /// caller passes `join_order` (the batch's live joiners in join order) so
  /// appends land in the order a sequential replay would have appended
  /// them, and `reborn` (sorted ascending: ids freed and reused within the
  /// window) so a reused id is tombstoned out of its previous occupant's
  /// slot before being appended as the new one.  Both default empty — the
  /// single-event behavior, where the (at most one) joiner's append order
  /// is trivially its join order.
  bool try_maintain_ranks(const net::AdhocNetwork& net,
                          std::span<const net::NodeId> dirty,
                          std::span<const net::NodeId> join_order = {},
                          std::span<const net::NodeId> reborn = {});

  /// Resets the maintained order to `sequence` (all live nodes, dense).
  void rebuild_ranks(const net::AdhocNetwork& net,
                     const std::vector<net::NodeId>& sequence);

  /// The maintained rank of `v`; `kNoRank` for unranked/departed ids.
  std::uint32_t rank(net::NodeId v) const {
    return v < rank_.size() ? rank_[v] : kNoRank;
  }

  /// The maintained coloring sequence; `net::kInvalidNode` marks tombstoned
  /// slots.  `ranked_sequence()[rank(v)] == v` for every ranked v.
  const std::vector<net::NodeId>& ranked_sequence() const { return rank_seq_; }

  /// True when a maintained order exists for `net`'s conflict graph.
  bool ranks_maintained_for(const net::AdhocNetwork& net) const;

  const Params& params() const { return params_; }
  const Counters& counters() const { return counters_; }

 private:
  Params params_;
  Counters counters_;
  graph::EliminationArena arena_;

  // Maintained-rank state (see the file comment).
  std::uint64_t rank_nonce_ = 0;        ///< 0 = no maintained order
  std::vector<net::NodeId> rank_seq_;   ///< stored order, with tombstones
  std::vector<std::uint32_t> rank_;     ///< id -> slot in rank_seq_
  std::size_t rank_drift_ = 0;          ///< appends + tombstones since rebuild
  std::vector<net::NodeId> appended_;   ///< per-update scratch (joiners)
  /// Per-update scratch: (id, position in the caller's join order), sorted
  /// by id for binary search while ordering appends.
  std::vector<std::pair<net::NodeId, std::uint32_t>> join_pos_;
};

}  // namespace minim::strategies
