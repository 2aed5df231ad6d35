#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/algorithms.hpp"
#include "net/network.hpp"

/// \file ordering.hpp
/// \brief Incrementally maintained degeneracy (smallest-last) ordering.
///
/// BBB recolors from scratch at every event in smallest-last order.
/// Computing that order from scratch costs an O(V+E) adjacency scan for the
/// vertex degrees and a bucket structure in freshly allocated storage, per
/// event.  `DegeneracyOrderer` removes both costs:
///
/// * it mirrors every node's conflict degree, synchronized from the conflict
///   cache's dirty journal — a bounded repair touching only the nodes whose
///   conflict neighborhood changed since the last order, falling back to a
///   full degree rebuild when the journal window is gone or the dirty region
///   exceeds `Params::rebuild_fraction` of the id space;
/// * the elimination replays through a persistent `graph::EliminationArena`,
///   so a steady-state event performs no allocation.
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
/// Even with the mirror, *serving* an order is O(V+E): the elimination
/// replays over every vertex.  The second mode removes that last per-event
/// linear scan.  Instead of recomputing the order, the orderer keeps a
/// persistent **stable rank index** — `rank(v)` is v's slot in a stored
/// coloring sequence — and absorbs each event's conflict-journal dirty set
/// locally:
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
    /// Full degree rebuild when more than this fraction of the id space was
    /// journaled dirty since the last order (raw journal entries, so repeats
    /// count — a deliberately conservative trigger).
    double rebuild_fraction = 0.25;
    /// Maintained-rank drift bound: `try_maintain_ranks` demands a rebuild
    /// once appends + tombstones since the last `rebuild_ranks` exceed this
    /// fraction of the live node count.
    double rank_rebuild_fraction = 0.25;
  };

  /// Why the last `order()` call refreshed its degree mirror the way it did.
  struct Counters {
    std::uint64_t orders = 0;
    std::uint64_t repaired_nodes = 0;     ///< dirty ids patched in place
    std::uint64_t degree_rebuilds = 0;    ///< full mirror recomputes (any cause)
    std::uint64_t threshold_fallbacks = 0;///< rebuilds forced by rebuild_fraction
    std::uint64_t journal_fallbacks = 0;  ///< rebuilds forced by a lost window
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
  /// full live node set (ascending) — the precondition under which the
  /// degree mirror equals the conflict row sizes.
  void order(const net::AdhocNetwork& net, const std::vector<net::NodeId>& vertices,
             std::vector<net::NodeId>& out);

  // ---------------------------------------------------- maintained ranks

  /// Absorbs one event's deduped dirty set (raw conflict-journal ids; the
  /// caller sorts/uniques but does NOT filter liveness — departures are
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

  /// The id-indexed rank span backing `rank()`: `kNoRank` marks departed/
  /// never-ranked ids, and ids at or past the span's end are unranked.
  /// Read-only view for the component decomposer (components.hpp);
  /// invalidated by the next maintain/rebuild.
  std::span<const std::uint32_t> rank_index() const { return rank_; }

  /// True when a maintained order exists for `net`'s conflict graph.
  bool ranks_maintained_for(const net::AdhocNetwork& net) const;

  const Params& params() const { return params_; }
  const Counters& counters() const { return counters_; }

 private:
  /// Brings the degree mirror up to date with `cg`; see the file comment.
  void sync_degrees(const net::ConflictGraph& cg);

  Params params_;
  Counters counters_;
  std::uint64_t last_nonce_ = 0;  ///< ConflictGraph::nonce() of the mirror
  std::uint64_t last_revision_ = 0;
  std::vector<std::size_t> degrees_;  ///< id-indexed conflict-degree mirror
  std::vector<net::NodeId> dirty_;
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
