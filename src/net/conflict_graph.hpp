#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/row_pool.hpp"

/// \file conflict_graph.hpp
/// \brief Cached two-hop interference adjacency (CA1 ∪ CA2) with per-pair
/// multiplicity counts, maintained incrementally from digraph edge deltas.
///
/// The TOCA conflict graph is the central object of every strategy: u and v
/// conflict iff u→v, v→u (CA1), or they share an out-neighbor (CA2).  The
/// naive enumeration (`merge in/out lists, union co-senders of every
/// out-neighbor`) costs O(deg²) per node and was recomputed per *event* by
/// the global strategies — the dominant term in every wall-clock profile.
///
/// This cache keeps, for every node, the sorted list of its conflict
/// partners together with a *multiplicity* per pair:
///
///     count(u, v) = [u→v] + [v→u] + |out(u) ∩ out(v)|
///
/// i.e. the number of distinct CA1/CA2 witnesses forbidding the pair the
/// same color.  Counting witnesses makes edge deltas compose: adding the
/// directed edge u→v contributes exactly one witness to (u, v) and one to
/// (u, w) for every other sender w ∈ in(v); removing it retracts the same
/// witnesses.  A pair conflicts iff its count is positive, so existence
/// transitions (0 → 1 and 1 → 0) are detected locally, with no global
/// recount.
///
/// The owner (`AdhocNetwork`) reports deltas *before* applying them to the
/// digraph; this class never mutates the digraph it reads.  It reports a
/// node's out-edges and in-edges as fans (`on_out_edges_*`,
/// `on_in_edges_*`).  A fan marks its partners once in an id-indexed tally
/// and updates every touched row in place: one walk over the row's own ids
/// bumps or drops the marked counts, partners the row lacks go in with one
/// backward merge, and pairs that lost their last witness are compacted
/// out in one pass.  The per-edge `on_edge_added` / `on_edge_removed`,
/// which apply one witness at a time, are the reference the fans are
/// tested against.
///
/// ## Dirty journal
///
/// Every existence transition — a pair gaining or losing its last witness —
/// and every node add/remove appends the touched node ids to a bounded
/// journal tagged with a monotonically increasing revision.  A consumer that
/// remembers the revision it last synchronized at can ask for "every node
/// whose conflict neighborhood changed since" and recompute only those; the
/// one consumer is rank-bounded propagation in `BbbStrategy`.  If the window
/// has been trimmed away — or the graph was `clear()`ed — the query fails
/// and the consumer must fall back to a full pass.
namespace minim::net {

using graph::NodeId;

class ConflictGraph {
 public:
  // ------------------------------------------------------------- queries

  /// Conflict partners of `v`, ascending by id.  Empty for dead/unknown ids.
  /// The span points into pooled storage; any conflict-graph mutation
  /// invalidates it.
  std::span<const NodeId> neighbors(NodeId v) const { return rows_.ids(v); }

  /// `neighbors(v)`: the graph itself is the id-indexed adjacency that
  /// `graph::smallest_last_eliminate` and the coloring loops take.
  std::span<const NodeId> operator[](NodeId v) const { return neighbors(v); }

  /// Number of CA1/CA2 witnesses forbidding {u, v} the same color.
  std::uint32_t multiplicity(NodeId u, NodeId v) const;

  /// True iff u and v may not share a color (count > 0).
  bool in_conflict(NodeId u, NodeId v) const { return multiplicity(u, v) > 0; }

  /// Conflict degree of `v` (number of distinct partners).
  std::size_t degree(NodeId v) const { return rows_.size(v); }

  /// Number of conflicting unordered pairs.
  std::size_t pair_count() const { return pair_count_; }

  /// Exclusive upper bound on ids with allocated rows.
  NodeId id_bound() const { return static_cast<NodeId>(rows_.row_count()); }

  /// Heap bytes held by the adjacency pools, the dirty journal and the
  /// delta scratch (the partner tally grows with the id space).
  std::size_t memory_bytes() const;

  // ------------------------------------------------------------- journal

  ConflictGraph();

  /// Process-unique identity of this instance.  Consumers that cache state
  /// keyed to a conflict graph (the degeneracy orderer's maintained ranks)
  /// must key on the nonce, not the address: a new graph allocated where a
  /// destroyed one lived would otherwise silently serve them stale state.
  std::uint64_t nonce() const { return nonce_; }

  /// Monotonically increasing change counter; bumps on every journaled
  /// dirty mark (never resets, not even on `clear()`).
  std::uint64_t revision() const { return revision_; }

  /// Points `out` at the ids journaled in revisions (since, revision()],
  /// without copying them.  Ids repeat and may reference since-removed
  /// nodes; callers dedupe and filter liveness.  Returns false when that
  /// window is no longer covered (journal trimmed, or the graph was
  /// cleared) — the caller must then treat every node as dirty.  The span
  /// is invalidated by any mutation, so BBB's bounded propagation reads it
  /// once per repair before touching the graph.
  bool dirty_window_since(std::uint64_t since, std::span<const NodeId>& out) const;

  // ----------------------------------------- delta protocol (AdhocNetwork)

  /// Ensures a row for `v` and journals it dirty (a joiner with no edges
  /// still needs a color).
  void on_node_added(NodeId v);

  /// Journals the removal.  Requires every incident digraph edge to have
  /// been retracted first (the row must be empty).
  void on_node_removed(NodeId v);

  /// Accounts the witnesses of the new edge u→v.  Must be called *before*
  /// `g.add_edge(u, v)` (so `g.in_neighbors(v)` lists only the other
  /// senders); requires the edge to be absent from `g`.
  void on_edge_added(const graph::Digraph& g, NodeId u, NodeId v);

  /// Retracts the witnesses of edge u→v.  Must be called *before*
  /// `g.remove_edge(u, v)`.
  void on_edge_removed(const graph::Digraph& g, NodeId u, NodeId v);

  /// Batched `on_edge_added` for a fan of edges u→v, v ∈ `targets`
  /// (ascending, deduped, each absent from `g`; must be called before any
  /// of them is applied).  Witness-equivalent to calling `on_edge_added`
  /// per target in order — a fan of u's own out-edges never changes the
  /// partner set of its later edges, so pre-state collection is exact — but
  /// the combined partner multiset, tallied from the targets' in-rows,
  /// updates row u in place *once* for the whole fan, then touches each
  /// partner's row once, in ascending partner order.  A join's k edges thus
  /// cost one walk of u's row, not k.
  void on_out_edges_added(const graph::Digraph& g, NodeId u,
                          std::span<const NodeId> targets);

  /// Batched `on_edge_removed` for edges u→v, v ∈ `targets` (ascending,
  /// deduped, each present in `g`; call before removing any of them).
  void on_out_edges_removed(const graph::Digraph& g, NodeId u,
                            std::span<const NodeId> targets);

  /// Batched `on_edge_added` for a fan of in-edges s→v, s ∈ `senders`
  /// (ascending, deduped, each absent from `g`; call before applying any).
  /// Equivalent to `on_edge_added` per sender in ascending order: v gains
  /// the senders, each sender gains v, v's other senders and the rest of
  /// the fan, and each of v's other senders gains the fan — every touched
  /// row updated in place once, in the order v, senders ascending, other
  /// senders ascending.  The journal receives the same entries as the
  /// per-edge calls, possibly in another order.
  void on_in_edges_added(const graph::Digraph& g, std::span<const NodeId> senders,
                         NodeId v);

  /// Batched `on_edge_removed` for in-edges s→v, s ∈ `senders` (ascending,
  /// deduped, each present in `g`; call before removing any of them).
  void on_in_edges_removed(const graph::Digraph& g,
                           std::span<const NodeId> senders, NodeId v);

  /// Drops all adjacency, keeping row capacity (arena reuse).  Invalidates
  /// every outstanding journal window.
  void clear();

  // ------------------------------------------------------------- oracles

  /// Builds the conflict graph of `g` from scratch by direct enumeration —
  /// an implementation independent of the delta protocol, used as the test
  /// oracle and to measure full-rebuild cost in the microbenchmarks.
  static ConflictGraph build_from(const graph::Digraph& g);

 private:
  /// Adds one witness to the unordered pair {u, v} (both directions).
  void add_witness(NodeId u, NodeId v);
  /// Retracts one witness from {u, v}.
  void retract_witness(NodeId u, NodeId v);
  /// One direction of add_witness; returns true when the pair went 0 → 1.
  bool bump_row(NodeId u, NodeId v);
  /// One direction of retract_witness; returns true when the pair went 1 → 0.
  bool drop_row(NodeId u, NodeId v);
  void mark_dirty(NodeId v);

  /// Fills `partner_scratch_` with the sorted witness partners of edge
  /// u→v in `g` ({v} ∪ in(v) \ {u}; the edge must not be applied yet).
  void collect_edge_partners(const graph::Digraph& g, NodeId u, NodeId v);
  /// Grows `tally_` to cover every id of `g` and `max_id`.
  void cover_tally(const graph::Digraph& g, NodeId max_id);
  /// Adds (delta=+1) or retracts (delta=-1) one batch of witnesses on row u
  /// alone, in place: each id of the row gains or loses
  /// `witnesses(tally_[id])` (branch-free arithmetic on the mark, zero for
  /// unmarked ids), and every id of `partners` (ascending; u itself is
  /// passed over) must carry some.  One walk over the row updates the
  /// counts; partners the row lacks go in with one `insert_batch`, and pairs
  /// that lost their last witness leave with one `erase_zero_counts`.
  /// Leaves in `flips_` the partners whose pair appeared or vanished,
  /// ascending.  Reciprocal rows and the journal are the caller's.
  template <class Witnesses>
  void update_row(NodeId u, std::span<const NodeId> partners, int delta,
                  Witnesses witnesses);
  /// Shared body of on_out_edges_added (delta=+1) / on_out_edges_removed.
  void apply_out_fan(const graph::Digraph& g, NodeId u,
                     std::span<const NodeId> targets, int delta);
  /// Shared body of on_in_edges_added (delta=+1) / on_in_edges_removed.
  void apply_in_fan(const graph::Digraph& g, std::span<const NodeId> senders,
                    NodeId v, int delta);

  std::uint64_t nonce_;  ///< process-unique; see nonce()
  /// Sorted pooled rows; the parallel count of `ids(v)[i]` is the witness
  /// multiplicity of the pair.
  graph::CountedRowPool rows_;
  /// Witness partners of the edge or fan at hand, ascending.
  std::vector<NodeId> partner_scratch_;
  /// Id-indexed marks, all zero between calls: an out-fan's witnesses per
  /// partner, or an in-fan's member kinds (see apply_in_fan).
  std::vector<std::uint32_t> tally_;
  /// update_row's output: the partners whose pair appeared or vanished,
  /// ascending, and the witnesses each new one starts with.
  std::vector<NodeId> flips_;
  std::vector<std::uint32_t> flip_counts_;
  // In-fan scratch (see apply_in_fan).
  std::vector<NodeId> fan_union_;   ///< {v} ∪ in(v) ∪ senders, ascending
  std::vector<NodeId> fan_others_;  ///< in(v) \ senders, ascending
  /// The revision of `journal_[i]` is `journal_base_ + i` — the counter
  /// bumps exactly once per entry, so entries store only the node id.
  std::vector<NodeId> journal_;
  std::uint64_t journal_base_ = 1;  ///< revision of journal_[0]
  std::uint64_t revision_ = 0;
  /// Highest revision whose entry has been discarded; a `since` below this
  /// is no longer answerable.
  std::uint64_t trimmed_revision_ = 0;
  std::size_t pair_count_ = 0;
};

}  // namespace minim::net
