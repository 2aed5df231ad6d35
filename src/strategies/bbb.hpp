#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/strategy.hpp"
#include "strategies/coloring.hpp"
#include "strategies/ordering.hpp"

/// \file bbb.hpp
/// \brief The BBB global baseline: recolor the whole network at every event.
///
/// The paper evaluates its distributed strategies against "a strategy that
/// uses a centralized coloring heuristic: the BBB algorithm of [7], to
/// recolor the entire network at every event".  BBB is near-optimal in max
/// color index (it ignores history and colors from scratch) but pathological
/// in #recodings, which is exactly the contrast Figures 10-12 show.
///
/// ## From-scratch recoloring
///
/// Every event clears the live nodes' colors and greedy-colors them again in
/// the chosen order: smallest-last comes from `DegeneracyOrderer`, which
/// reads each degree from the conflict rows (bit-identical to
/// `graph::smallest_last_order`, see ordering.hpp), the other orders from
/// `coloring_sequence`.  So BBB's colors equal `color_network` on the
/// current network after every event
/// (tests/strategies/bbb_incremental_test.cpp holds it to that), and its
/// report lists, in ascending node order, every node whose color moved.
/// Each event costs O(V + E) on the conflict graph.
///
/// ## Rank-bounded propagation
///
/// The from-scratch pass touches every node even when one node twitches.
/// With `Params::bounded_propagation` it runs only as a fallback: the
/// orderer maintains a persistent rank index (see ordering.hpp), the
/// event's journal-dirty nodes seed a frontier of pending ranks — a
/// two-level bitmap, one bit per rank plus one summary bit per 64-rank
/// word — and propagation pops ranks in ascending order, recomputing a
/// node's lowest-free color from its earlier-ranked neighbors and pushing
/// only the later-ranked neighbors of nodes whose color actually changed.
/// The pop order guarantees every earlier-ranked color read is final, so
/// the result is bit-identical to a from-scratch greedy over the
/// *maintained* sequence (the fuzz harness in
/// tests/strategies/bbb_bounded_fuzz_test.cpp holds it to that per event).
/// The maintained sequence itself drifts from true smallest-last between
/// rebuilds; the coloring-quality cost of that drift is an explicit,
/// gated metric — not silent.  Work per event is O(popped ranks · degree),
/// capped at `Params::propagation_slack` × live nodes; exceeding the cap —
/// or any journal/drift fallback — runs the from-scratch path, which
/// reseeds the rank index.
///
/// A batch (`on_batch`) repairs once: every dirty node of the batch seeds
/// the one frontier, and the budget is the sum of the batch's per-event
/// budgets.  The repair runs on the calling thread, and far-apart dirty
/// regions share that frontier's rank order.

namespace minim::strategies {

class BbbStrategy final : public core::RecodingStrategy {
 public:
  /// Recoloring engine knobs; the defaults are the production behavior.
  struct Params {
    /// Bounded mode: fall back to a full recolor when more than this
    /// fraction of the live nodes had conflict-neighborhood changes.
    double full_recolor_fraction = 0.5;
    /// Rank-bounded propagation: repair through a rank-bitmap frontier over
    /// maintained ranks instead of recoloring from scratch (smallest-last
    /// only; see the file comment).  Bit-identical to a from-scratch greedy
    /// over the maintained sequence; order *quality* may drift between
    /// rebuilds.
    bool bounded_propagation = false;
    /// Per-event propagation budget as a fraction of the live node count
    /// (floor 32 processed ranks).  Exceeding it abandons the event to the
    /// from-scratch path — the escape hatch for recolor storms.
    double propagation_slack = 0.25;
    /// The orderer's maintained-rank drift bound
    /// (`DegeneracyOrderer::Params::rank_rebuild_fraction`).
    double rank_rebuild_fraction = 0.25;
  };

  /// Where bounded-mode events went (all zero unless `bounded_propagation`).
  struct Counters {
    std::uint64_t events = 0;          ///< recolor events served (any mode)
    std::uint64_t bounded_events = 0;  ///< absorbed by rank-bounded propagation
    std::uint64_t full_events = 0;     ///< fell back to the from-scratch path
    std::uint64_t processed_ranks = 0; ///< frontier pops across bounded events
    std::uint64_t full_ranks = 0;      ///< live nodes walked by full events
    std::uint64_t slack_bailouts = 0;  ///< budget exceeded mid-propagation
    // Always 0.  perfbench/src/main.cpp is their only reader; they go with
    // perfbench's `kRecolorThreads` in the next benchmark change (ROADMAP
    // item 1).
    std::uint64_t parallel_events = 0;
    std::uint64_t parallel_components = 0;
    std::uint64_t parallel_demotions = 0;
  };

  explicit BbbStrategy(ColoringOrder order = ColoringOrder::kSmallestLast)
      : BbbStrategy(order, Params{}) {}
  BbbStrategy(ColoringOrder order, Params params)
      : order_(order),
        params_(params),
        orderer_(DegeneracyOrderer::Params{
            .rank_rebuild_fraction = params.rank_rebuild_fraction}) {}

  std::string name() const override;

  core::RecodeReport on_join(const net::AdhocNetwork& net,
                             net::CodeAssignment& assignment, net::NodeId n) override;
  core::RecodeReport on_leave(const net::AdhocNetwork& net,
                              net::CodeAssignment& assignment,
                              net::NodeId departed) override;
  core::RecodeReport on_move(const net::AdhocNetwork& net,
                             net::CodeAssignment& assignment, net::NodeId n) override;
  core::RecodeReport on_power_change(const net::AdhocNetwork& net,
                                     net::CodeAssignment& assignment, net::NodeId n,
                                     double old_range) override;

  /// Every BBB handler runs the from-scratch greedy over the *current*
  /// network — the final assignment is a pure function of the final graph
  /// (plus, in bounded mode, the maintained sequence, which the batch
  /// absorption maintains exactly as a sequential replay would while all
  /// events absorb).  So one repair over the post-batch network is
  /// equivalent to repairing after every event.
  bool supports_batch() const override { return true; }
  core::RecodeReport on_batch(const net::AdhocNetwork& net,
                              net::CodeAssignment& assignment,
                              const core::BatchRepairContext& context) override;

  ColoringOrder order() const { return order_; }
  const Params& params() const { return params_; }
  const Counters& counters() const { return counters_; }
  /// The maintained-order engine (repair/fallback counters for tests; the
  /// maintained rank sequence for the bounded-mode fuzz oracle).
  const DegeneracyOrderer& orderer() const { return orderer_; }

  /// A no-op.  perfbench/src/harness.cpp is its only caller; it goes with
  /// perfbench's `kRecolorThreads` in the next benchmark change (ROADMAP
  /// item 1).
  void set_recolor_threads(std::size_t /*threads*/) {}

 private:
  /// The coloring sequence of this event, served from the maintained
  /// orderer for smallest-last and from `coloring_sequence` otherwise.
  /// Returns a reference to `seq_`.
  const std::vector<net::NodeId>& sequence_for(const net::AdhocNetwork& net,
                                               const std::vector<net::NodeId>& nodes);

  /// Shared recolor driver.  `batch_events` > 1 and the joiner/reborn spans
  /// are only set on the batched path (`on_batch`): the propagation budget
  /// scales with the number of coalesced events, rank maintenance receives
  /// the batch's join order, and the bounded path skips its rank
  /// precondition for ids whose rank the maintenance itself creates.
  core::RecodeReport global_recolor(const net::AdhocNetwork& net,
                                    net::CodeAssignment& assignment,
                                    core::EventType event, net::NodeId subject,
                                    std::size_t batch_events = 1,
                                    std::span<const net::NodeId> joiners = {},
                                    std::span<const net::NodeId> reborn = {});

  /// The bounded path's propagation state: the pending ranks, the nodes
  /// whose color changed, the free-color scratch, and the pop count.
  ///
  /// Pending ranks live in a two-level bitmap over the ranks from `base` on:
  /// one bit per rank in `words`, and one bit per word in `summary`, set
  /// exactly while that word holds a pending rank.  Pops walk the set bits
  /// upward, so ranks come out ascending, and a repeated push merges into
  /// its bit.  The summary lets a pop skip 4,096 empty ranks per word read,
  /// so seeds spread across a large rank space cost no flat scan.  Every
  /// bit is clear between propagations.
  struct Frontier {
    std::uint32_t base = 0;   ///< rank of bit 0
    std::size_t cursor = 0;   ///< word index; no pending rank lies below it
    std::size_t pending = 0;  ///< set bits
    std::vector<std::uint64_t> words;
    std::vector<std::uint64_t> summary;
    std::vector<net::NodeId> changed;
    ColorScratch scratch;
    std::size_t processed = 0;

    /// Empties the change list and pop count and indexes the (clear)
    /// bitmap over ranks [first, last].
    void reset(std::uint32_t first, std::uint32_t last);
    void push(std::uint32_t rank);
    /// The lowest pending rank, removed; false when none is pending.
    bool pop(std::uint32_t& rank);
    /// Drops every pending rank (a bailout's leftovers).
    void clear();
  };

  /// Propagation from `live_dirty_` over the maintained ranks, writing
  /// event colors into the epoch-stamped overlays and the changed nodes into
  /// `frontier_.changed`.  Returns false when the pop count would exceed
  /// `budget` (the frontier then reflects exactly `budget` completed pops
  /// and no pending rank; the overlays carry partial writes the caller must
  /// treat as abandoned).
  bool propagate(const net::ConflictGraph& cg, std::size_t budget);

  /// The rank-bounded path (`Params::bounded_propagation`).  Returns false
  /// — without touching `assignment` — when the event can't be absorbed
  /// (unknown network, trimmed journal, mutated assignment, dirty set or
  /// propagation budget exceeded, rank drift demanding a rebuild); the
  /// caller then runs the from-scratch path, which reseeds the rank index.
  /// Never touches the full node set: per-event work is O(dirty + popped
  /// ranks · degree).
  bool bounded_recolor(const net::AdhocNetwork& net,
                       net::CodeAssignment& assignment,
                       core::RecodeReport& report, std::size_t batch_events,
                       std::span<const net::NodeId> joiners,
                       std::span<const net::NodeId> reborn);

  /// This event's working color of `v`: the propagation result when `v` was
  /// recomputed this event, the snapshot color otherwise.
  net::Color event_color(net::NodeId v) const {
    return v < event_color_epoch_.size() && event_color_epoch_[v] == epoch_
               ? event_colors_[v]
               : snapshot_color(v);
  }

  /// Records a bounded-mode from-scratch pass's output (colors + journal
  /// revision) as the base of the next event's bounded propagation.
  void snapshot(const net::AdhocNetwork& net,
                const std::vector<net::NodeId>& sequence,
                const net::CodeAssignment& assignment);

  net::Color snapshot_color(net::NodeId v) const {
    return v < last_colors_.size() ? last_colors_[v] : net::kNoColor;
  }

  ColoringOrder order_;
  Params params_;
  Counters counters_;

  // Bounded mode's previous output (valid when last_net_ != nullptr):
  // id-indexed colors plus the conflict-journal revision they correspond to.
  const net::AdhocNetwork* last_net_ = nullptr;
  std::uint64_t last_revision_ = 0;
  std::vector<net::Color> last_colors_;

  // Per-event scratch (reused across events; no per-node allocation).
  std::vector<net::NodeId> dirty_;
  std::vector<net::NodeId> nodes_;
  std::vector<net::NodeId> seq_;
  std::vector<net::Color> old_colors_;
  DegeneracyOrderer orderer_;

  // Rank-bounded propagation scratch.  The epoch stamp makes per-event
  // resets O(1): a slot belongs to this event iff its stamp equals epoch_.
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> event_color_epoch_;  ///< event_colors_[v] valid
  std::vector<net::Color> event_colors_;
  std::vector<net::NodeId> live_dirty_;  ///< this event's live, ranked seeds
  Frontier frontier_;
};

}  // namespace minim::strategies
