#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/strategy.hpp"
#include "strategies/coloring.hpp"
#include "strategies/components.hpp"
#include "strategies/ordering.hpp"
#include "util/thread_pool.hpp"

/// \file bbb.hpp
/// \brief The BBB global baseline: recolor the whole network at every event.
///
/// The paper evaluates its distributed strategies against "a strategy that
/// uses a centralized coloring heuristic: the BBB algorithm of [7], to
/// recolor the entire network at every event".  BBB is near-optimal in max
/// color index (it ignores history and colors from scratch) but pathological
/// in #recodings, which is exactly the contrast Figures 10-12 show.
///
/// ## Dirty-region recoloring
///
/// Recoloring from scratch per event made BBB dominate every wall-clock
/// profile.  This implementation instead *replays* the from-scratch greedy
/// incrementally: it keeps the previous output (colors + ordering
/// positions), asks the network's cached conflict graph which nodes'
/// conflict neighborhoods changed since, and recomputes a node's color only
/// when its
/// adjacency changed, its relative order with a neighbor flipped, or an
/// earlier-ordered neighbor's color changed — classic change propagation
/// over the greedy's dependency order.  Every kept color provably equals
/// what the from-scratch greedy would assign, so reports and max colors are
/// bit-identical to the full recolor (the equivalence is soaked in
/// tests/strategies/bbb_incremental_test.cpp).  When the dirty set exceeds
/// `Params::full_recolor_fraction` of the network — or the journal window
/// is gone, or the order is DSATUR (whose dynamic ordering has no static
/// dependency structure) — it falls back to the from-scratch path.
///
/// ## Rank-bounded propagation
///
/// Dirty-region recoloring still *walks* the full stored order per event to
/// find the nodes worth recomputing — the last per-event O(n) term.  With
/// `Params::bounded_propagation` the walk disappears: the orderer maintains
/// a persistent rank index (see ordering.hpp), the event's journal-dirty
/// nodes seed a frontier of pending ranks — a two-level bitmap, one bit per
/// rank plus one summary bit per 64-rank word — and propagation pops ranks
/// in ascending order, recomputing a node's lowest-free color from its
/// earlier-ranked neighbors and pushing only the later-ranked neighbors of
/// nodes whose color actually changed.  The pop order guarantees every
/// earlier-ranked color read is final, so the result is bit-identical to a
/// from-scratch greedy over the *maintained* sequence (the fuzz harness in
/// tests/strategies/bbb_bounded_fuzz_test.cpp holds it to that per event).
/// The maintained sequence itself drifts from true smallest-last between
/// rebuilds; the coloring-quality cost of that drift is an explicit,
/// gated metric — not silent.  Work per event is O(popped ranks · degree),
/// capped at `Params::propagation_slack` × live nodes; exceeding the cap —
/// or any journal/drift fallback — runs the from-scratch path, which
/// reseeds the rank index.
///
/// ## Parallel recoloring (`Params::recolor_threads`)
///
/// A batch's dirty set often spans spatially distant regions whose
/// propagations cannot interact.  With `recolor_threads > 1` the bounded
/// path first decomposes the forward closure of the dirty seeds under
/// rank-increasing conflict edges into connected components
/// (strategies/components.hpp) and recolors each component on its own
/// thread.  Components share no conflict edge inside the closure and edges
/// leaving the closure reach only *earlier-ranked* colors — final for this
/// event, read-only everywhere — so per-component propagation writes
/// disjoint id slots of the shared epoch arrays, and the merged, id-sorted
/// change list is bit-identical to the serial pass regardless of thread
/// schedule.  The closure walk is capped at the propagation budget: a
/// closure within the budget proves the serial pass could not have hit its
/// slack bailout either, so threads=N and threads=1 take the *same*
/// absorb/fallback decisions on every event.  Each component frontier's
/// bitmap spans only its own ranks, from its lowest seed to its highest
/// member.  Demotion ladder: closure cap exceeded or a single component →
/// the serial frontier (this event stays bounded); serial
/// budget/drift/journal refusals → the from-scratch path,
/// exactly as before.  The fuzz harness in
/// tests/strategies/bbb_parallel_fuzz_test.cpp holds parallel ≡ serial to
/// bit-identical colors *and* maintained ranks across batched streams.

namespace minim::strategies {

class BbbStrategy final : public core::RecodingStrategy {
 public:
  /// Recoloring engine knobs; the defaults are the production behavior.
  struct Params {
    /// Dirty-region change propagation (bit-identical to full recolor).
    /// Disable to force the from-scratch path on every event — the
    /// reference the equivalence tests compare against.
    bool incremental = true;
    /// Fall back to a full recolor when more than this fraction of the
    /// live nodes had conflict-neighborhood changes.
    double full_recolor_fraction = 0.5;
    /// Serve the smallest-last ordering from the journal-synced
    /// `DegeneracyOrderer` (bit-identical to from-scratch
    /// `graph::smallest_last_order`).  Disable to recompute the ordering
    /// from an adjacency scan per event — the soak reference.
    bool incremental_order = true;
    /// The orderer's full-degree-rebuild threshold
    /// (`DegeneracyOrderer::Params::rebuild_fraction`).
    double order_rebuild_fraction = 0.25;
    /// Rank-bounded propagation: replace the per-event full-order walk with
    /// a rank-bitmap frontier over maintained ranks (smallest-last only;
    /// see the file comment).  Bit-identical to a from-scratch greedy over
    /// the maintained sequence; order *quality* may drift between rebuilds.
    bool bounded_propagation = false;
    /// Per-event propagation budget as a fraction of the live node count
    /// (floor 32 processed ranks).  Exceeding it abandons the event to the
    /// from-scratch path — the escape hatch for recolor storms.
    double propagation_slack = 0.25;
    /// The orderer's maintained-rank drift bound
    /// (`DegeneracyOrderer::Params::rank_rebuild_fraction`).
    double rank_rebuild_fraction = 0.25;
    /// Component-parallel bounded recoloring: decompose the batch's dirty
    /// closure into independent components and recolor them concurrently
    /// (see the file comment).  1 = serial (default), 0 = one thread per
    /// hardware core.  Results are bit-identical at every setting.
    std::size_t recolor_threads = 1;
  };

  /// Where bounded-mode events went (all zero unless `bounded_propagation`).
  struct Counters {
    std::uint64_t events = 0;          ///< recolor events served (any mode)
    std::uint64_t bounded_events = 0;  ///< absorbed by rank-bounded propagation
    std::uint64_t full_events = 0;     ///< fell back to the from-scratch path
    std::uint64_t processed_ranks = 0; ///< frontier pops across bounded events
    std::uint64_t full_ranks = 0;      ///< live nodes walked by full events
    std::uint64_t slack_bailouts = 0;  ///< budget exceeded mid-propagation
    // Component-parallel mode (zero unless `recolor_threads` resolves > 1).
    std::uint64_t parallel_events = 0;      ///< repairs absorbed component-parallel
    std::uint64_t parallel_components = 0;  ///< components recolored across them
    std::uint64_t parallel_demotions = 0;   ///< attempts demoted to the serial frontier
  };

  explicit BbbStrategy(ColoringOrder order = ColoringOrder::kSmallestLast)
      : BbbStrategy(order, Params{}) {}
  BbbStrategy(ColoringOrder order, Params params)
      : order_(order),
        params_(params),
        orderer_(DegeneracyOrderer::Params{params.incremental_order,
                                           params.order_rebuild_fraction,
                                           params.rank_rebuild_fraction}) {}

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

  /// Every BBB handler replays the from-scratch greedy over the *current*
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

  /// Re-targets `Params::recolor_threads` on a live strategy (the serving
  /// layer's tuning hook).  Takes effect from the next event; the worker
  /// pool is rebuilt lazily at the new size.
  void set_recolor_threads(std::size_t threads) {
    params_.recolor_threads = threads;
    pool_.reset();
  }

 private:
  static constexpr std::uint32_t kNoPos = static_cast<std::uint32_t>(-1);

  /// The coloring sequence of this event, served from the maintained
  /// orderer for smallest-last (when enabled) and from
  /// `coloring_sequence` otherwise.  Returns a reference to `seq_`.
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

  /// The dirty-region path.  Returns false — without touching `assignment`
  /// — when the cached state cannot prove equivalence (unknown network,
  /// trimmed journal, externally mutated assignment, dirty set too large);
  /// the caller then runs the from-scratch path.
  bool incremental_recolor(const net::AdhocNetwork& net,
                           net::CodeAssignment& assignment,
                           const std::vector<net::NodeId>& nodes,
                           core::RecodeReport& report);

  /// One propagation frontier's working state: the pending ranks, the nodes
  /// whose color changed, the free-color scratch, and the pop count.  The
  /// serial path owns one (`frontier_`); the parallel path one per
  /// component (`comp_frontiers_`) so threads never share frontier state.
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

  /// Propagation from `seeds` over the maintained ranks, writing event
  /// colors into the shared epoch-stamped overlays.  `last_rank` bounds
  /// every rank the propagation can reach.  Returns false when the pop
  /// count would exceed `budget` (frontier state then reflects exactly
  /// `budget` completed pops and no pending rank; the overlays carry
  /// partial writes the caller must treat as abandoned).  Thread-safe
  /// across *disjoint components*: all shared writes land at the frontier's
  /// own member ids.
  bool propagate(const net::ConflictGraph& cg, std::span<const net::NodeId> seeds,
                 std::uint32_t last_rank, std::size_t budget, Frontier& frontier);

  /// The component-parallel bounded pass: decompose `live_dirty_`'s forward
  /// closure (cap = `budget`), recolor each component on the pool, merge
  /// change lists into `changed_list_` and pop counts into `processed`.
  /// Returns false — demoting to the serial frontier — when the closure
  /// exceeds the budget or yields fewer than two components.
  bool parallel_propagate(const net::ConflictGraph& cg, std::size_t budget,
                          std::size_t& processed);

  /// `Params::recolor_threads` with 0 resolved to the hardware core count.
  std::size_t resolved_recolor_threads() const;
  /// Lazily builds the worker pool sized for `resolved_recolor_threads()`
  /// (the caller participates in `parallel_for`, so N-way concurrency needs
  /// N-1 workers).
  void ensure_pool();

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

  /// Records this event's output (colors + ordering positions + journal
  /// revision) as the base of the next event's change propagation.
  void snapshot(const net::AdhocNetwork& net,
                const std::vector<net::NodeId>& sequence,
                const net::CodeAssignment& assignment);

  net::Color snapshot_color(net::NodeId v) const {
    return v < last_colors_.size() ? last_colors_[v] : net::kNoColor;
  }

  ColoringOrder order_;
  Params params_;
  Counters counters_;

  // Previous output (valid when last_net_ != nullptr): id-indexed colors
  // and greedy-order positions, plus the conflict-journal revision they
  // correspond to.
  const net::AdhocNetwork* last_net_ = nullptr;
  std::uint64_t last_revision_ = 0;
  std::vector<net::Color> last_colors_;
  std::vector<std::uint32_t> last_pos_;

  // Per-event scratch (reused across events; no per-node allocation).
  std::vector<net::NodeId> dirty_;
  std::vector<net::NodeId> nodes_;
  std::vector<net::NodeId> seq_;
  std::vector<std::uint32_t> pos_;
  std::vector<net::Color> new_colors_;
  std::vector<std::uint8_t> adj_dirty_;
  std::vector<std::uint8_t> changed_;
  std::vector<net::Color> old_colors_;
  ColorScratch scratch_;
  DegeneracyOrderer orderer_;

  // Rank-bounded propagation scratch.  The epoch stamp makes per-event
  // resets O(1): a slot belongs to this event iff its stamp equals epoch_.
  // During a parallel pass the epoch arrays are shared across component
  // threads, but each thread writes only its own component's id slots (the
  // vectors are pre-sized before the fan-out, so no reallocation races).
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> event_color_epoch_;  ///< event_colors_[v] valid
  std::vector<net::Color> event_colors_;
  std::vector<net::NodeId> live_dirty_;   ///< this event's live, ranked seeds
  std::vector<net::NodeId> changed_list_; ///< merged changes, sorted for apply
  Frontier frontier_;                     ///< the serial propagation frontier

  // Component-parallel machinery (idle unless recolor_threads resolves > 1).
  DirtyComponents components_;
  std::vector<Frontier> comp_frontiers_;
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace minim::strategies
