#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/strategy.hpp"
#include "sim/simulation.hpp"
#include "sim/trace.hpp"
#include "util/latency_histogram.hpp"

/// \file engine.hpp
/// \brief The online assignment engine: a long-lived serving session.
///
/// Everything below sim/ is batch — generate a workload, replay it, write
/// CSVs — but the paper's minimal-recoding strategies exist because
/// reconfiguration happens *online* in a live network.  `AssignmentEngine`
/// wraps `sim::Simulation` + a recoding strategy behind a session API
/// measured the way a service is measured:
///
///   * `apply_batch(span<TraceEvent>) -> BatchReceipt` is the one way in:
///     it applies the events and reports what serving them cost — latency,
///     how many nodes were recolored, whether the bounded-recoloring path
///     fell back to a from-scratch recolor — plus one `sim::BatchEventOutcome`
///     row per event.  A one-event batch is the paper's one-at-a-time event
///     (Section 2): the same strategy calls, an exact row;
///   * read-side queries (`code_of`, `conflicts_of`, `summary`) answer
///     code-assignment questions between events;
///   * per-event-type `util::LatencyHistogram`s accumulate the latency
///     distribution (p50/p99/p99.9) without storing samples.
///
/// Nodes are named by join order (the `sim/trace` convention), so a session
/// is meaningful to a client that never sees internal node ids.  Applying a
/// recorded trace one event per batch leaves the engine in a state
/// byte-identical to batch `apply_trace` — the equivalence the serving tests
/// pin down.

namespace minim::serve {

/// What serving one batch cost.  `sim::BatchResult` carries the batch's
/// outcome rows (exact per-event rows on the per-event path, post-batch rows
/// on the coalesced path) and post-batch state; the receipt adds what the
/// simulation cannot know: sequence numbers, wall time and the fallback bit.
/// All-or-nothing: a batch containing any invalid reference is rejected up
/// front (std::invalid_argument) with the engine untouched, so `outcomes`
/// always covers every event.
struct BatchReceipt : sim::BatchResult {
  /// 1-based session sequence number of `outcomes[0]`; row i is
  /// `first_seq + i`.
  std::uint64_t first_seq = 0;
  std::uint64_t latency_ns = 0;  ///< wall time for the whole batch
  /// A rank-bounded strategy (bbb-bounded) fell back to a from-scratch
  /// recolor somewhere in the batch — the tail-latency event class
  /// (batch-level: per-event attribution does not exist on the coalesced
  /// path).
  bool fallback = false;
};

class AssignmentEngine {
 public:
  struct Params {
    double width = 100.0;
    double height = 100.0;
    /// Validate CA1/CA2 after every event (slow; tests and debugging).
    bool validate = false;
    /// Ignored.  perfbench/src/harness.cpp is its only writer; it goes with
    /// perfbench's `kRecolorThreads` in the next benchmark change (ROADMAP
    /// item 1).
    std::size_t recolor_threads = 1;
  };

  /// Owns the strategy, constructed by name via `strategies::make_strategy`
  /// (throws std::invalid_argument for unknown names).
  explicit AssignmentEngine(const std::string& strategy_name)
      : AssignmentEngine(strategy_name, Params()) {}
  AssignmentEngine(const std::string& strategy_name, const Params& params);
  /// Borrows `strategy` (must outlive the engine) — for tests that need to
  /// inspect a configured strategy instance.
  explicit AssignmentEngine(core::RecodingStrategy& strategy)
      : AssignmentEngine(strategy, Params()) {}
  AssignmentEngine(core::RecodingStrategy& strategy, const Params& params);

  /// Applies a batch of events and repairs the assignment — with a
  /// batch-capable strategy, one repair pass covers every event of a
  /// multi-event batch (see sim::Simulation::apply_batch).  Every node
  /// reference is validated (joins and leaves earlier in the batch count)
  /// BEFORE any mutation; an invalid reference throws std::invalid_argument
  /// and leaves the engine untouched — a rejected request is not a served
  /// event.  An empty batch is a no-op receipt.  Per-event latency
  /// histograms receive the batch's amortized per-event latency.
  BatchReceipt apply_batch(std::span<const sim::TraceEvent> events);

  // ------------------------------------------------------------- queries
  /// Nodes joined so far; join-order indices are [0, joined()).
  std::size_t joined() const { return by_join_order_.size(); }
  bool is_live(std::size_t node) const {
    return node < by_join_order_.size() && !departed_[node];
  }
  /// Current code of a live node (throws std::invalid_argument otherwise).
  net::Color code_of(std::size_t node) const;
  /// Join-order indices of every live node in conflict with `node`
  /// (ascending).  Throws std::invalid_argument for dead/unknown nodes.
  std::vector<std::size_t> conflicts_of(std::size_t node) const;

  struct Summary {
    std::size_t live = 0;
    std::size_t joined = 0;     ///< total joins ever (the index space)
    std::size_t events = 0;
    std::size_t recodings = 0;
    std::size_t distinct_colors = 0;
    net::Color max_color = net::kNoColor;
  };
  Summary summary() const;

  // ------------------------------------------------------- instrumentation
  /// Latency distribution of every event of `kind` served so far.
  const util::LatencyHistogram& latency(sim::TraceEvent::Kind kind) const {
    return latency_[static_cast<std::size_t>(kind)];
  }
  /// All four event-type histograms merged (allocation per call).
  util::LatencyHistogram total_latency() const;

  std::uint64_t events_served() const { return seq_; }
  const std::string& strategy_name() const { return strategy_name_; }
  const sim::Simulation& simulation() const { return *simulation_; }

  /// Ends the session and starts a fresh one on the same strategy/params:
  /// clears the network, the join-order index space, and the latency
  /// histograms.  (The strategy keeps its identity; its caches re-seed on
  /// the first event of the new session.)
  void reset();

 private:
  net::NodeId node_id_of(std::size_t node, const char* verb) const;

  Params params_;
  core::StrategyPtr owned_strategy_;        ///< null when borrowed
  core::RecodingStrategy* strategy_;        ///< never null
  std::string strategy_name_;
  std::optional<sim::Simulation> simulation_;
  std::vector<net::NodeId> by_join_order_;  ///< join index -> engine node id
  std::vector<char> departed_;              ///< by join index
  std::vector<std::size_t> join_index_of_;  ///< engine node id -> join index
  std::uint64_t seq_ = 0;
  std::array<util::LatencyHistogram, 4> latency_;  ///< by TraceEvent::Kind
};

}  // namespace minim::serve
