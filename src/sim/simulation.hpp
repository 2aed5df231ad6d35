#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/strategy.hpp"
#include "net/assignment.hpp"
#include "net/network.hpp"
#include "sim/trace.hpp"

/// \file simulation.hpp
/// \brief Discrete-event simulation engine: applies reconfiguration events
/// to the network, invokes the recoding strategy, and accumulates the
/// paper's metrics.
///
/// Event semantics follow Section 2's model: events are sequenced (one at a
/// time); the physical change happens first, then the strategy repairs the
/// code assignment.  With `validate_after_each` the engine asserts CA1/CA2
/// validity after every event — the correctness-theorem soak used in tests.
///
/// `apply_batch` is the amortized path: when the strategy declares batched
/// repair equivalent to sequential repair (`supports_batch`), every network
/// mutation of the batch is applied first and ONE repair call covers them
/// all — one journal-coalesced dirty window, one rank-maintenance sync, one
/// propagation.  For history-dependent strategies it degrades to the exact
/// per-event loop, so callers batch unconditionally.

namespace minim::sim {

/// Where one batched event left the network.  On the per-event delivery
/// path these are exact post-THIS-event facts; on the coalesced path every
/// event reports the post-BATCH state (`exact` says which).
struct BatchEventOutcome {
  TraceEvent::Kind kind = TraceEvent::Kind::kJoin;
  std::size_t node = 0;      ///< join-order index of the subject
  std::size_t recoded = 0;   ///< exact: this event's recolors; else batch net
  net::Color max_color = net::kNoColor;
  std::size_t live_nodes = 0;
  bool exact = false;
};

/// What applying one batch did.
struct BatchResult {
  std::size_t events = 0;
  std::size_t recoded = 0;   ///< net recolors across the whole batch
  std::size_t repairs = 0;   ///< strategy repair invocations (1 if coalesced)
  bool coalesced = false;    ///< one repair covered the whole batch
  net::Color max_color = net::kNoColor;  ///< post-batch network-wide max
  std::size_t live_nodes = 0;            ///< post-batch population
  std::vector<BatchEventOutcome> outcomes;  ///< one per event, in order
};

/// Accumulated metric totals across all events applied so far.
struct Totals {
  std::size_t events = 0;
  std::size_t recodings = 0;        ///< the paper's "total number of recodings"
  std::size_t messages = 0;         ///< protocol messages (proto-backed runs)
  std::array<std::size_t, 5> events_by_type{};     ///< indexed by EventType
  std::array<std::size_t, 5> recodings_by_type{};  ///< indexed by EventType
};

/// Folds one event's report into `totals` — the single accounting
/// definition shared by `Simulation` and the lockstep `replay_all` lanes
/// (whose bit-identical-to-solo contract forbids two copies drifting).
void account_event(Totals& totals, const core::RecodeReport& report);

/// Throws std::logic_error when `assignment` violates CA1/CA2 or leaves a
/// live node uncolored — the per-event validation both engines share.
void validate_assignment(const net::AdhocNetwork& network,
                         const net::CodeAssignment& assignment);

class Simulation {
 public:
  struct Params {
    double width = 100.0;
    double height = 100.0;
    /// Throw std::logic_error if the assignment is invalid after any event.
    bool validate_after_each = false;
    /// Keep every RecodeReport (tests/examples; benches leave it off).
    bool keep_history = false;
  };

  /// The strategy is borrowed; it must outlive the simulation.
  explicit Simulation(core::RecodingStrategy& strategy);
  Simulation(core::RecodingStrategy& strategy, const Params& params);

  /// Applies a join and returns the new node's id.
  net::NodeId join(const net::NodeConfig& config);

  void leave(net::NodeId v);
  void move(net::NodeId v, util::Vec2 new_position);
  void change_power(net::NodeId v, double new_range);

  /// Applies a whole trace-event batch.  `by_join_order` is the caller's
  /// join-index → engine-id table (the `sim/trace` node-naming convention):
  /// non-join events resolve through it, joins append to it, and each
  /// outcome row names its subject by join index.  With a
  /// batch-capable strategy all network mutations are applied first and one
  /// `on_batch` repairs the final graph (for bounded BBB, one rank-bounded
  /// propagation seeded by every dirty node of the batch); otherwise events
  /// are delivered one at a time, bit-identical to calling
  /// join/leave/move/change_power in sequence.  References to out-of-range
  /// or departed entries throw std::invalid_argument — callers wanting
  /// all-or-nothing semantics validate before calling
  /// (serve::AssignmentEngine does).
  void apply_batch(std::span<const TraceEvent> events,
                   std::vector<net::NodeId>& by_join_order,
                   BatchResult& result);

  const net::AdhocNetwork& network() const { return network_; }
  const net::CodeAssignment& assignment() const { return assignment_; }
  net::Color max_color() const { return assignment_.max_color(); }

  const Totals& totals() const { return totals_; }
  const std::vector<core::RecodeReport>& history() const { return history_; }
  core::RecodingStrategy& strategy() { return *strategy_; }

 private:
  void account(const core::RecodeReport& report);
  /// Batch accounting: `events` each count toward events/events_by_type;
  /// the single report's recodings count once (they are the batch's NET
  /// color changes, attributed by type to the report's event — per-type
  /// recoding attribution is inherently per-event information the
  /// coalesced path does not have).
  void account_batch(std::span<const core::BatchedEvent> events,
                     const core::RecodeReport& report);
  void validate() const;

  core::RecodingStrategy* strategy_;  // borrowed, never null
  Params params_;
  net::AdhocNetwork network_;
  net::CodeAssignment assignment_;
  Totals totals_;
  std::vector<core::RecodeReport> history_;

  // apply_batch scratch (reused across batches).
  std::vector<core::BatchedEvent> batch_events_;
  std::vector<net::NodeId> batch_joiners_;
  std::vector<net::NodeId> batch_reborn_;
};

}  // namespace minim::sim
