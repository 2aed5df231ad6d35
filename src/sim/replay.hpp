#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/strategy.hpp"
#include "net/assignment.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"
#include "sim/workload.hpp"

/// \file replay.hpp
/// \brief Replays a workload through one or many strategies and measures the
/// paper's metrics, separating the setup phase (joins) from the event phase
/// (power raises / movement rounds) so Δ-metrics can be computed.
///
/// ## Lockstep multi-strategy replay
///
/// The network's evolution under a workload is a pure function of the event
/// sequence — colors never influence topology.  The per-trial paired
/// comparison therefore does not need one network rebuild per strategy:
/// `replay_all` applies each event to a single shared network once and then
/// invokes every strategy on its own `CodeAssignment`.  Each strategy
/// observes exactly the (network, own-assignment) sequence a solo replay
/// would give it, so the outcomes are bit-identical to per-strategy
/// `replay` calls — the equivalence is locked down in
/// tests/sim/replay_all_test.cpp.  With k strategies this removes k-1 of
/// the k digraph/conflict-cache maintenance passes, which profiling showed
/// was the single largest cost of every figure sweep.

namespace minim::sim {

class ReplayArena;

/// Metrics of one (workload, strategy) replay.
struct RunOutcome {
  /// Global trial index within an `Experiment` (shard-independent); 0 for a
  /// bare replay.
  std::uint64_t trial = 0;
  // After phase 1 (the N joins; 0 for churn, which has no phased setup):
  double setup_max_color = 0;
  double setup_recodings = 0;
  // After phase 2 (power raises or movement rounds; equal to setup when the
  // workload has no phase 2):
  /// Full engine counters of the replay (per-type event/recoding breakdown).
  Totals totals;
  /// Network-wide max color at the end of the replay.
  net::Color max_color = net::kNoColor;

  // The paper's plot metrics, derived from the counters above (single
  // source of truth — there is no second stored copy to drift).
  double final_max_color() const { return static_cast<double>(max_color); }
  double total_recodings() const { return static_cast<double>(totals.recodings); }
  double messages() const { return static_cast<double>(totals.messages); }

  /// Fig 11/12's Δ(max color index assigned).
  double delta_max_color() const { return final_max_color() - setup_max_color; }
  /// Fig 11/12's Δ(total number of recodings).
  double delta_recodings() const { return total_recodings() - setup_recodings; }
};

/// Replays `workload` from an empty network.  `validate` asserts CA1/CA2
/// after every event (slower; tests only).  Passing an arena reuses its
/// engine state (network slots, grid cells, conflict rows, id buffer)
/// instead of reconstructing them — the outcome is bit-identical either
/// way, so per-trial strategy replays can share one arena.
RunOutcome replay(const Workload& workload, core::RecodingStrategy& strategy,
                  bool validate = false, ReplayArena* arena = nullptr);

/// Lockstep replay: one shared network evolution, every strategy repairing
/// its own assignment at each event.  `outcomes[i]` is bit-identical to
/// `replay(workload, *strategies[i], validate)`.  With `validate`, each
/// strategy's assignment is checked after every event, in strategy order.
std::vector<RunOutcome> replay_all(const Workload& workload,
                                   std::span<core::RecodingStrategy* const> strategies,
                                   bool validate = false,
                                   ReplayArena* arena = nullptr);

/// Reusable engine state for `replay`/`replay_all`.  One arena serves any
/// sequence of replays (any workload sizes, strategy counts, field
/// dimensions) from a single thread; the experiment engine keeps one per
/// worker so per-trial replays stop rebuilding the network from scratch.
class ReplayArena {
 public:
  ReplayArena() = default;
  ReplayArena(const ReplayArena&) = delete;
  ReplayArena& operator=(const ReplayArena&) = delete;

 private:
  friend std::vector<RunOutcome> replay_all(const Workload&,
                                            std::span<core::RecodingStrategy* const>,
                                            bool, ReplayArena*);
  net::AdhocNetwork network_;
  std::vector<net::CodeAssignment> assignments_;  ///< one lane per strategy
  std::vector<net::NodeId> ids_;
};

}  // namespace minim::sim
