#pragma once

/// \file bbb_batch_soak.hpp
/// \brief A 10^4-node batched oracle soak for rank-bounded BBB.
///
/// The small fuzz soaks (~120 live nodes) keep the whole maintained rank
/// space inside one 64x64-rank summary word of the bounded frontier.  This
/// soak grows the population past 10^4 nodes at sparse-churn's density —
/// mean out-degree ~12, where batches absorb on the bounded path — and
/// replays the stream through a batched `serve::AssignmentEngine` in
/// fixed-size batches.  After every batch it holds the assignment
/// bit-identical to a from-scratch `greedy_color_in_sequence` over the
/// strategy's maintained rank sequence, and it reports the strategy's
/// counters so a caller can pin how many ranks the frontier popped.
///
/// Colors alone cannot show that the frontier pops the same set of ranks:
/// an extra pop that recomputes an unchanged color is invisible to the
/// oracle, but it moves cost and, through the slack budget, bailout
/// decisions.  So the fixed-seed streams also pin exact counters.

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "event_fuzz.hpp"
#include "net/assignment.hpp"
#include "serve/engine.hpp"
#include "sim/workload.hpp"
#include "strategies/bbb.hpp"
#include "strategies/coloring.hpp"

namespace minim::test {

/// The live population the soak must hold once ramped.
inline constexpr std::size_t kLargeSoakLive = 10000;

/// The soak's event stream: the join/leave mix steers toward 10,400 nodes
/// on sparse-churn's field — `sim::make_large_n_params` at mean out-degree
/// ~12, uniform, with its range distribution.  The generator ramps by ~0.28
/// nodes per event, so 10^4 live nodes arrive after ~36,000 events; the
/// stream then churns above that for ~200 batches of 64.
inline FuzzConfig large_batch_soak_config() {
  FuzzConfig cfg;
  cfg.seed = 16001;
  cfg.events = 50000;
  cfg.target_live = 10400;
  const sim::WorkloadParams field =
      sim::make_large_n_params(cfg.target_live, 12.0, sim::Placement::kUniform);
  cfg.world = field.width;
  cfg.min_range = field.min_range;
  cfg.max_range = field.max_range;
  return cfg;
}

struct LargeBatchSoakOutcome {
  std::string message;  ///< empty = passed
  std::size_t batches = 0;
  /// Batches checked with at least `kLargeSoakLive` live nodes.
  std::size_t large_batches = 0;
  /// Batches absorbed on the bounded path right after a batch whose
  /// propagation bailed out on the slack budget.
  std::size_t absorbed_after_bailout = 0;
  strategies::BbbStrategy::Counters counters;
};

/// The bounded-mode fallbacks the four refusal reasons and the slack
/// bailouts account for; each fallback has exactly one reason, so this
/// equals `full_events`.
inline std::uint64_t fallback_reasons(
    const strategies::BbbStrategy::Counters& c) {
  return c.refused_unsynced + c.refused_half_dirty + c.refused_foreign +
         c.refused_drift + c.slack_bailouts;
}

/// Replays `cfg`'s stream in `batch`-event batches (64 is sparse-churn's
/// burst, 8 dense-churn's) through a batched engine running bounded BBB
/// with `params`, checking the oracle after every batch.
inline LargeBatchSoakOutcome run_large_batch_soak(
    const FuzzConfig& cfg, const strategies::BbbStrategy::Params& params,
    std::size_t batch = 64) {
  const sim::Trace trace = to_trace(generate_events(cfg));
  strategies::BbbStrategy bbb(strategies::ColoringOrder::kSmallestLast, params);
  serve::AssignmentEngine::Params engine_params;
  engine_params.width = cfg.world;
  engine_params.height = cfg.world;
  serve::AssignmentEngine engine(bbb, engine_params);

  LargeBatchSoakOutcome outcome;
  std::vector<net::NodeId> sequence;
  net::CodeAssignment oracle;
  bool bailed = false;
  for (std::size_t at = 0; at < trace.size(); at += batch) {
    const std::size_t take = std::min(batch, trace.size() - at);
    const strategies::BbbStrategy::Counters before = bbb.counters();
    engine.apply_batch({trace.data() + at, take});
    ++outcome.batches;
    const strategies::BbbStrategy::Counters& after = bbb.counters();
    const bool absorbed = after.bounded_events > before.bounded_events;
    if (bailed && absorbed) ++outcome.absorbed_after_bailout;
    bailed = after.slack_bailouts > before.slack_bailouts;

    const net::AdhocNetwork& net = engine.simulation().network();
    const net::CodeAssignment& colors = engine.simulation().assignment();
    if (net.node_count() >= kLargeSoakLive) ++outcome.large_batches;
    sequence.clear();
    for (net::NodeId v : bbb.orderer().ranked_sequence())
      if (v != net::kInvalidNode) sequence.push_back(v);
    const auto fail = [&](const std::string& what) {
      outcome.message = "batch " + std::to_string(outcome.batches) +
                        " (events [" + std::to_string(at) + ", " +
                        std::to_string(at + take) + ")): " + what;
      return outcome;
    };
    if (sequence.size() != net.node_count())
      return fail("maintained sequence does not cover the live set");
    oracle = net::CodeAssignment{};
    strategies::greedy_color_in_sequence(net, sequence, oracle);
    for (net::NodeId v : sequence) {
      if (colors.color(v) != oracle.color(v))
        return fail("node " + std::to_string(v) + " color " +
                    std::to_string(colors.color(v)) + " != oracle " +
                    std::to_string(oracle.color(v)));
    }
  }
  outcome.counters = bbb.counters();
  EXPECT_EQ(fallback_reasons(outcome.counters), outcome.counters.full_events);
  return outcome;
}

/// The production-params stream's counters.
inline strategies::BbbStrategy::Counters large_soak_production_counters() {
  strategies::BbbStrategy::Counters c;
  c.events = 50000;
  c.bounded_events = 47632;
  c.full_events = 37;
  c.processed_ranks = 1782411;
  c.full_ranks = 97444;
  c.slack_bailouts = 0;
  c.refused_unsynced = 1;
  c.refused_half_dirty = 1;
  c.refused_foreign = 0;
  c.refused_drift = 35;
  return c;
}

inline void expect_counters_eq(const strategies::BbbStrategy::Counters& got,
                               const strategies::BbbStrategy::Counters& want) {
  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.bounded_events, want.bounded_events);
  EXPECT_EQ(got.full_events, want.full_events);
  EXPECT_EQ(got.processed_ranks, want.processed_ranks);
  EXPECT_EQ(got.full_ranks, want.full_ranks);
  EXPECT_EQ(got.slack_bailouts, want.slack_bailouts);
  EXPECT_EQ(got.refused_unsynced, want.refused_unsynced);
  EXPECT_EQ(got.refused_half_dirty, want.refused_half_dirty);
  EXPECT_EQ(got.refused_foreign, want.refused_foreign);
  EXPECT_EQ(got.refused_drift, want.refused_drift);
}

}  // namespace minim::test
