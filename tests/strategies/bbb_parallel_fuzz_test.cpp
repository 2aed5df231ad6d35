// Differential fuzz soak for component-parallel bounded recoloring (the
// parallel-recolor tentpole): a batched engine running BbbStrategy with
// `recolor_threads` ∈ {2, 4} must stay BIT-IDENTICAL — colors, max color,
// and maintained rank sequence — to a twin engine at `recolor_threads` = 1
// fed the exact same batches.
//
// The claim is unconditional, not just for the no-fallback regime: every
// decision point is thread-count-independent by construction.  The closure
// walk caps at the propagation budget, so any batch the parallel pass
// absorbs the serial pass would have absorbed (it can pop at most
// |closure| ≤ budget nodes); a capped closure or single component demotes
// to the *same* serial frontier; and budget/drift/journal refusals fire on
// state the thread count never touches.  So production params — fallbacks,
// bailouts, drift rebuilds and all — must soak bit-identical too.
//
// Streams are ≥ 10^4 events (the ISSUE's soak floor) in random-size
// batches.  Clustered placement is the parallelism-friendly regime (the
// related power-control literature's Poisson-clustered networks): distant
// clusters make a batch's dirty regions naturally disjoint, which the soak
// asserts via the strategy's parallel_events counter.  Failures shrink to a
// 1-minimal event sequence via the shared event_fuzz ddmin shrinker.
//
// TenThousandNodeBatchesThreads2 runs the 10^4-node batched soak of
// tests/helpers/bbb_batch_soak.hpp at two threads: every batch equal to the
// greedy oracle over the maintained sequence, and the serial run's exact
// counters plus pinned parallel ones.

#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "../helpers/bbb_batch_soak.hpp"
#include "../helpers/event_fuzz.hpp"
#include "serve/engine.hpp"
#include "sim/trace.hpp"
#include "strategies/bbb.hpp"
#include "util/rng.hpp"

namespace minim::strategies {
namespace {

using minim::test::FuzzConfig;
using minim::test::FuzzEvent;
using minim::test::FuzzPlacement;
using minim::test::to_trace;

/// The maintained rank sequence with tombstones removed — identical batch
/// boundaries mean even the tombstone layout should agree, but the live
/// form is the invariant the bounded path depends on.
std::vector<net::NodeId> live_ranks(const BbbStrategy& bbb) {
  std::vector<net::NodeId> out;
  for (net::NodeId v : bbb.orderer().ranked_sequence())
    if (v != net::kInvalidNode) out.push_back(v);
  return out;
}

struct SoakOutcome {
  std::string message;  ///< empty = passed
  std::size_t batches = 0;
  BbbStrategy::Counters parallel_counters;
};

/// Replays `events` through twin batched engines — serial (threads=1) and
/// parallel (`threads`) — with identical random batch boundaries, comparing
/// colors, max color, and maintained ranks after every batch.
SoakOutcome run_soak(std::span<const FuzzEvent> events,
                     const BbbStrategy::Params& base_params,
                     std::size_t threads, std::size_t max_batch,
                     std::uint64_t boundary_seed) {
  const sim::Trace trace = to_trace(events);

  BbbStrategy::Params serial_params = base_params;
  serial_params.recolor_threads = 1;
  BbbStrategy::Params parallel_params = base_params;
  parallel_params.recolor_threads = threads;
  BbbStrategy serial_bbb(ColoringOrder::kSmallestLast, serial_params);
  BbbStrategy parallel_bbb(ColoringOrder::kSmallestLast, parallel_params);
  serve::AssignmentEngine serial(serial_bbb);
  serve::AssignmentEngine parallel(parallel_bbb);

  util::Rng rng(boundary_seed);
  SoakOutcome outcome;
  std::size_t at = 0;
  while (at < trace.size()) {
    // First batch forced to size 1 so both strategies seed their caches
    // from the identical from-scratch event.
    const std::size_t want =
        outcome.batches == 0 ? 1 : 1 + rng.below(max_batch);
    const std::size_t take = std::min(want, trace.size() - at);
    const std::span<const sim::TraceEvent> slice(trace.data() + at, take);
    serial.apply_batch(slice);
    parallel.apply_batch(slice);
    ++outcome.batches;

    const auto diverged = [&](const std::string& what) {
      outcome.message = "after batch " + std::to_string(outcome.batches) +
                        " (events [" + std::to_string(at) + ", " +
                        std::to_string(at + take) + ")), threads=" +
                        std::to_string(threads) + ": " + what;
    };
    for (std::size_t node = 0; node < serial.joined(); ++node) {
      if (!serial.is_live(node)) continue;
      if (serial.code_of(node) != parallel.code_of(node)) {
        diverged("color diverged at join index " + std::to_string(node) +
                 ": " + std::to_string(serial.code_of(node)) + " vs " +
                 std::to_string(parallel.code_of(node)));
        return outcome;
      }
    }
    if (serial.summary().max_color != parallel.summary().max_color) {
      diverged("max color diverged");
      return outcome;
    }
    if (live_ranks(serial_bbb) != live_ranks(parallel_bbb)) {
      diverged("maintained rank sequences diverged (serial full_events=" +
               std::to_string(serial_bbb.counters().full_events) +
               ", parallel full_events=" +
               std::to_string(parallel_bbb.counters().full_events) + ")");
      return outcome;
    }
    at += take;
  }
  outcome.parallel_counters = parallel_bbb.counters();
  return outcome;
}

/// Guards tuned to keep the soak on the bounded path (the regime where the
/// parallel pass actually runs): the dirty-fraction gate is disarmed —
/// batches routinely dirty most of a churning population — while the
/// propagation budget stays armed, so slack bailouts and drift rebuilds
/// still interleave.  ProductionParamsThreads4 covers the real gating.
BbbStrategy::Params bounded_params() {
  BbbStrategy::Params p;
  p.bounded_propagation = true;
  p.full_recolor_fraction = 1.1;
  p.propagation_slack = 1.0;
  return p;
}

/// Full soak entry point: run, and on failure shrink + log the minimal
/// repro before failing the test.  `require_parallel` asserts the
/// component-parallel pass engaged (clustered workloads must split).
void soak(const FuzzConfig& cfg, const BbbStrategy::Params& params,
          std::size_t threads, bool require_parallel,
          std::size_t max_batch = 64) {
  const std::vector<FuzzEvent> events = minim::test::generate_events(cfg);
  ASSERT_EQ(events.size(), cfg.events);
  const std::uint64_t boundary_seed = cfg.seed ^ 0x9e3779b97f4a7c15ull;
  const SoakOutcome outcome =
      run_soak(events, params, threads, max_batch, boundary_seed);
  if (outcome.message.empty()) {
    const BbbStrategy::Counters& c = outcome.parallel_counters;
    std::cout << "[ soak     ] threads=" << threads
              << " batches=" << outcome.batches
              << " parallel=" << c.parallel_events
              << " components=" << c.parallel_components
              << " demotions=" << c.parallel_demotions
              << " bounded=" << c.bounded_events << " full=" << c.full_events
              << "\n";
    if (require_parallel) {
      EXPECT_GT(c.parallel_events, 0u)
          << "component-parallel pass never engaged";
    }
    return;
  }

  const auto fails = [&](std::span<const FuzzEvent> candidate) {
    return !run_soak(candidate, params, threads, max_batch, boundary_seed)
                .message.empty();
  };
  const minim::test::ShrinkResult shrunk =
      minim::test::shrink_events(events, fails);
  const SoakOutcome minimal =
      run_soak(shrunk.events, params, threads, max_batch, boundary_seed);
  FAIL() << outcome.message << "\nshrunk to " << shrunk.events.size()
         << " events (" << shrunk.replays << " replays, "
         << (shrunk.minimal ? "1-minimal" : "replay budget hit")
         << "), failing with: " << minimal.message << "\n"
         << minim::test::format_repro(cfg, shrunk.events);
}

FuzzConfig config(FuzzPlacement placement, std::uint64_t seed,
                  std::size_t events = 10000) {
  FuzzConfig cfg;
  cfg.placement = placement;
  cfg.seed = seed;
  cfg.events = events;
  return cfg;
}

TEST(BbbParallelFuzz, ClusteredThreads2) {
  soak(config(FuzzPlacement::kClustered, 9301), bounded_params(), 2,
       /*require_parallel=*/true);
}

TEST(BbbParallelFuzz, ClusteredThreads4) {
  // Same stream as ClusteredThreads2: absorb/demote decisions are
  // thread-count-independent, so a stream that engages at 2 threads must
  // engage identically at 4.
  soak(config(FuzzPlacement::kClustered, 9301), bounded_params(), 4,
       /*require_parallel=*/true);
}

TEST(BbbParallelFuzz, UniformThreads4) {
  // Uniform placement: regions overlap more, so demotions dominate — the
  // soak pins that the demotion ladder itself is bit-exact.
  soak(config(FuzzPlacement::kUniform, 9303), bounded_params(), 4,
       /*require_parallel=*/false);
}

TEST(BbbParallelFuzz, ProductionParamsThreads4) {
  // Production guards armed: fallbacks, slack bailouts, and drift rebuilds
  // interleave with parallel absorption — and must land identically, since
  // every trigger reads state the thread count cannot influence.
  BbbStrategy::Params production;
  production.bounded_propagation = true;
  FuzzConfig cfg = config(FuzzPlacement::kClustered, 9304);
  cfg.storm_chance = 0.01;  // recolor storms force the whole ladder
  soak(cfg, production, 4, /*require_parallel=*/false);
}

TEST(BbbParallelFuzz, LargeBatchesThreads4) {
  // Serving-default batch sizes (up to 512) maximize per-batch dirty spread
  // — the component count's best case and the budget cap's worst case.
  soak(config(FuzzPlacement::kClustered, 9305, 6000), bounded_params(), 4,
       /*require_parallel=*/true, /*max_batch=*/512);
}

TEST(BbbParallelFuzz, TinyPopulationThreads2) {
  // Populations near zero: batches where everyone departs, single-node
  // components, reborn ids — the decomposer's degenerate inputs.
  FuzzConfig cfg = config(FuzzPlacement::kUniform, 9306, 4000);
  cfg.target_live = 12;
  soak(cfg, bounded_params(), 2, /*require_parallel=*/false);
}

TEST(BbbParallelFuzz, TenThousandNodeBatchesThreads2) {
  // The 10^4-node batched oracle soak at two recolor threads: every batch
  // bit-identical to a greedy over the maintained sequence, with the same
  // decisions and pops as the serial run, so the component frontiers
  // (each over its own rank span) pop exactly what the serial one would.
  BbbStrategy::Params params;
  params.bounded_propagation = true;
  params.recolor_threads = 2;
  const minim::test::LargeBatchSoakOutcome outcome =
      minim::test::run_large_batch_soak(minim::test::large_batch_soak_config(),
                                        params);
  ASSERT_EQ(outcome.message, "");
  BbbStrategy::Counters want = minim::test::large_soak_production_counters();
  want.parallel_events = 367;
  want.parallel_components = 10233;
  want.parallel_demotions = 378;
  minim::test::expect_counters_eq(outcome.counters, want);
}

}  // namespace
}  // namespace minim::strategies
