// Differential fuzz soak for rank-bounded BBB (see strategies/bbb.hpp,
// "Rank-bounded propagation").  Three properties, checked after every event
// of every generated sequence:
//
//   1. Oracle bit-identity: bounded BBB's assignment equals a from-scratch
//      greedy over the orderer's *maintained* sequence — the equivalence the
//      rank-ordered propagation claims by construction.
//   2. Validity: the assignment satisfies CA1/CA2.
//   3. Quality: the maintained order's drift costs at most kMaxColorGap
//      colors over canonical (always-reordered) BBB on the same network —
//      the committed gap metric for the locality/quality trade.
//
// A failing sequence is delta-debugged to a 1-minimal repro and logged as
// replayable text (tests/helpers/event_fuzz.hpp).  The 10^4-node batched
// soaks at the end check property 1 after every batch instead, and pin the
// strategy's counters (tests/helpers/bbb_batch_soak.hpp).

#include <gtest/gtest.h>

#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "../helpers/bbb_batch_soak.hpp"
#include "../helpers/event_fuzz.hpp"
#include "net/constraints.hpp"
#include "net/network.hpp"
#include "strategies/bbb.hpp"
#include "strategies/coloring.hpp"

namespace {

using minim::net::AdhocNetwork;
using minim::net::CodeAssignment;
using minim::net::NodeId;
using minim::strategies::BbbStrategy;
using minim::strategies::ColoringOrder;
using minim::test::AppliedEvent;
using minim::test::FuzzConfig;
using minim::test::FuzzEvent;
using minim::test::FuzzKind;
using minim::test::FuzzPlacement;
using minim::test::kFuzzPassed;

/// The committed quality threshold: per event, bounded BBB may use at most
/// this many colors more than canonical BBB (whose smallest-last order is
/// recomputed from scratch every event).  The gap is the price of the
/// maintained order going stale between rebuilds — tombstones and appended
/// joiners drift it away from true smallest-last until the
/// `rank_rebuild_fraction` threshold forces a reseed.  Measured peak across
/// the soaks below (all seeds and placements, guards loosened so ~98% of
/// events take the bounded path): 5 colors, at ~120-node populations where
/// canonical BBB uses ~12-26 colors.  The soaks are deterministic, so 6
/// holds exactly; a real quality regression shows up as a jump past it.
constexpr minim::net::Color kMaxColorGap = 6;

/// Soak knobs: the fuzz populations are tiny (~120 nodes) compared to the
/// large-N regime the production defaults target, so a clustered placement
/// can dirty half the population in one event.  Loosen the fallback guards
/// here so the soaks spend their events in the bounded path — the code under
/// test — instead of falling back; `StrictParamFallbackInterleaving` below
/// keeps the production defaults to fuzz the fallback interleavings too.
BbbStrategy::Params bounded_params() {
  BbbStrategy::Params p;
  p.bounded_propagation = true;
  p.full_recolor_fraction = 0.9;
  p.propagation_slack = 1.0;
  return p;
}

BbbStrategy::Params strict_params() {
  BbbStrategy::Params p;
  p.bounded_propagation = true;
  return p;
}

struct SoakOutcome {
  std::size_t failed_event = kFuzzPassed;
  std::string message;
  minim::net::Color max_gap = 0;
  BbbStrategy::Counters counters;
  minim::strategies::DegeneracyOrderer::Counters order_counters;
};

/// Replays `events`, driving bounded BBB and canonical BBB over the shared
/// network with separate assignments, checking the three properties after
/// every event.  Deterministic: same events → same outcome.
SoakOutcome run_soak(const FuzzConfig& cfg, std::span<const FuzzEvent> events,
                     const BbbStrategy::Params& params = bounded_params()) {
  SoakOutcome outcome;
  CodeAssignment bounded_asg;
  CodeAssignment reference_asg;
  BbbStrategy bounded(ColoringOrder::kSmallestLast, params);
  BbbStrategy reference(ColoringOrder::kSmallestLast, BbbStrategy::Params{});
  CodeAssignment oracle_asg;
  std::vector<NodeId> oracle_seq;

  outcome.failed_event = minim::test::replay_events(
      cfg, events,
      [&](const AdhocNetwork& net, const AppliedEvent& applied,
          std::size_t index) {
        minim::core::RecodeReport bounded_report;
        minim::core::RecodeReport reference_report;
        switch (applied.kind) {
          case FuzzKind::kJoin:
            bounded_report = bounded.on_join(net, bounded_asg, applied.subject);
            reference_report =
                reference.on_join(net, reference_asg, applied.subject);
            break;
          case FuzzKind::kLeave:
            bounded_asg.clear(applied.subject);
            reference_asg.clear(applied.subject);
            bounded_report =
                bounded.on_leave(net, bounded_asg, applied.subject);
            reference_report =
                reference.on_leave(net, reference_asg, applied.subject);
            break;
          case FuzzKind::kMove:
            bounded_report = bounded.on_move(net, bounded_asg, applied.subject);
            reference_report =
                reference.on_move(net, reference_asg, applied.subject);
            break;
          case FuzzKind::kPower:
            bounded_report = bounded.on_power_change(
                net, bounded_asg, applied.subject, applied.old_range);
            reference_report = reference.on_power_change(
                net, reference_asg, applied.subject, applied.old_range);
            break;
        }

        // 1. Oracle: from-scratch greedy over the maintained sequence.
        oracle_seq.clear();
        for (NodeId v : bounded.orderer().ranked_sequence())
          if (v != minim::net::kInvalidNode) oracle_seq.push_back(v);
        if (oracle_seq.size() != net.node_count()) {
          outcome.message = "maintained sequence does not cover the live set";
          return false;
        }
        oracle_asg = CodeAssignment{};
        minim::strategies::greedy_color_in_sequence(net, oracle_seq,
                                                    oracle_asg);
        for (NodeId v : oracle_seq) {
          if (bounded_asg.color(v) != oracle_asg.color(v)) {
            outcome.message =
                "event " + std::to_string(index) + ": node " +
                std::to_string(v) + " color " +
                std::to_string(bounded_asg.color(v)) + " != oracle " +
                std::to_string(oracle_asg.color(v));
            return false;
          }
        }

        // 2. Validity.
        if (!minim::net::is_valid(net, bounded_asg)) {
          outcome.message =
              "event " + std::to_string(index) + ": invalid assignment";
          return false;
        }

        // 3. Quality gap vs canonical BBB.
        if (bounded_report.max_color_after >
            reference_report.max_color_after + kMaxColorGap) {
          outcome.message =
              "event " + std::to_string(index) + ": max color " +
              std::to_string(bounded_report.max_color_after) +
              " exceeds reference " +
              std::to_string(reference_report.max_color_after) + " by > " +
              std::to_string(kMaxColorGap);
          return false;
        }
        if (bounded_report.max_color_after > reference_report.max_color_after)
          outcome.max_gap = std::max(
              outcome.max_gap, static_cast<minim::net::Color>(
                                   bounded_report.max_color_after -
                                   reference_report.max_color_after));
        return true;
      });
  outcome.counters = bounded.counters();
  outcome.order_counters = bounded.orderer().counters();
  return outcome;
}

/// Full soak entry point: generate, run, and on failure shrink + log the
/// minimal repro before failing the test.
void soak(const FuzzConfig& cfg,
          const BbbStrategy::Params& params = bounded_params(),
          bool require_bounded_majority = true) {
  const std::vector<FuzzEvent> events = minim::test::generate_events(cfg);
  ASSERT_EQ(events.size(), cfg.events);
  const SoakOutcome outcome = run_soak(cfg, events, params);
  if (outcome.failed_event == kFuzzPassed) {
    std::cout << "[ soak     ] bounded=" << outcome.counters.bounded_events
              << " full=" << outcome.counters.full_events
              << " bailouts=" << outcome.counters.slack_bailouts
              << " max_gap=" << outcome.max_gap << "\n";
    // Every fallback counts exactly one reason.
    EXPECT_EQ(minim::test::fallback_reasons(outcome.counters),
              outcome.counters.full_events);
    // The soak must actually exercise the bounded path, not just fall back.
    if (require_bounded_majority) {
      EXPECT_GT(outcome.counters.bounded_events, outcome.counters.full_events)
          << "bounded path starved: " << outcome.counters.bounded_events
          << " bounded vs " << outcome.counters.full_events << " full events";
    }
    EXPECT_GT(outcome.order_counters.rank_updates, 0u);
    return;
  }

  const auto fails = [&cfg, &params](std::span<const FuzzEvent> candidate) {
    return run_soak(cfg, candidate, params).failed_event != kFuzzPassed;
  };
  const minim::test::ShrinkResult shrunk =
      minim::test::shrink_events(events, fails);
  const SoakOutcome minimal = run_soak(cfg, shrunk.events, params);
  FAIL() << outcome.message << "\nshrunk to " << shrunk.events.size()
         << " events (" << shrunk.replays << " replays, "
         << (shrunk.minimal ? "1-minimal" : "replay budget hit")
         << "), failing with: " << minimal.message << "\n"
         << minim::test::format_repro(cfg, shrunk.events);
}

FuzzConfig config(FuzzPlacement placement, std::uint64_t seed) {
  FuzzConfig cfg;
  cfg.placement = placement;
  cfg.seed = seed;
  cfg.events = 10000;
  return cfg;
}

TEST(BbbBoundedFuzz, UniformPlacement) {
  soak(config(FuzzPlacement::kUniform, 9101));
}

TEST(BbbBoundedFuzz, ClusteredPlacement) {
  soak(config(FuzzPlacement::kClustered, 9102));
}

TEST(BbbBoundedFuzz, PoissonDiskPlacement) {
  soak(config(FuzzPlacement::kPoissonDisk, 9103));
}

TEST(BbbBoundedFuzz, RecolorStormSchedule) {
  FuzzConfig cfg = config(FuzzPlacement::kClustered, 9104);
  cfg.storm_chance = 0.02;  // ~every 50th event starts an 8-24 event storm
  soak(cfg);
}

TEST(BbbBoundedFuzz, SecondSeedSweep) {
  for (const FuzzPlacement placement :
       {FuzzPlacement::kUniform, FuzzPlacement::kClustered,
        FuzzPlacement::kPoissonDisk}) {
    FuzzConfig cfg = config(placement, 9205);
    cfg.events = 4000;
    soak(cfg);
  }
}

TEST(BbbBoundedFuzz, StrictParamFallbackInterleaving) {
  // Production-default guards on the nastiest placement: most events fall
  // back (dirty regions span half the tiny population), which fuzzes the
  // bounded/full interleaving — clean bailouts, rank rebuilds mid-stream —
  // rather than bounded-path dominance.
  FuzzConfig cfg = config(FuzzPlacement::kClustered, 9105);
  cfg.events = 4000;
  soak(cfg, strict_params(), /*require_bounded_majority=*/false);
}

TEST(BbbBoundedFuzz, TinyPopulations) {
  // Populations near zero stress joiner-append and empty-window edges.
  FuzzConfig cfg = config(FuzzPlacement::kUniform, 9106);
  cfg.target_live = 8;
  cfg.events = 4000;
  soak(cfg);
}

// ------------------------------------------------ 10^4-node batched soaks

TEST(BbbBoundedFuzz, TenThousandNodeBatchesProductionParams) {
  // One summary word of the frontier covers 4,096 ranks.  The maintained
  // rank space passes that after ~15,000 events and spans three summary
  // words once the population holds 10^4 nodes.
  const minim::test::LargeBatchSoakOutcome outcome =
      minim::test::run_large_batch_soak(minim::test::large_batch_soak_config(),
                                        strict_params());
  ASSERT_EQ(outcome.message, "");
  EXPECT_GT(outcome.large_batches, 150u);
  minim::test::expect_counters_eq(outcome.counters,
                                  minim::test::large_soak_production_counters());
}

TEST(BbbBoundedFuzz, TenThousandNodeBatchesBailAndRecover) {
  // A budget of 64 x max(32, 0.008 x live) pops, ~5,300 at 10^4 nodes, sits
  // in the tail of the per-batch pop counts: some batches bail
  // mid-propagation, and the batches after them must absorb again from a
  // clean frontier.
  BbbStrategy::Params params = strict_params();
  params.propagation_slack = 0.008;
  const minim::test::LargeBatchSoakOutcome outcome =
      minim::test::run_large_batch_soak(minim::test::large_batch_soak_config(),
                                        params);
  ASSERT_EQ(outcome.message, "");
  EXPECT_GT(outcome.counters.slack_bailouts, 0u);
  EXPECT_GT(outcome.absorbed_after_bailout, 0u);
  BbbStrategy::Counters want;
  want.events = 50000;
  want.bounded_events = 41616;
  want.full_events = 131;
  want.processed_ranks = 1820041;
  want.full_ranks = 1071679;
  want.slack_bailouts = 97;
  want.refused_unsynced = 1;
  want.refused_half_dirty = 1;
  want.refused_drift = 32;
  minim::test::expect_counters_eq(outcome.counters, want);
  EXPECT_EQ(outcome.absorbed_after_bailout, 54u);
}

TEST(BbbBoundedFuzz, DenseChurnBatchesRefuseAsHalfDirty) {
  // dense-churn's shape at production params: ~300 nodes on 100x100 with
  // ranges 10-25, repaired in 8-event batches.  An 8-event burst usually
  // dirties more than half of the conflict graph, so the half-dirty check
  // refuses nearly every repair.
  minim::test::FuzzConfig cfg;
  cfg.seed = 16002;
  cfg.events = 6000;
  cfg.target_live = 300;
  cfg.min_range = 10.0;
  cfg.max_range = 25.0;
  const minim::test::LargeBatchSoakOutcome outcome =
      minim::test::run_large_batch_soak(cfg, strict_params(), 8);
  ASSERT_EQ(outcome.message, "");
  // 750 batches: the first repair has no snapshot, 25 absorb, and the
  // other 724 are refused as half-dirty, before any rank or color work.
  BbbStrategy::Counters want;
  want.events = 6000;
  want.bounded_events = 200;
  want.full_events = 725;
  want.processed_ranks = 3258;
  want.full_ranks = 200019;
  want.refused_unsynced = 1;
  want.refused_half_dirty = 724;
  minim::test::expect_counters_eq(outcome.counters, want);
}

// --------------------------------------------------------------- harness

TEST(EventFuzzHarness, ShrinkerFindsOneMinimalCore) {
  // Artificial property: fails iff the sequence holds >= 3 joins and >= 1
  // power event.  The 1-minimal core is exactly 3 joins + 1 power.
  FuzzConfig cfg = config(FuzzPlacement::kUniform, 42);
  cfg.events = 400;
  const std::vector<FuzzEvent> events = minim::test::generate_events(cfg);
  const auto fails = [](std::span<const FuzzEvent> seq) {
    std::size_t joins = 0;
    std::size_t powers = 0;
    for (const FuzzEvent& e : seq) {
      joins += e.kind == FuzzKind::kJoin;
      powers += e.kind == FuzzKind::kPower;
    }
    return joins >= 3 && powers >= 1;
  };
  ASSERT_TRUE(fails(events));
  const minim::test::ShrinkResult shrunk =
      minim::test::shrink_events(events, fails, 2000);
  EXPECT_TRUE(shrunk.minimal);
  EXPECT_EQ(shrunk.events.size(), 4u);
  EXPECT_TRUE(fails(shrunk.events));
}

TEST(EventFuzzHarness, ReproRoundTrips) {
  FuzzConfig cfg = config(FuzzPlacement::kClustered, 7);
  cfg.events = 50;
  const std::vector<FuzzEvent> events = minim::test::generate_events(cfg);
  const std::string text = minim::test::format_repro(cfg, events);
  const std::vector<FuzzEvent> parsed = minim::test::parse_repro(text);
  ASSERT_EQ(parsed.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(parsed[i].kind, events[i].kind) << i;
    EXPECT_EQ(parsed[i].pick, events[i].pick) << i;
    EXPECT_EQ(parsed[i].x, events[i].x) << i;
    EXPECT_EQ(parsed[i].y, events[i].y) << i;
    EXPECT_EQ(parsed[i].range, events[i].range) << i;
  }
}

TEST(EventFuzzHarness, GeneratorIsDeterministic) {
  const FuzzConfig cfg = config(FuzzPlacement::kPoissonDisk, 123);
  const auto a = minim::test::generate_events(cfg);
  const auto b = minim::test::generate_events(cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << i;
    EXPECT_EQ(a[i].pick, b[i].pick) << i;
    EXPECT_EQ(a[i].x, b[i].x) << i;
  }
}

}  // namespace
