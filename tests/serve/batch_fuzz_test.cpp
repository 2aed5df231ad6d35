// Differential fuzz soak for batched event application (satellite of the
// batching tentpole): an `AssignmentEngine` fed random-size batches through
// `apply_batch` must land in the same state as a twin engine fed the same
// events one per `apply_batch` call.
//
// Equivalence tiers, by strategy regime:
//
//   * minim (and any strategy without batched repair): `apply_batch`
//     degrades to the exact per-event loop, so everything — colors, totals,
//     per-event receipts — is bit-identical by construction.  The soak pins
//     the protocol plumbing (join-index naming, projection, accounting).
//   * bbb (unbounded): the final assignment is a pure function of the final
//     conflict graph, so one coalesced repair per batch is bit-identical to
//     sequential repair no matter where the batch boundaries fall.
//   * bbb-bounded, no-fallback params: while every event absorbs, the
//     maintained rank sequence evolves exactly as a sequential replay's
//     (tombstone-filtered), and colors are bit-identical.
//   * bbb-bounded, production params: fallbacks reseed the maintained order
//     at different times on the two paths, so colors may legitimately
//     differ — the soak holds validity (CA1/CA2) plus identical live sets
//     and conflict graphs instead.
//
// Streams are >= 10^4 events (the ISSUE's soak floor) with random batch
// boundaries; the FIRST batch is forced to size 1 so both engines seed
// their strategy caches from the identical from-scratch event.

#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "../helpers/event_fuzz.hpp"
#include "net/constraints.hpp"
#include "serve/engine.hpp"
#include "sim/trace.hpp"
#include "strategies/bbb.hpp"
#include "util/rng.hpp"

namespace minim::serve {
namespace {

using minim::test::FuzzConfig;
using minim::test::FuzzEvent;
using minim::test::FuzzPlacement;
using minim::test::to_trace;

enum class Equivalence {
  kBitIdentical,  ///< colors (and ranks, when available) must match exactly
  kValidOnly,     ///< CA1/CA2 validity + identical live set / conflict graph
};

/// Compares the two engines at a batch boundary.  Returns a failure
/// description, or empty when they agree at the required tier.
std::string compare_engines(const AssignmentEngine& sequential,
                            const AssignmentEngine& batched,
                            Equivalence tier) {
  if (sequential.joined() != batched.joined())
    return "joined() diverged: " + std::to_string(sequential.joined()) +
           " vs " + std::to_string(batched.joined());
  for (std::size_t node = 0; node < sequential.joined(); ++node) {
    if (sequential.is_live(node) != batched.is_live(node))
      return "liveness diverged at join index " + std::to_string(node);
    if (!sequential.is_live(node)) continue;
    if (sequential.conflicts_of(node) != batched.conflicts_of(node))
      return "conflict set diverged at join index " + std::to_string(node);
    if (tier == Equivalence::kBitIdentical &&
        sequential.code_of(node) != batched.code_of(node))
      return "color diverged at join index " + std::to_string(node) + ": " +
             std::to_string(sequential.code_of(node)) + " vs " +
             std::to_string(batched.code_of(node));
  }
  if (tier == Equivalence::kBitIdentical &&
      sequential.summary().max_color != batched.summary().max_color)
    return "max color diverged";
  if (!net::is_valid(batched.simulation().network(),
                     batched.simulation().assignment()))
    return "batched engine assignment violates CA1/CA2";
  return {};
}

/// The maintained rank sequence with tombstones removed — the only
/// sequential-vs-batched comparable form (batch absorption never appends
/// ids that joined and left within one batch, so raw tombstone layouts
/// legitimately differ).
std::vector<net::NodeId> live_ranks(const strategies::BbbStrategy& bbb) {
  std::vector<net::NodeId> out;
  for (net::NodeId v : bbb.orderer().ranked_sequence())
    if (v != net::kInvalidNode) out.push_back(v);
  return out;
}

struct SoakResult {
  std::size_t batches = 0;
  std::size_t coalesced = 0;  ///< batches the strategy repaired in one pass
  std::size_t events = 0;
};

/// Feeds `trace` to `sequential` one event at a time and to `batched` in
/// random-size batches (first batch forced to size 1), comparing at every
/// batch boundary.  `check_ranks` additionally requires the two borrowed
/// bounded strategies' maintained sequences to agree.
SoakResult run_soak(const sim::Trace& trace, AssignmentEngine& sequential,
                    AssignmentEngine& batched, Equivalence tier,
                    std::size_t max_batch, std::uint64_t boundary_seed,
                    const strategies::BbbStrategy* sequential_bbb = nullptr,
                    const strategies::BbbStrategy* batched_bbb = nullptr) {
  util::Rng rng(boundary_seed);
  SoakResult result;
  std::size_t at = 0;
  while (at < trace.size()) {
    const std::size_t want =
        result.batches == 0 ? 1 : 1 + rng.below(max_batch);
    const std::size_t take = std::min(want, trace.size() - at);
    const std::span<const sim::TraceEvent> slice(trace.data() + at, take);

    for (const sim::TraceEvent& event : slice)
      sequential.apply_batch({&event, 1});
    const BatchReceipt receipt = batched.apply_batch(slice);
    EXPECT_EQ(receipt.events, take);
    ++result.batches;
    result.events += take;
    if (receipt.coalesced) ++result.coalesced;

    const std::string diff = compare_engines(sequential, batched, tier);
    if (!diff.empty()) {
      ADD_FAILURE() << "after batch " << result.batches << " (events [" << at
                    << ", " << at + take << ")): " << diff;
      return result;
    }
    if (sequential_bbb != nullptr && batched_bbb != nullptr &&
        live_ranks(*sequential_bbb) != live_ranks(*batched_bbb)) {
      std::string seq_ranks, bat_ranks;
      for (net::NodeId v : live_ranks(*sequential_bbb))
        seq_ranks += std::to_string(v) + " ";
      for (net::NodeId v : live_ranks(*batched_bbb))
        bat_ranks += std::to_string(v) + " ";
      ADD_FAILURE() << "after batch " << result.batches
                    << ": maintained rank sequences diverged\n  sequential: "
                    << seq_ranks << " (full_events="
                    << sequential_bbb->counters().full_events
                    << ")\n  batched:    " << bat_ranks << " (full_events="
                    << batched_bbb->counters().full_events << ")\n  batch was ["
                    << at << ", " << at + take << ")";
      return result;
    }
    at += take;
  }
  EXPECT_EQ(result.events, trace.size());
  return result;
}

sim::Trace fuzz_trace(FuzzPlacement placement, std::uint64_t seed,
                      std::size_t events, double storm_chance = 0.002) {
  FuzzConfig cfg;
  cfg.placement = placement;
  cfg.seed = seed;
  cfg.events = events;
  cfg.storm_chance = storm_chance;
  return to_trace(minim::test::generate_events(cfg));
}

/// Bounded-BBB params with every fallback trigger disarmed: the soak stays
/// on the absorb path, where batch absorption claims bit-identity.
strategies::BbbStrategy::Params no_fallback_params() {
  strategies::BbbStrategy::Params p;
  p.bounded_propagation = true;
  // The dirty set counts departed ids too, so a big batch over a tiny
  // population can exceed any O(1) multiple of the live count — only an
  // absurd threshold truly disarms the trigger.
  p.full_recolor_fraction = 1e9;
  p.propagation_slack = 1e9;       // never bail out on budget
  p.rank_rebuild_fraction = 1e9;   // never reseed on drift
  return p;
}

TEST(BatchFuzz, MinimExactPathBitIdentical) {
  const sim::Trace trace =
      fuzz_trace(FuzzPlacement::kUniform, 8101, 10000);
  AssignmentEngine sequential{std::string("minim")};
  AssignmentEngine batched{std::string("minim")};
  const SoakResult r = run_soak(trace, sequential, batched,
                                Equivalence::kBitIdentical, 64, 61);
  // No batched repair: every batch must have taken the per-event loop.
  EXPECT_EQ(r.coalesced, 0u);
  std::cout << "[ soak     ] minim batches=" << r.batches
            << " events=" << r.events << "\n";
}

TEST(BatchFuzz, BbbCoalescedBitIdentical) {
  const sim::Trace trace =
      fuzz_trace(FuzzPlacement::kClustered, 8102, 10000);
  AssignmentEngine sequential{std::string("bbb")};
  AssignmentEngine batched{std::string("bbb")};
  const SoakResult r = run_soak(trace, sequential, batched,
                                Equivalence::kBitIdentical, 64, 62);
  EXPECT_GT(r.coalesced, 0u) << "batched repair never engaged";
  std::cout << "[ soak     ] bbb batches=" << r.batches
            << " coalesced=" << r.coalesced << "\n";
}

TEST(BatchFuzz, BbbLargeBatchesBitIdentical) {
  // Batch sizes up to 512 (the serving default): the journal window must
  // keep covering whole batches, and a trimmed window must fall back to the
  // from-scratch path without losing equivalence.
  const sim::Trace trace =
      fuzz_trace(FuzzPlacement::kUniform, 8103, 10000, /*storm_chance=*/0.01);
  AssignmentEngine sequential{std::string("bbb")};
  AssignmentEngine batched{std::string("bbb")};
  const SoakResult r = run_soak(trace, sequential, batched,
                                Equivalence::kBitIdentical, 512, 63);
  EXPECT_GT(r.coalesced, 0u);
}

TEST(BatchFuzz, BoundedNoFallbackRanksAndColorsBitIdentical) {
  // The strongest claim: while every event absorbs, batch rank maintenance
  // (tombstone + join-order append, reborn blanking) reproduces the
  // sequential maintained sequence exactly, and so do the colors.
  const sim::Trace trace =
      fuzz_trace(FuzzPlacement::kClustered, 8104, 10000);
  strategies::BbbStrategy sequential_bbb(
      strategies::ColoringOrder::kSmallestLast, no_fallback_params());
  strategies::BbbStrategy batched_bbb(
      strategies::ColoringOrder::kSmallestLast, no_fallback_params());
  AssignmentEngine sequential(sequential_bbb);
  AssignmentEngine batched(batched_bbb);
  const SoakResult r =
      run_soak(trace, sequential, batched, Equivalence::kBitIdentical, 64, 64,
               &sequential_bbb, &batched_bbb);
  EXPECT_GT(r.coalesced, 0u);
  // The point of the soak is the absorb path; both engines must stay on it
  // after the seeding event.
  EXPECT_LE(batched_bbb.counters().full_events, 1u);
  EXPECT_LE(sequential_bbb.counters().full_events, 1u);
  std::cout << "[ soak     ] bounded batches=" << r.batches
            << " coalesced=" << r.coalesced
            << " bounded_events=" << batched_bbb.counters().bounded_events
            << "\n";
}

TEST(BatchFuzz, BoundedProductionParamsStayValid) {
  // Production guards: fallbacks reseed the maintained order at different
  // points on the two paths, so colors may differ — but every batch must
  // leave a CA1/CA2-valid assignment over the identical live set and
  // conflict graph.
  const sim::Trace trace = fuzz_trace(FuzzPlacement::kClustered, 8105, 10000,
                                      /*storm_chance=*/0.01);
  strategies::BbbStrategy::Params production;
  production.bounded_propagation = true;
  strategies::BbbStrategy sequential_bbb(
      strategies::ColoringOrder::kSmallestLast, production);
  strategies::BbbStrategy batched_bbb(strategies::ColoringOrder::kSmallestLast,
                                      production);
  AssignmentEngine sequential(sequential_bbb);
  AssignmentEngine batched(batched_bbb);
  const SoakResult r = run_soak(trace, sequential, batched,
                                Equivalence::kValidOnly, 64, 65);
  EXPECT_GT(r.coalesced, 0u);
}

TEST(BatchFuzz, SecondSeedSweep) {
  for (const FuzzPlacement placement :
       {FuzzPlacement::kUniform, FuzzPlacement::kPoissonDisk}) {
    const sim::Trace trace = fuzz_trace(placement, 8206, 4000);
    AssignmentEngine sequential{std::string("bbb")};
    AssignmentEngine batched{std::string("bbb")};
    run_soak(trace, sequential, batched, Equivalence::kBitIdentical, 64, 66);
  }
}

TEST(BatchFuzz, TinyPopulationsWithIdReuse) {
  // Near-zero populations maximize id reuse inside single batches (a join
  // reusing an id a leave freed earlier in the same batch) — the reborn
  // bookkeeping this soak exists to catch.
  FuzzConfig cfg;
  cfg.placement = FuzzPlacement::kUniform;
  cfg.seed = 8107;
  cfg.events = 6000;
  cfg.target_live = 8;
  const sim::Trace trace = to_trace(minim::test::generate_events(cfg));
  strategies::BbbStrategy sequential_bbb(
      strategies::ColoringOrder::kSmallestLast, no_fallback_params());
  strategies::BbbStrategy batched_bbb(
      strategies::ColoringOrder::kSmallestLast, no_fallback_params());
  AssignmentEngine sequential(sequential_bbb);
  AssignmentEngine batched(batched_bbb);
  run_soak(trace, sequential, batched, Equivalence::kBitIdentical, 32, 67,
           &sequential_bbb, &batched_bbb);
}

}  // namespace
}  // namespace minim::serve
