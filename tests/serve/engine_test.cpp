// AssignmentEngine: the online serving core.  The load-bearing property is
// batch equivalence — feeding a recorded trace one event per `apply_batch`
// call must leave the network and assignment byte-identical to batch
// `apply_trace` on a fresh simulation.

#include "serve/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/constraints.hpp"
#include "sim/trace.hpp"
#include "strategies/bbb.hpp"
#include "strategies/factory.hpp"
#include "util/rng.hpp"

namespace minim::serve {
namespace {

/// Applies `event` as a one-event batch.
BatchReceipt apply_one(AssignmentEngine& engine, const sim::TraceEvent& event) {
  return engine.apply_batch({&event, 1});
}

/// A deterministic churn trace: ramp joins, then a mixed phase.
sim::Trace churn_trace(std::uint64_t seed, std::size_t ramp,
                       std::size_t events) {
  util::Rng rng(seed);
  sim::Trace trace;
  std::vector<std::size_t> live;
  std::size_t joined = 0;
  const auto join = [&] {
    sim::TraceEvent e;
    e.kind = sim::TraceEvent::Kind::kJoin;
    e.position = {rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
    e.range = rng.uniform(10.0, 30.0);
    live.push_back(joined++);
    trace.push_back(e);
  };
  for (std::size_t i = 0; i < ramp; ++i) join();
  for (std::size_t i = 0; i < events; ++i) {
    const double u = rng.uniform01();
    if (live.size() < 5 || u < 0.3) {
      join();
      continue;
    }
    const std::size_t slot = static_cast<std::size_t>(rng.below(live.size()));
    sim::TraceEvent e;
    e.node = live[slot];
    if (u < 0.5) {
      e.kind = sim::TraceEvent::Kind::kLeave;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(slot));
    } else if (u < 0.8) {
      e.kind = sim::TraceEvent::Kind::kMove;
      e.position = {rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
    } else {
      e.kind = sim::TraceEvent::Kind::kPower;
      e.range = rng.uniform(10.0, 30.0);
    }
    trace.push_back(e);
  }
  return trace;
}

TEST(AssignmentEngine, MatchesBatchApplyTraceExactly) {
  for (const char* strategy : {"minim", "cp", "bbb", "bbb-bounded"}) {
    const sim::Trace trace = churn_trace(2001, 40, 300);

    AssignmentEngine engine{std::string(strategy)};
    for (const sim::TraceEvent& event : trace) apply_one(engine, event);

    core::StrategyPtr batch_strategy = strategies::make_strategy(strategy);
    sim::Simulation batch(*batch_strategy);
    sim::apply_trace(trace, batch);

    // Identical totals, population, and every per-node color.
    EXPECT_EQ(engine.simulation().totals().events, batch.totals().events)
        << strategy;
    EXPECT_EQ(engine.simulation().totals().recodings,
              batch.totals().recodings)
        << strategy;
    EXPECT_EQ(engine.simulation().max_color(), batch.max_color()) << strategy;
    std::vector<net::NodeId> served = engine.simulation().network().nodes();
    std::vector<net::NodeId> batched = batch.network().nodes();
    std::sort(served.begin(), served.end());
    std::sort(batched.begin(), batched.end());
    ASSERT_EQ(served, batched) << strategy;
    for (net::NodeId v : served)
      EXPECT_EQ(engine.simulation().assignment().color(v),
                batch.assignment().color(v))
          << strategy << " node " << v;
  }
}

TEST(AssignmentEngine, ReceiptsDescribeEachEvent) {
  AssignmentEngine engine{std::string("minim")};

  sim::TraceEvent join;
  join.kind = sim::TraceEvent::Kind::kJoin;
  join.position = {10, 10};
  join.range = 20;
  const BatchReceipt first = apply_one(engine, join);
  ASSERT_EQ(first.outcomes.size(), 1u);
  EXPECT_EQ(first.first_seq, 1u);
  EXPECT_EQ(first.outcomes[0].kind, sim::TraceEvent::Kind::kJoin);
  EXPECT_EQ(first.outcomes[0].node, 0u);
  EXPECT_EQ(first.outcomes[0].recoded, 1u);  // the joiner gets its first code
  EXPECT_EQ(first.outcomes[0].live_nodes, 1u);
  EXPECT_TRUE(first.outcomes[0].exact);
  EXPECT_FALSE(first.fallback);
  EXPECT_EQ(first.outcomes[0].max_color, 1u);

  join.position = {12, 10};
  const BatchReceipt second = apply_one(engine, join);
  EXPECT_EQ(second.first_seq, 2u);
  EXPECT_EQ(second.outcomes[0].node, 1u);
  EXPECT_EQ(second.outcomes[0].live_nodes, 2u);
  // CA1: neighbors need distinct codes
  EXPECT_EQ(second.outcomes[0].max_color, 2u);

  sim::TraceEvent leave;
  leave.kind = sim::TraceEvent::Kind::kLeave;
  leave.node = 0;
  const BatchReceipt third = apply_one(engine, leave);
  EXPECT_EQ(third.first_seq, 3u);
  EXPECT_EQ(third.outcomes[0].node, 0u);
  EXPECT_EQ(third.outcomes[0].live_nodes, 1u);
  EXPECT_EQ(engine.events_served(), 3u);
}

TEST(AssignmentEngine, RejectsBadReferencesWithoutStateDamage) {
  AssignmentEngine engine{std::string("minim")};
  sim::TraceEvent join;
  join.kind = sim::TraceEvent::Kind::kJoin;
  join.position = {10, 10};
  join.range = 20;
  apply_one(engine, join);

  sim::TraceEvent bad;
  bad.kind = sim::TraceEvent::Kind::kLeave;
  bad.node = 7;  // never joined
  EXPECT_THROW(apply_one(engine, bad), std::invalid_argument);
  EXPECT_EQ(engine.events_served(), 1u);  // the rejected event never counted
  EXPECT_TRUE(engine.is_live(0));

  bad.node = 0;
  apply_one(engine, bad);  // leave 0
  EXPECT_THROW(apply_one(engine, bad), std::invalid_argument);  // already left
  EXPECT_THROW(engine.code_of(0), std::invalid_argument);
  EXPECT_THROW(engine.conflicts_of(7), std::invalid_argument);
}

TEST(AssignmentEngine, ConflictsMatchTheConstraintOracle) {
  AssignmentEngine engine{std::string("minim")};
  const sim::Trace trace = churn_trace(7, 30, 120);
  for (const sim::TraceEvent& event : trace) apply_one(engine, event);

  // For every live join index, conflicts_of must agree with the net-layer
  // conflict_partners oracle mapped through the engine's own naming.
  std::size_t checked = 0;
  for (std::size_t node = 0; node < engine.joined(); ++node) {
    if (!engine.is_live(node)) continue;
    const std::vector<std::size_t> got = engine.conflicts_of(node);
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
    // Symmetry: conflict is a mutual relation under join-order naming.
    for (std::size_t partner : got) {
      const std::vector<std::size_t> back = engine.conflicts_of(partner);
      EXPECT_TRUE(std::binary_search(back.begin(), back.end(), node))
          << node << " <-> " << partner;
    }
    checked += got.size();
  }
  EXPECT_GT(checked, 0u) << "trace produced no conflicts to check";
}

TEST(AssignmentEngine, FallbackFlagTracksBoundedStrategyCounters) {
  strategies::BbbStrategy::Params params;
  params.bounded_propagation = true;
  strategies::BbbStrategy bounded(strategies::ColoringOrder::kSmallestLast,
                                  params);
  AssignmentEngine engine(bounded);

  const sim::Trace trace = churn_trace(42, 50, 400);
  std::size_t flagged = 0;
  std::uint64_t counter_before = bounded.counters().full_events;
  for (const sim::TraceEvent& event : trace) {
    const BatchReceipt receipt = apply_one(engine, event);
    const std::uint64_t counter_after = bounded.counters().full_events;
    EXPECT_EQ(receipt.fallback, counter_after > counter_before)
        << "event " << receipt.first_seq;
    counter_before = counter_after;
    if (receipt.fallback) ++flagged;
  }
  EXPECT_EQ(flagged, bounded.counters().full_events);
}

TEST(AssignmentEngine, SummaryAndLatencyInstrumentation) {
  AssignmentEngine engine{std::string("minim")};
  const sim::Trace trace = churn_trace(3, 20, 60);
  std::size_t moves = 0;
  for (const sim::TraceEvent& event : trace) {
    apply_one(engine, event);
    if (event.kind == sim::TraceEvent::Kind::kMove) ++moves;
  }

  const AssignmentEngine::Summary s = engine.summary();
  EXPECT_EQ(s.events, trace.size());
  EXPECT_EQ(s.joined, engine.joined());
  EXPECT_GT(s.live, 0u);
  EXPECT_GE(s.joined, s.live);
  EXPECT_GT(s.distinct_colors, 0u);
  EXPECT_GE(s.max_color, 1u);

  EXPECT_EQ(engine.latency(sim::TraceEvent::Kind::kMove).count(), moves);
  EXPECT_EQ(engine.total_latency().count(), trace.size());
}

TEST(AssignmentEngine, ResetStartsAFreshSession) {
  AssignmentEngine engine{std::string("minim")};
  const sim::Trace trace = churn_trace(5, 10, 30);
  for (const sim::TraceEvent& event : trace) apply_one(engine, event);
  ASSERT_GT(engine.joined(), 0u);

  engine.reset();
  EXPECT_EQ(engine.joined(), 0u);
  EXPECT_EQ(engine.events_served(), 0u);
  EXPECT_EQ(engine.total_latency().count(), 0u);
  EXPECT_EQ(engine.summary().live, 0u);

  // The fresh session renames from zero and serves normally.
  sim::TraceEvent join;
  join.kind = sim::TraceEvent::Kind::kJoin;
  join.position = {1, 1};
  join.range = 5;
  EXPECT_EQ(apply_one(engine, join).outcomes.at(0).node, 0u);
}

/// A 4-cluster churn workload: clusters sit at distant corners, so a batch
/// touching several clusters dirties disjoint regions.
sim::Trace clustered_workload(std::size_t per_cluster, std::size_t churn,
                              std::uint64_t seed) {
  using Kind = sim::TraceEvent::Kind;
  const double cx[] = {10.0, 90.0, 10.0, 90.0};
  const double cy[] = {10.0, 10.0, 90.0, 90.0};
  util::Rng rng(seed);
  sim::Trace trace;
  for (std::size_t c = 0; c < 4; ++c) {
    for (std::size_t i = 0; i < per_cluster; ++i) {
      sim::TraceEvent e;
      e.kind = Kind::kJoin;
      e.position = {cx[c] + rng.uniform(-4.0, 4.0),
                    cy[c] + rng.uniform(-4.0, 4.0)};
      e.range = rng.uniform(4.0, 9.0);
      trace.push_back(e);
    }
  }
  for (std::size_t i = 0; i < churn; ++i) {
    sim::TraceEvent e;
    e.node = rng.below(4 * per_cluster);  // every join stays live
    if (rng.chance(0.5)) {
      e.kind = Kind::kPower;
      e.range = rng.uniform(4.0, 9.0);
    } else {
      e.kind = Kind::kMove;
      const std::size_t c = rng.below(4);
      e.position = {cx[c] + rng.uniform(-4.0, 4.0),
                    cy[c] + rng.uniform(-4.0, 4.0)};
    }
    trace.push_back(e);
  }
  return trace;
}

/// Applies `trace` in fixed-size batches; returns the receipts.
std::vector<BatchReceipt> drive(AssignmentEngine& engine,
                                const sim::Trace& trace, std::size_t batch) {
  std::vector<BatchReceipt> receipts;
  for (std::size_t at = 0; at < trace.size(); at += batch) {
    const std::size_t take = std::min(batch, trace.size() - at);
    receipts.push_back(engine.apply_batch({trace.data() + at, take}));
  }
  return receipts;
}

TEST(AssignmentEngine, InertRecolorThreadNamesServeSerially) {
  // `AssignmentEngine::Params::recolor_threads`,
  // `BbbStrategy::set_recolor_threads` and the `parallel_*` counters stay
  // only for perfbench.  Setting them must change nothing.
  strategies::BbbStrategy::Params bounded;
  bounded.bounded_propagation = true;
  // Keep every batch of the tight clusters on the bounded path.
  bounded.full_recolor_fraction = 1.1;
  bounded.propagation_slack = 1.0;
  using strategies::ColoringOrder;
  strategies::BbbStrategy reference_bbb(ColoringOrder::kSmallestLast, bounded);
  strategies::BbbStrategy params_bbb(ColoringOrder::kSmallestLast, bounded);
  strategies::BbbStrategy hook_bbb(ColoringOrder::kSmallestLast, bounded);
  hook_bbb.set_recolor_threads(4);
  AssignmentEngine::Params two_threads;
  two_threads.recolor_threads = 2;
  AssignmentEngine reference(reference_bbb);
  AssignmentEngine with_params(params_bbb, two_threads);
  AssignmentEngine with_hook(hook_bbb);

  const sim::Trace trace = clustered_workload(12, 512, 7401);
  const std::vector<BatchReceipt> want = drive(reference, trace, 64);
  ASSERT_GT(reference_bbb.counters().bounded_events, 0u);
  for (auto* engine : {&with_params, &with_hook}) {
    const std::vector<BatchReceipt> got = drive(*engine, trace, 64);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].events, want[i].events) << "batch " << i;
      EXPECT_EQ(got[i].recoded, want[i].recoded) << "batch " << i;
      EXPECT_EQ(got[i].repairs, want[i].repairs) << "batch " << i;
      EXPECT_EQ(got[i].coalesced, want[i].coalesced) << "batch " << i;
      EXPECT_EQ(got[i].fallback, want[i].fallback) << "batch " << i;
      EXPECT_EQ(got[i].max_color, want[i].max_color) << "batch " << i;
      EXPECT_EQ(got[i].live_nodes, want[i].live_nodes) << "batch " << i;
    }
    for (std::size_t node = 0; node < reference.joined(); ++node)
      EXPECT_EQ(engine->code_of(node), reference.code_of(node))
          << "join index " << node;
  }
  for (const auto* bbb : {&reference_bbb, &params_bbb, &hook_bbb}) {
    EXPECT_EQ(bbb->counters().parallel_events, 0u);
    EXPECT_EQ(bbb->counters().parallel_components, 0u);
    EXPECT_EQ(bbb->counters().parallel_demotions, 0u);
  }
}

TEST(BatchParallelServe, OwnedStrategyByNameMatchesSerial) {
  // The owned-by-name half of the guard above: an engine that builds
  // "bbb-bounded" itself, with the inert `Params::recolor_threads` set,
  // serves the final codes of a default engine.
  const sim::Trace trace = clustered_workload(10, 256, 7402);

  AssignmentEngine serial{std::string("bbb-bounded")};
  AssignmentEngine::Params params;
  params.recolor_threads = 2;
  AssignmentEngine with_params("bbb-bounded", params);

  drive(serial, trace, 128);
  drive(with_params, trace, 128);

  ASSERT_EQ(serial.joined(), with_params.joined());
  EXPECT_EQ(serial.summary().max_color, with_params.summary().max_color);
  for (std::size_t node = 0; node < serial.joined(); ++node) {
    ASSERT_EQ(serial.is_live(node), with_params.is_live(node));
    if (serial.is_live(node)) {
      EXPECT_EQ(serial.code_of(node), with_params.code_of(node))
          << "join index " << node;
    }
  }
}

TEST(AssignmentEngine, UnknownStrategyNameThrows) {
  EXPECT_THROW(AssignmentEngine{std::string("no-such-strategy")},
               std::invalid_argument);
}

}  // namespace
}  // namespace minim::serve
