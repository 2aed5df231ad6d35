// BatchReceipt accounting (satellite of the batching tentpole): the
// per-batch receipt must add up — outcome rows cover every event, counts
// reconcile with the receipt totals, an empty batch is a no-op, and a batch
// containing any invalid reference is rejected whole with the engine
// untouched (std::invalid_argument).

#include "serve/engine.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sim/simulation.hpp"
#include "sim/trace.hpp"
#include "strategies/bbb.hpp"
#include "strategies/factory.hpp"

namespace minim::serve {
namespace {

sim::TraceEvent join_at(double x, double y, double range = 20.0) {
  sim::TraceEvent e;
  e.kind = sim::TraceEvent::Kind::kJoin;
  e.position = {x, y};
  e.range = range;
  return e;
}

sim::TraceEvent leave_of(std::size_t node) {
  sim::TraceEvent e;
  e.kind = sim::TraceEvent::Kind::kLeave;
  e.node = node;
  return e;
}

sim::TraceEvent move_of(std::size_t node, double x, double y) {
  sim::TraceEvent e;
  e.kind = sim::TraceEvent::Kind::kMove;
  e.node = node;
  e.position = {x, y};
  return e;
}

sim::TraceEvent power_of(std::size_t node, double range) {
  sim::TraceEvent e;
  e.kind = sim::TraceEvent::Kind::kPower;
  e.node = node;
  e.range = range;
  return e;
}

/// A small cluster where joins conflict (everyone within range of everyone).
std::vector<sim::TraceEvent> clustered_joins(std::size_t n) {
  std::vector<sim::TraceEvent> events;
  for (std::size_t i = 0; i < n; ++i)
    events.push_back(join_at(10.0 + static_cast<double>(i), 10.0));
  return events;
}

TEST(BatchReceipt, ExactPathOutcomesSumToReceipt) {
  // minim has no batched repair: the batch takes the per-event loop, so
  // every outcome is exact and their recode counts sum to the batch total.
  AssignmentEngine engine{std::string("minim")};
  const std::vector<sim::TraceEvent> events = clustered_joins(6);
  const BatchReceipt receipt = engine.apply_batch(events);

  EXPECT_EQ(receipt.events, events.size());
  EXPECT_FALSE(receipt.coalesced);
  EXPECT_EQ(receipt.repairs, events.size());
  ASSERT_EQ(receipt.outcomes.size(), events.size());
  std::size_t recoded = 0;
  EXPECT_EQ(receipt.first_seq, 1u);
  for (std::size_t i = 0; i < receipt.outcomes.size(); ++i) {
    const sim::BatchEventOutcome& outcome = receipt.outcomes[i];
    EXPECT_TRUE(outcome.exact) << i;
    EXPECT_EQ(outcome.node, i) << i;  // join order
    EXPECT_EQ(outcome.kind, sim::TraceEvent::Kind::kJoin) << i;
    EXPECT_EQ(outcome.live_nodes, i + 1) << "exact outcomes are post-THIS-event";
    recoded += outcome.recoded;
  }
  EXPECT_EQ(recoded, receipt.recoded);
  // The receipt's summary fields are the post-batch state.
  EXPECT_EQ(receipt.live_nodes, events.size());
  EXPECT_EQ(receipt.max_color, engine.summary().max_color);
  EXPECT_EQ(engine.events_served(), events.size());
}

TEST(BatchReceipt, CoalescedPathReportsBatchLevelOutcomes) {
  AssignmentEngine engine{std::string("bbb")};
  engine.apply_batch(clustered_joins(8));  // seed a population

  std::vector<sim::TraceEvent> batch;
  batch.push_back(move_of(0, 40, 40));
  batch.push_back(power_of(1, 5.0));
  batch.push_back(leave_of(2));
  batch.push_back(join_at(12, 11));
  const BatchReceipt receipt = engine.apply_batch(batch);

  EXPECT_TRUE(receipt.coalesced);
  EXPECT_EQ(receipt.repairs, 1u) << "one repair must cover the whole batch";
  ASSERT_EQ(receipt.outcomes.size(), batch.size());
  for (std::size_t i = 0; i < receipt.outcomes.size(); ++i) {
    const sim::BatchEventOutcome& outcome = receipt.outcomes[i];
    EXPECT_FALSE(outcome.exact) << i;
    // Post-batch values, identical across the batch's outcome rows.
    EXPECT_EQ(outcome.recoded, receipt.recoded) << i;
    EXPECT_EQ(outcome.max_color, receipt.max_color) << i;
    EXPECT_EQ(outcome.live_nodes, receipt.live_nodes) << i;
  }
  EXPECT_EQ(receipt.outcomes[0].kind, sim::TraceEvent::Kind::kMove);
  EXPECT_EQ(receipt.outcomes[2].kind, sim::TraceEvent::Kind::kLeave);
  EXPECT_EQ(receipt.outcomes[3].kind, sim::TraceEvent::Kind::kJoin);
  EXPECT_EQ(receipt.outcomes[3].node, 8u) << "the joiner's join-order index";
  EXPECT_EQ(receipt.live_nodes, 8u);  // 8 - 1 leave + 1 join
  EXPECT_EQ(engine.events_served(), 12u);
}

TEST(BatchReceipt, EmptyBatchIsANoOp) {
  AssignmentEngine engine{std::string("minim")};
  engine.apply_batch(clustered_joins(3));
  const AssignmentEngine::Summary before = engine.summary();

  const BatchReceipt receipt = engine.apply_batch({});
  EXPECT_EQ(receipt.events, 0u);
  EXPECT_EQ(receipt.recoded, 0u);
  EXPECT_EQ(receipt.repairs, 0u);
  EXPECT_TRUE(receipt.outcomes.empty());
  // The no-op still reports where the network stands.
  EXPECT_EQ(receipt.live_nodes, before.live);
  EXPECT_EQ(receipt.max_color, before.max_color);

  EXPECT_EQ(engine.events_served(), 3u) << "seq must not advance";
  EXPECT_EQ(engine.summary().events, before.events);
}

TEST(BatchReceipt, InvalidMidBatchRejectsWholeBatchUntouched) {
  for (const char* strategy : {"minim", "bbb"}) {
    AssignmentEngine engine{std::string(strategy)};
    engine.apply_batch(clustered_joins(4));
    const AssignmentEngine::Summary before = engine.summary();
    const net::Color color0 = engine.code_of(0);

    // Valid, valid, invalid (node 9 never joined), valid: all-or-nothing
    // means even the valid prefix must not land.
    std::vector<sim::TraceEvent> batch;
    batch.push_back(move_of(0, 50, 50));
    batch.push_back(power_of(1, 25.0));
    batch.push_back(leave_of(9));
    batch.push_back(move_of(2, 60, 60));
    EXPECT_THROW(engine.apply_batch(batch), std::invalid_argument) << strategy;

    EXPECT_EQ(engine.events_served(), 4u) << strategy;
    EXPECT_EQ(engine.summary().events, before.events) << strategy;
    EXPECT_EQ(engine.summary().live, before.live) << strategy;
    EXPECT_EQ(engine.code_of(0), color0) << strategy;
    EXPECT_TRUE(engine.is_live(0)) << strategy;
  }
}

TEST(BatchReceipt, ProjectionSeesJoinsAndLeavesWithinTheBatch) {
  AssignmentEngine engine{std::string("minim")};

  // A batch may reference a node that joins earlier in the SAME batch...
  std::vector<sim::TraceEvent> batch = clustered_joins(2);
  batch.push_back(move_of(1, 30, 30));  // node 1 joins at batch index 1
  const BatchReceipt receipt = engine.apply_batch(batch);
  EXPECT_EQ(receipt.events, 3u);
  EXPECT_EQ(receipt.outcomes[2].node, 1u);

  // ...and a node that leaves earlier in the same batch is gone for the
  // rest of it, even though it was live when the batch started.
  std::vector<sim::TraceEvent> dead_ref;
  dead_ref.push_back(leave_of(0));
  dead_ref.push_back(power_of(0, 10.0));
  EXPECT_THROW(engine.apply_batch(dead_ref), std::invalid_argument);
  EXPECT_TRUE(engine.is_live(0)) << "rejected batch must not apply its leave";
  EXPECT_EQ(engine.events_served(), 3u);
}

TEST(BatchReceipt, SeqContinuesAcrossBatchesAndSingles) {
  AssignmentEngine engine{std::string("minim")};
  const BatchReceipt first = engine.apply_batch(clustered_joins(3));
  EXPECT_EQ(first.first_seq, 1u);

  const sim::TraceEvent single = join_at(20, 20);
  EXPECT_EQ(engine.apply_batch({&single, 1}).first_seq, 4u);

  const BatchReceipt second = engine.apply_batch(clustered_joins(2));
  EXPECT_EQ(second.first_seq, 5u);
  EXPECT_EQ(second.outcomes.size(), 2u);
  EXPECT_EQ(engine.events_served(), 6u);
}

TEST(BatchReceipt, FallbackFlagTracksBoundedCounters) {
  // full_recolor_fraction = 0 forces every bounded event to the
  // from-scratch path: the batch-level fallback flag must be set.
  strategies::BbbStrategy::Params params;
  params.bounded_propagation = true;
  params.full_recolor_fraction = 0.0;
  strategies::BbbStrategy bounded(strategies::ColoringOrder::kSmallestLast,
                                  params);
  AssignmentEngine engine(bounded);

  const BatchReceipt receipt = engine.apply_batch(clustered_joins(5));
  EXPECT_TRUE(receipt.fallback);

  // A strategy with no fallback notion (minim) never sets the flag.
  AssignmentEngine plain{std::string("minim")};
  EXPECT_FALSE(plain.apply_batch(clustered_joins(5)).fallback);
}

TEST(BatchReceipt, LatencyHistogramsReceiveAmortizedPerEventSamples) {
  AssignmentEngine engine{std::string("bbb")};
  std::vector<sim::TraceEvent> batch = clustered_joins(4);
  batch.push_back(move_of(0, 15, 15));
  engine.apply_batch(batch);

  EXPECT_EQ(engine.latency(sim::TraceEvent::Kind::kJoin).count(), 4u);
  EXPECT_EQ(engine.latency(sim::TraceEvent::Kind::kMove).count(), 1u);
  EXPECT_EQ(engine.total_latency().count(), batch.size());
}

TEST(BatchReceipt, SingleEventBatchMatchesApplyExactly) {
  // A size-1 batch takes the exact per-event path even for batch-capable
  // strategies: its row must match `sim::apply_trace` (the sequential
  // join/leave/move/change_power calls) replaying the trace up to it.
  std::vector<sim::TraceEvent> events = clustered_joins(5);
  events.push_back(move_of(0, 40, 40));
  events.push_back(power_of(1, 5.0));
  events.push_back(leave_of(2));
  events.push_back(join_at(12, 11));

  AssignmentEngine engine{std::string("bbb")};
  std::size_t joins = 0;
  std::size_t recodings_before = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const BatchReceipt receipt = engine.apply_batch({&events[i], 1});
    const core::StrategyPtr strategy = strategies::make_strategy("bbb");
    sim::Simulation reference(*strategy);
    sim::apply_trace(sim::Trace(events.begin(), events.begin() + i + 1),
                     reference);
    const std::size_t node =
        events[i].kind == sim::TraceEvent::Kind::kJoin ? joins++
                                                        : events[i].node;

    ASSERT_EQ(receipt.outcomes.size(), 1u);
    const sim::BatchEventOutcome& outcome = receipt.outcomes[0];
    EXPECT_TRUE(outcome.exact) << i;
    EXPECT_FALSE(receipt.coalesced) << i;
    EXPECT_EQ(receipt.first_seq, i + 1) << i;
    EXPECT_EQ(outcome.kind, events[i].kind) << i;
    EXPECT_EQ(outcome.node, node) << i;
    EXPECT_EQ(outcome.recoded,
              reference.totals().recodings - recodings_before) << i;
    EXPECT_EQ(outcome.max_color, reference.max_color()) << i;
    EXPECT_EQ(outcome.live_nodes, reference.network().node_count()) << i;
    recodings_before = reference.totals().recodings;
  }
}

TEST(BatchReceipt, RejectedBatchWithAJoinRestoresTheIndexSpace) {
  // Validation marks joins and leaves in place as it walks the batch; a bad
  // reference after a join, a leave of that joiner and a leave of an older
  // node must undo all three marks.
  for (const char* strategy : {"minim", "bbb"}) {
    AssignmentEngine engine{std::string(strategy)};
    engine.apply_batch(clustered_joins(3));

    std::vector<sim::TraceEvent> batch;
    batch.push_back(join_at(30, 30));  // would be node 3
    batch.push_back(leave_of(3));
    batch.push_back(leave_of(1));
    batch.push_back(move_of(9, 50, 50));  // never joined
    EXPECT_THROW(engine.apply_batch(batch), std::invalid_argument) << strategy;

    EXPECT_EQ(engine.joined(), 3u) << strategy;
    for (std::size_t node = 0; node < 3; ++node)
      EXPECT_TRUE(engine.is_live(node)) << strategy << " node " << node;
    EXPECT_FALSE(engine.is_live(3)) << strategy;
    EXPECT_EQ(engine.events_served(), 3u) << strategy;

    // The next valid join gets the next index, and it is live.
    const sim::TraceEvent join = join_at(30, 30);
    const BatchReceipt receipt = engine.apply_batch({&join, 1});
    EXPECT_EQ(receipt.outcomes.at(0).node, 3u) << strategy;
    EXPECT_EQ(receipt.first_seq, 4u) << strategy;
    EXPECT_EQ(engine.joined(), 4u) << strategy;
    EXPECT_TRUE(engine.is_live(3)) << strategy;
    EXPECT_TRUE(engine.is_live(1)) << strategy;

    // No phantom join survived the rejection: a reference one past the last
    // join is still rejected before the valid event ahead of it lands.
    const std::size_t events_before = engine.summary().events;
    std::vector<sim::TraceEvent> past_end;
    past_end.push_back(move_of(0, 60, 60));
    past_end.push_back(move_of(4, 50, 50));
    EXPECT_THROW(engine.apply_batch(past_end), std::invalid_argument)
        << strategy;
    EXPECT_EQ(engine.summary().events, events_before) << strategy;
  }
}

}  // namespace
}  // namespace minim::serve
