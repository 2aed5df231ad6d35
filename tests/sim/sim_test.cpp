// Workload generation, the simulation engine and replay metrics (grid
// determinism is tests/sim/experiment_test.cpp's).

#include <gtest/gtest.h>

#include "core/minim.hpp"
#include "net/constraints.hpp"
#include "sim/replay.hpp"
#include "sim/simulation.hpp"
#include "sim/workload.hpp"
#include "strategies/factory.hpp"
#include "util/rng.hpp"

namespace {

using minim::core::MinimStrategy;
using minim::net::NodeId;
using minim::sim::make_join_workload;
using minim::sim::make_move_workload;
using minim::sim::make_power_workload;
using minim::sim::replay;
using minim::sim::Simulation;
using minim::sim::Workload;
using minim::sim::WorkloadParams;
using minim::util::Rng;

// ---------------------------------------------------------------- workloads

TEST(Workload, JoinWorkloadRespectsParams) {
  Rng rng(1);
  WorkloadParams params;
  params.n = 50;
  params.min_range = 20.5;
  params.max_range = 30.5;
  const Workload w = make_join_workload(params, rng);
  EXPECT_EQ(w.joins.size(), 50u);
  EXPECT_TRUE(w.power_raises.empty());
  EXPECT_TRUE(w.move_rounds.empty());
  for (const auto& join : w.joins) {
    EXPECT_GE(join.position.x, 0.0);
    EXPECT_LE(join.position.x, 100.0);
    EXPECT_GE(join.range, 20.5);
    EXPECT_LT(join.range, 30.5);
  }
}

TEST(Workload, SameSeedSameWorkload) {
  WorkloadParams params;
  params.n = 30;
  Rng rng_a(7);
  Rng rng_b(7);
  const Workload a = make_join_workload(params, rng_a);
  const Workload b = make_join_workload(params, rng_b);
  for (std::size_t i = 0; i < a.joins.size(); ++i) {
    EXPECT_EQ(a.joins[i].position, b.joins[i].position);
    EXPECT_DOUBLE_EQ(a.joins[i].range, b.joins[i].range);
  }
}

TEST(Workload, PowerWorkloadRaisesHalfTheNodesDistinctly) {
  Rng rng(2);
  WorkloadParams params;
  params.n = 100;
  const Workload w = make_power_workload(params, 3.0, rng);
  EXPECT_EQ(w.power_raises.size(), 50u);
  std::vector<std::size_t> indices;
  for (const auto& raise : w.power_raises) {
    indices.push_back(raise.join_index);
    EXPECT_NEAR(raise.new_range, w.joins[raise.join_index].range * 3.0, 1e-9);
  }
  std::sort(indices.begin(), indices.end());
  EXPECT_TRUE(std::adjacent_find(indices.begin(), indices.end()) == indices.end());
}

TEST(Workload, PowerWorkloadRejectsShrinkFactor) {
  Rng rng(3);
  WorkloadParams params;
  EXPECT_THROW(make_power_workload(params, 0.5, rng), std::invalid_argument);
}

TEST(Workload, MoveWorkloadMovesEveryNodeEveryRound) {
  Rng rng(4);
  WorkloadParams params;
  params.n = 40;
  const Workload w = make_move_workload(params, 40.0, 3, rng);
  ASSERT_EQ(w.move_rounds.size(), 3u);
  for (const auto& round : w.move_rounds) {
    ASSERT_EQ(round.size(), 40u);
    for (std::size_t i = 0; i < round.size(); ++i) {
      EXPECT_EQ(round[i].join_index, i);  // "one by one" in join order
      EXPECT_GE(round[i].position.x, 0.0);
      EXPECT_LE(round[i].position.x, 100.0);
    }
  }
}

TEST(Workload, MoveDisplacementBounded) {
  // Between consecutive rounds a node moves at most maxdisp (pre-clamping;
  // clamping can only shorten the step).
  Rng rng(5);
  WorkloadParams params;
  params.n = 10;
  const double maxdisp = 15.0;
  const Workload w = make_move_workload(params, maxdisp, 4, rng);
  std::vector<minim::util::Vec2> pos;
  for (const auto& join : w.joins) pos.push_back(join.position);
  for (const auto& round : w.move_rounds)
    for (const auto& mv : round) {
      EXPECT_LE(minim::util::distance(pos[mv.join_index], mv.position),
                maxdisp + 1e-9);
      pos[mv.join_index] = mv.position;
    }
}

TEST(Workload, ZeroDisplacementMovesNowhere) {
  Rng rng(6);
  WorkloadParams params;
  params.n = 5;
  const Workload w = make_move_workload(params, 0.0, 2, rng);
  for (const auto& round : w.move_rounds)
    for (const auto& mv : round)
      EXPECT_EQ(mv.position, w.joins[mv.join_index].position);
}

// ---------------------------------------------------------------- engine

TEST(Simulation, TotalsAccumulatePerEventType) {
  MinimStrategy minim;
  Simulation::Params params;
  params.validate_after_each = true;
  Simulation simulation(minim, params);
  const NodeId a = simulation.join({{10, 10}, 20.0});
  const NodeId b = simulation.join({{20, 10}, 20.0});
  simulation.move(b, {25, 15});
  simulation.change_power(a, 30.0);
  simulation.change_power(a, 10.0);
  simulation.leave(b);

  const auto& totals = simulation.totals();
  EXPECT_EQ(totals.events, 6u);
  using minim::core::EventType;
  EXPECT_EQ(totals.events_by_type[static_cast<std::size_t>(EventType::kJoin)], 2u);
  EXPECT_EQ(totals.events_by_type[static_cast<std::size_t>(EventType::kMove)], 1u);
  EXPECT_EQ(totals.events_by_type[static_cast<std::size_t>(EventType::kPowerIncrease)], 1u);
  EXPECT_EQ(totals.events_by_type[static_cast<std::size_t>(EventType::kPowerDecrease)], 1u);
  EXPECT_EQ(totals.events_by_type[static_cast<std::size_t>(EventType::kLeave)], 1u);
  EXPECT_GE(totals.recodings, 2u);  // at least the two joins
}

TEST(Simulation, HistoryKeptWhenRequested) {
  MinimStrategy minim;
  Simulation::Params params;
  params.keep_history = true;
  Simulation simulation(minim, params);
  simulation.join({{10, 10}, 20.0});
  simulation.join({{20, 10}, 20.0});
  EXPECT_EQ(simulation.history().size(), 2u);
  Simulation bare(minim);
  bare.join({{10, 10}, 20.0});
  EXPECT_TRUE(bare.history().empty());
}

TEST(Simulation, MaxColorTracksAssignment) {
  MinimStrategy minim;
  Simulation simulation(minim);
  EXPECT_EQ(simulation.max_color(), minim::net::kNoColor);
  simulation.join({{10, 10}, 20.0});
  EXPECT_EQ(simulation.max_color(), 1u);
}

// ---------------------------------------------------------------- replay

TEST(Replay, JoinOnlyWorkloadHasEqualSetupAndFinal) {
  Rng rng(8);
  WorkloadParams params;
  params.n = 30;
  const Workload w = make_join_workload(params, rng);
  const auto strategy = minim::strategies::make_strategy("minim");
  const auto outcome = replay(w, *strategy, /*validate=*/true);
  EXPECT_EQ(outcome.setup_max_color, outcome.final_max_color());
  EXPECT_EQ(outcome.setup_recodings, outcome.total_recodings());
  EXPECT_EQ(outcome.delta_recodings(), 0.0);
}

TEST(Replay, PowerPhaseProducesNonNegativeDeltas) {
  Rng rng(9);
  WorkloadParams params;
  params.n = 40;
  const Workload w = make_power_workload(params, 3.0, rng);
  for (const char* name : {"minim", "cp"}) {
    const auto strategy = minim::strategies::make_strategy(name);
    const auto outcome = replay(w, *strategy, /*validate=*/true);
    EXPECT_GE(outcome.delta_recodings(), 0.0) << name;
    EXPECT_GE(outcome.delta_max_color(), 0.0) << name;
  }
}

TEST(Replay, SameWorkloadSameStrategyIsDeterministic) {
  Rng rng(10);
  WorkloadParams params;
  params.n = 25;
  const Workload w = make_move_workload(params, 30.0, 2, rng);
  const auto s1 = minim::strategies::make_strategy("minim");
  const auto s2 = minim::strategies::make_strategy("minim");
  const auto o1 = replay(w, *s1);
  const auto o2 = replay(w, *s2);
  EXPECT_EQ(o1.final_max_color(), o2.final_max_color());
  EXPECT_EQ(o1.total_recodings(), o2.total_recodings());
}

}  // namespace
