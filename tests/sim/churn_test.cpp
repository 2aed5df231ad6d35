// Continuous-time churn engine: determinism, rate sanity, equilibrium,
// validity under every strategy, and cap/sampling mechanics.

#include "sim/churn.hpp"

#include <gtest/gtest.h>

#include "strategies/factory.hpp"
#include "util/rng.hpp"

namespace {

using minim::sim::ChurnParams;
using minim::sim::ChurnResult;
using minim::sim::run_churn;
using minim::util::Rng;

ChurnParams small_params() {
  ChurnParams params;
  params.duration = 400.0;
  params.arrival_rate = 0.2;
  params.mean_lifetime = 150.0;
  params.move_rate = 0.02;
  params.power_rate = 0.01;
  params.sample_interval = 40.0;
  return params;
}

TEST(Churn, DeterministicGivenSeed) {
  const auto strategy_a = minim::strategies::make_strategy("minim");
  const auto strategy_b = minim::strategies::make_strategy("minim");
  Rng rng_a(42);
  Rng rng_b(42);
  const ChurnResult a = run_churn(small_params(), *strategy_a, rng_a);
  const ChurnResult b = run_churn(small_params(), *strategy_b, rng_b);
  EXPECT_EQ(a.totals.events, b.totals.events);
  EXPECT_EQ(a.totals.recodings, b.totals.recodings);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].nodes, b.samples[i].nodes);
    EXPECT_EQ(a.samples[i].max_color, b.samples[i].max_color);
  }
}

TEST(Churn, SamplesOnTheGrid) {
  const auto strategy = minim::strategies::make_strategy("minim");
  Rng rng(43);
  const ChurnParams params = small_params();
  const ChurnResult result = run_churn(params, *strategy, rng);
  ASSERT_FALSE(result.samples.empty());
  // duration / interval samples, first at t = interval.
  EXPECT_EQ(result.samples.size(),
            static_cast<std::size_t>(params.duration / params.sample_interval));
  for (std::size_t i = 0; i < result.samples.size(); ++i)
    EXPECT_DOUBLE_EQ(result.samples[i].time,
                     params.sample_interval * static_cast<double>(i + 1));
}

TEST(Churn, ArrivalCountNearExpectation) {
  const auto strategy = minim::strategies::make_strategy("minim");
  Rng rng(44);
  ChurnParams params = small_params();
  params.duration = 2000.0;
  const ChurnResult result = run_churn(params, *strategy, rng);
  using minim::core::EventType;
  const double joins = static_cast<double>(
      result.totals.events_by_type[static_cast<std::size_t>(EventType::kJoin)]);
  const double expected = params.arrival_rate * params.duration;  // 400
  EXPECT_NEAR(joins, expected, 4 * std::sqrt(expected));  // 4-sigma band
}

TEST(Churn, PopulationHoversAroundLittleLaw) {
  // Little's law equilibrium: N = arrival_rate * mean_lifetime = 30.
  const auto strategy = minim::strategies::make_strategy("minim");
  Rng rng(45);
  ChurnParams params = small_params();
  params.duration = 3000.0;
  const ChurnResult result = run_churn(params, *strategy, rng);
  double late_mean = 0;
  std::size_t count = 0;
  for (const auto& sample : result.samples) {
    if (sample.time < params.duration / 2) continue;  // warm-up
    late_mean += static_cast<double>(sample.nodes);
    ++count;
  }
  late_mean /= static_cast<double>(count);
  const double expected = params.arrival_rate * params.mean_lifetime;
  EXPECT_NEAR(late_mean, expected, expected * 0.35);
}

TEST(Churn, MaxNodesCapDropsArrivals) {
  const auto strategy = minim::strategies::make_strategy("minim");
  Rng rng(46);
  ChurnParams params = small_params();
  params.max_nodes = 10;
  params.arrival_rate = 1.0;
  params.duration = 500.0;
  const ChurnResult result = run_churn(params, *strategy, rng);
  EXPECT_GT(result.dropped_arrivals, 0u);
  EXPECT_LE(result.peak_nodes, 10u);
}

struct ChurnStrategyCase {
  const char* name;
  std::uint64_t seed;
};

// Names each case by its contents; gtest's default would print the raw
// bytes, string-literal address included, so the name changed per build.
void PrintTo(const ChurnStrategyCase& param, std::ostream* os) {
  *os << param.name << "_seed" << param.seed;
}

class ChurnStrategyTest : public ::testing::TestWithParam<ChurnStrategyCase> {};

TEST_P(ChurnStrategyTest, StaysValidThroughout) {
  const auto param = GetParam();
  const auto strategy = minim::strategies::make_strategy(param.name);
  Rng rng(param.seed);
  ChurnParams params = small_params();
  params.validate = true;  // throws on any mid-run violation
  const ChurnResult result = run_churn(params, *strategy, rng);
  EXPECT_TRUE(result.final_valid);
  EXPECT_GT(result.totals.events, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, ChurnStrategyTest,
    ::testing::Values(ChurnStrategyCase{"minim", 1}, ChurnStrategyCase{"cp", 2},
                      ChurnStrategyCase{"cp-exact", 3},
                      ChurnStrategyCase{"bbb", 4},
                      ChurnStrategyCase{"minim-cardinality", 5}));

TEST(Churn, MinimBeatsCpOnRecodingsOverLongRun) {
  ChurnParams params = small_params();
  params.duration = 1500.0;
  double minim_total = 0;
  double cp_total = 0;
  for (std::uint64_t seed : {7u, 8u, 9u}) {
    const auto minim = minim::strategies::make_strategy("minim");
    const auto cp = minim::strategies::make_strategy("cp");
    Rng rng_a(seed);
    Rng rng_b(seed);  // identical event randomness
    minim_total += static_cast<double>(run_churn(params, *minim, rng_a).totals.recodings);
    cp_total += static_cast<double>(run_churn(params, *cp, rng_b).totals.recodings);
  }
  EXPECT_LT(minim_total, cp_total);
}

TEST(Churn, InitialNodesSeedThePopulationBeforeTimeZero) {
  // A pre-populated run starts at `initial_nodes` and churns from there —
  // the large-N "leave/move/power on an n-node network" stage.
  const auto strategy = minim::strategies::make_strategy("minim");
  Rng rng(77);
  ChurnParams params = small_params();
  params.initial_nodes = 60;
  params.max_nodes = 120;
  const ChurnResult result = run_churn(params, *strategy, rng);
  ASSERT_FALSE(result.samples.empty());
  // The first sample (t = 40) still sees most of the seed population.
  EXPECT_GE(result.samples.front().nodes, 40u);
  EXPECT_GE(result.peak_nodes, 60u);
  // Seeded nodes leave like arrivals: with lifetime 150 over horizon 400,
  // a majority of the original 60 must have departed at least once.
  EXPECT_GE(result.totals.events_by_type[static_cast<std::size_t>(
                minim::core::EventType::kLeave)],
            20u);
}

TEST(Churn, InitialNodesAreDeterministicAndCapRespecting) {
  const auto strategy_a = minim::strategies::make_strategy("minim");
  const auto strategy_b = minim::strategies::make_strategy("minim");
  ChurnParams params = small_params();
  params.initial_nodes = 50;
  params.max_nodes = 30;  // cap below the seed count: the rest is dropped
  Rng rng_a(9);
  Rng rng_b(9);
  const ChurnResult a = run_churn(params, *strategy_a, rng_a);
  const ChurnResult b = run_churn(params, *strategy_b, rng_b);
  EXPECT_EQ(a.totals.events, b.totals.events);
  EXPECT_EQ(a.totals.recodings, b.totals.recodings);
  EXPECT_GE(a.dropped_arrivals, 20u);  // 50 seeds into a 30-node cap
  EXPECT_LE(a.peak_nodes, 30u);
}

TEST(Churn, RejectsBadParams) {
  const auto strategy = minim::strategies::make_strategy("minim");
  Rng rng(50);
  ChurnParams params = small_params();
  params.duration = 0;
  EXPECT_THROW(run_churn(params, *strategy, rng), std::invalid_argument);
  params = small_params();
  params.sample_interval = 0;
  EXPECT_THROW(run_churn(params, *strategy, rng), std::invalid_argument);
}

}  // namespace
