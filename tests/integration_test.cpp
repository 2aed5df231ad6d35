// Cross-module integration: long mixed-event soaks per strategy, the
// paper's headline comparisons at small scale, and gossip riding along with
// the event stream.

#include <gtest/gtest.h>

#include "net/constraints.hpp"
#include "net/partitions.hpp"
#include "sim/replay.hpp"
#include "sim/simulation.hpp"
#include "sim/workload.hpp"
#include "strategies/factory.hpp"
#include "strategies/gossip.hpp"
#include "util/rng.hpp"

namespace {

using minim::net::NodeId;
using minim::sim::Simulation;
using minim::util::Rng;

struct SoakParams {
  const char* strategy;
  std::uint64_t seed;
};

// Names each case by its contents; gtest's default would print the raw
// bytes, string-literal address included, so the name changed per build.
void PrintTo(const SoakParams& param, std::ostream* os) {
  *os << param.strategy << "_seed" << param.seed;
}

class StrategySoakTest : public ::testing::TestWithParam<SoakParams> {};

TEST_P(StrategySoakTest, TwoHundredMixedEventsStayValid) {
  const auto param = GetParam();
  Rng rng(param.seed);
  const auto strategy = minim::strategies::make_strategy(param.strategy);
  Simulation::Params sim_params;
  sim_params.validate_after_each = true;  // throws on any CA1/CA2 violation
  Simulation simulation(*strategy, sim_params);

  std::vector<NodeId> alive;
  for (int event = 0; event < 200; ++event) {
    const double dice = rng.uniform01();
    if (alive.size() < 10 || dice < 0.35) {
      alive.push_back(simulation.join(
          {{rng.uniform(0, 100), rng.uniform(0, 100)}, rng.uniform(15, 30)}));
    } else if (dice < 0.5) {
      const std::size_t pick = rng.below(alive.size());
      simulation.leave(alive[pick]);
      alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (dice < 0.75) {
      simulation.move(alive[rng.below(alive.size())],
                      {rng.uniform(0, 100), rng.uniform(0, 100)});
    } else {
      const NodeId v = alive[rng.below(alive.size())];
      simulation.change_power(
          v, simulation.network().config(v).range * rng.uniform(0.5, 2.0));
    }
  }
  EXPECT_EQ(simulation.totals().events, 200u);
  EXPECT_TRUE(minim::net::is_valid(simulation.network(), simulation.assignment()));
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategySoakTest,
    ::testing::Values(SoakParams{"minim", 1}, SoakParams{"minim", 2},
                      SoakParams{"minim-greedy", 3},
                      SoakParams{"minim-cardinality", 4}, SoakParams{"cp", 5},
                      SoakParams{"cp", 6}, SoakParams{"cp-lowest", 7},
                      SoakParams{"bbb", 8}, SoakParams{"bbb-dsatur", 9},
                      SoakParams{"bbb-identity", 10}));

// -------------------------------------------------- headline relations

TEST(HeadlineRelations, MinimRecodesLessThanCpOnJoinsOnAverage) {
  // Fig 10(b,c): Minim's per-event recoding count is the provable minimum
  // *for a given assignment state*.  Across a long event sequence the two
  // strategies' states diverge, so CP can occasionally edge out Minim on a
  // single run; the paper's claim (and this test) is about the average.
  double minim_total = 0;
  double cp_total = 0;
  for (std::uint64_t seed : {11u, 12u, 13u, 14u, 15u, 16u, 17u, 18u}) {
    Rng rng(seed);
    minim::sim::WorkloadParams params;
    params.n = 50;
    const auto workload = minim::sim::make_join_workload(params, rng);
    const auto minim_strategy = minim::strategies::make_strategy("minim");
    const auto cp_strategy = minim::strategies::make_strategy("cp");
    minim_total += minim::sim::replay(workload, *minim_strategy).total_recodings();
    cp_total += minim::sim::replay(workload, *cp_strategy).total_recodings();
  }
  EXPECT_LE(minim_total, cp_total);
}

TEST(HeadlineRelations, MinimMatchesBoundPerEventAgainstSharedState) {
  // The apples-to-apples version of minimality: starting from the *same*
  // assignment state, Minim's join recodes no more than CP's join.
  for (std::uint64_t seed : {111u, 112u, 113u, 114u}) {
    Rng rng(seed);
    minim::sim::WorkloadParams params;
    params.n = 40;
    const auto workload = minim::sim::make_join_workload(params, rng);
    const auto base = minim::strategies::make_strategy("minim");
    Simulation simulation(*base);
    for (std::size_t i = 0; i + 1 < workload.joins.size(); ++i)
      simulation.join(workload.joins[i]);

    // Fork the state, apply the last join under each strategy.
    auto net_m = simulation.network();
    auto asg_m = simulation.assignment();
    auto net_c = simulation.network();
    auto asg_c = simulation.assignment();
    const auto minim_strategy = minim::strategies::make_strategy("minim");
    const auto cp_strategy = minim::strategies::make_strategy("cp");
    const NodeId id_m = net_m.add_node(workload.joins.back());
    const auto report_m = minim_strategy->on_join(net_m, asg_m, id_m);
    const NodeId id_c = net_c.add_node(workload.joins.back());
    const auto report_c = cp_strategy->on_join(net_c, asg_c, id_c);
    EXPECT_LE(report_m.recodings(), report_c.recodings()) << "seed " << seed;
  }
}

TEST(HeadlineRelations, BbbRecodesVastlyMoreThanDistributed) {
  Rng rng(21);
  minim::sim::WorkloadParams params;
  params.n = 40;
  const auto workload = minim::sim::make_join_workload(params, rng);
  const auto minim_strategy = minim::strategies::make_strategy("minim");
  const auto bbb_strategy = minim::strategies::make_strategy("bbb");
  const auto minim_outcome = minim::sim::replay(workload, *minim_strategy);
  const auto bbb_outcome = minim::sim::replay(workload, *bbb_strategy);
  EXPECT_GT(bbb_outcome.total_recodings(), 2 * minim_outcome.total_recodings());
}

TEST(HeadlineRelations, BbbUsesFewestColorsOnJoins) {
  for (std::uint64_t seed : {31u, 32u, 33u}) {
    Rng rng(seed);
    minim::sim::WorkloadParams params;
    params.n = 60;
    const auto workload = minim::sim::make_join_workload(params, rng);
    const auto bbb = minim::strategies::make_strategy("bbb");
    const auto minim_s = minim::strategies::make_strategy("minim");
    const auto bbb_outcome = minim::sim::replay(workload, *bbb);
    const auto minim_outcome = minim::sim::replay(workload, *minim_s);
    EXPECT_LE(bbb_outcome.final_max_color(), minim_outcome.final_max_color())
        << "seed " << seed;
  }
}

TEST(HeadlineRelations, MinimPowerIncreaseRecodesLessThanCp) {
  // Fig 11(b,c): Minim recodes at most one node per power increase; CP can
  // recode a whole 2-hop group.  Summed over many raises Minim must not lose.
  for (std::uint64_t seed : {41u, 42u, 43u}) {
    Rng rng(seed);
    minim::sim::WorkloadParams params;
    params.n = 60;
    const auto workload = minim::sim::make_power_workload(params, 3.0, rng);
    const auto minim_strategy = minim::strategies::make_strategy("minim");
    const auto cp_strategy = minim::strategies::make_strategy("cp");
    const auto minim_outcome = minim::sim::replay(workload, *minim_strategy);
    const auto cp_outcome = minim::sim::replay(workload, *cp_strategy);
    EXPECT_LE(minim_outcome.delta_recodings(), cp_outcome.delta_recodings())
        << "seed " << seed;
  }
}

TEST(HeadlineRelations, LowerBoundHoldsForEveryStrategy) {
  // Lemma 4.1.1 is strategy-agnostic: ANY correct recoding after a join must
  // change at least sum(K_i - 1) in-neighbors plus the joiner.  Verify it on
  // CP and BBB too (Minim achieves it with equality; see minim_test).
  for (const char* name : {"minim", "cp", "cp-lowest", "cp-exact", "bbb"}) {
    Rng rng(1234);
    const auto strategy = minim::strategies::make_strategy(name);
    minim::net::AdhocNetwork net;
    minim::net::CodeAssignment asg;
    for (int i = 0; i < 45; ++i) {
      const NodeId id = net.add_node(
          {{rng.uniform(0, 100), rng.uniform(0, 100)}, rng.uniform(18, 30)});
      const std::size_t bound = minim::net::minimal_recoding_bound(net, asg, id);
      const auto report = strategy->on_join(net, asg, id);
      ASSERT_GE(report.recodings(), bound + 1) << name << " join " << i;
    }
  }
}

// -------------------------------------------------- gossip integration

TEST(GossipIntegration, CompactionAfterChurnReducesOrKeepsMaxColor) {
  Rng rng(51);
  const auto strategy = minim::strategies::make_strategy("minim");
  Simulation simulation(*strategy);
  std::vector<NodeId> alive;
  for (int i = 0; i < 60; ++i)
    alive.push_back(simulation.join(
        {{rng.uniform(0, 100), rng.uniform(0, 100)}, rng.uniform(15, 30)}));
  // Churn: half leave, colors get gappy.
  for (int i = 0; i < 30; ++i) {
    const std::size_t pick = rng.below(alive.size());
    simulation.leave(alive[pick]);
    alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  auto net = simulation.network();              // copies for compaction
  auto assignment = simulation.assignment();
  const auto before = assignment.max_color(net.nodes());
  const auto result = minim::strategies::gossip_compact(net, assignment);
  EXPECT_LE(result.max_color_after, before);
  EXPECT_TRUE(minim::net::is_valid(net, assignment));
}

}  // namespace
