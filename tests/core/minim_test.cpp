// The paper's theorems, executed: correctness (Thm 4.1.4), minimality
// (Lemma 4.1.1 + Thm 4.1.8), optimality among minimal strategies
// (Thm 4.1.9), old-color feasibility (Lemma 4.1.6), power-increase
// minimality (Thm 4.2.3), leave/decrease passivity (Thm 4.3.x) and the
// move equivalence (Thm 4.4.1).

#include "core/minim.hpp"

#include <gtest/gtest.h>

#include "../helpers.hpp"
#include "core/bipartite_builder.hpp"
#include "net/constraints.hpp"
#include "net/partitions.hpp"
#include "util/rng.hpp"

namespace {

using minim::core::build_recode_problem;
using minim::core::EventType;
using minim::core::MinimStrategy;
using minim::core::RecodeReport;
using minim::net::AdhocNetwork;
using minim::net::CodeAssignment;
using minim::net::Color;
using minim::net::minimal_recoding_bound;
using minim::net::NodeConfig;
using minim::net::NodeId;
using minim::test::build_world;
using minim::test::ExhaustiveAdversary;
using minim::test::World;
using minim::util::Rng;

// --------------------------------------------------------------- correctness

struct JoinSweep {
  std::uint64_t seed;
  std::size_t n;
  double min_range;
  double max_range;
};

// Names each case by its contents; gtest's default would print the raw
// bytes, padding included, so the name changed per build.
void PrintTo(const JoinSweep& sweep, std::ostream* os) {
  *os << "seed" << sweep.seed << "_n" << sweep.n << "_range" << sweep.min_range
      << "-" << sweep.max_range;
}

class MinimJoinTheorems : public ::testing::TestWithParam<JoinSweep> {};

TEST_P(MinimJoinTheorems, CorrectnessAfterEveryJoin) {
  const auto param = GetParam();
  Rng rng(param.seed);
  AdhocNetwork network;
  CodeAssignment assignment;
  MinimStrategy minim;
  for (std::size_t i = 0; i < param.n; ++i) {
    const NodeId id = network.add_node(
        {{rng.uniform(0, 100), rng.uniform(0, 100)},
         rng.uniform(param.min_range, param.max_range)});
    minim.on_join(network, assignment, id);
    ASSERT_TRUE(minim::net::is_valid(network, assignment)) << "after join " << i;
  }
}

TEST_P(MinimJoinTheorems, MinimalityBoundIsExact) {
  // Thm 4.1.8: recodings(join) == Σ(K_i - 1) + 1 (the +1 is n itself).
  const auto param = GetParam();
  Rng rng(param.seed + 7777);
  AdhocNetwork network;
  CodeAssignment assignment;
  MinimStrategy minim;
  for (std::size_t i = 0; i < param.n; ++i) {
    const NodeId id = network.add_node(
        {{rng.uniform(0, 100), rng.uniform(0, 100)},
         rng.uniform(param.min_range, param.max_range)});
    const std::size_t bound = minimal_recoding_bound(network, assignment, id);
    const RecodeReport report = minim.on_join(network, assignment, id);
    ASSERT_EQ(report.recodings(), bound + 1) << "join " << i;
  }
}

TEST_P(MinimJoinTheorems, OldColorEdgesExistWithWeight3) {
  // Lemma 4.1.6: for every u in 1n ∪ 2n the edge (u, old_color(u)) is in G'
  // and carries weight 3.
  const auto param = GetParam();
  Rng rng(param.seed + 31);
  World world = build_world(param.n, param.min_range, param.max_range, rng);

  const NodeId joiner = world.network.add_node(
      {{rng.uniform(0, 100), rng.uniform(0, 100)},
       rng.uniform(param.min_range, param.max_range)});
  std::vector<NodeId> v1 = minim::test::ids(world.network.heard_by(joiner));
  v1.push_back(joiner);
  const auto problem = build_recode_problem(world.network, world.assignment, v1);

  for (std::size_t i = 0; i < problem.v1.size(); ++i) {
    const NodeId u = problem.v1[i];
    if (u == joiner) continue;
    const Color old = world.assignment.color(u);
    ASSERT_NE(old, minim::net::kNoColor);
    ASSERT_LE(old, problem.max_color);
    ASSERT_EQ(problem.graph.weight(static_cast<std::uint32_t>(i), old - 1), 3)
        << "node " << u;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MinimJoinTheorems,
    ::testing::Values(JoinSweep{101, 40, 20.5, 30.5}, JoinSweep{102, 60, 20.5, 30.5},
                      JoinSweep{103, 40, 10.0, 15.0}, JoinSweep{104, 40, 35.0, 45.0},
                      JoinSweep{105, 25, 50.0, 60.0}, JoinSweep{106, 80, 12.0, 18.0}));

// ------------------------------------------- optimality among minimal (join)

class MinimOptimalityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MinimOptimalityTest, JoinAchievesAdversaryOptimum) {
  // Small dense worlds keep |V1| <= 6 so exhaustive enumeration is feasible.
  Rng rng(GetParam());
  World world = build_world(8, 18.0, 26.0, rng);

  const NodeId joiner = world.network.add_node(
      {{rng.uniform(0, 100), rng.uniform(0, 100)}, rng.uniform(18.0, 26.0)});
  std::vector<NodeId> v1 = minim::test::ids(world.network.heard_by(joiner));
  if (v1.size() > 6) GTEST_SKIP() << "recode set too large for the oracle";
  v1.push_back(joiner);

  ExhaustiveAdversary adversary(world.network, world.assignment, v1);
  const auto oracle = adversary.run();

  MinimStrategy minim;
  const RecodeReport report = minim.on_join(world.network, world.assignment, joiner);

  ASSERT_TRUE(minim::net::is_valid(world.network, world.assignment));
  // Thm 4.1.8: minimal recodings.
  EXPECT_EQ(report.recodings(), oracle.min_recodings);
  // Thm 4.1.9: least max color among all minimal V1-recodings.
  EXPECT_EQ(report.max_color_after, oracle.best_max_color);
}

TEST_P(MinimOptimalityTest, MoveAchievesAdversaryOptimum) {
  Rng rng(GetParam() + 5000);
  World world = build_world(9, 18.0, 26.0, rng);

  const NodeId mover = world.ids[rng.below(world.ids.size())];
  world.network.set_position(mover, {rng.uniform(0, 100), rng.uniform(0, 100)});

  std::vector<NodeId> v1 = minim::test::ids(world.network.heard_by(mover));
  if (v1.size() > 6) GTEST_SKIP() << "recode set too large for the oracle";
  v1.push_back(mover);

  ExhaustiveAdversary adversary(world.network, world.assignment, v1);
  const auto oracle = adversary.run();

  MinimStrategy minim;  // default: mover may keep its color (weight-3 edge)
  const RecodeReport report = minim.on_move(world.network, world.assignment, mover);

  ASSERT_TRUE(minim::net::is_valid(world.network, world.assignment));
  EXPECT_EQ(report.recodings(), oracle.min_recodings);
  EXPECT_EQ(report.max_color_after, oracle.best_max_color);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimOptimalityTest,
                         ::testing::Range<std::uint64_t>(1, 26));

// ----------------------------------------------------------- power increase

TEST(MinimPowerIncrease, NoConflictMeansNoRecode) {
  AdhocNetwork network;
  CodeAssignment assignment;
  const NodeId a = network.add_node({{0, 0}, 10.0});
  const NodeId b = network.add_node({{30, 0}, 10.0});
  assignment.set_color(a, 1);
  assignment.set_color(b, 2);

  MinimStrategy minim;
  const double old_range = network.config(a).range;
  network.set_range(a, 35.0);  // now reaches b, but colors differ
  const RecodeReport report = minim.on_power_change(network, assignment, a, old_range);
  EXPECT_EQ(report.recodings(), 0u);
  EXPECT_EQ(report.event, EventType::kPowerIncrease);
  EXPECT_TRUE(minim::net::is_valid(network, assignment));
}

TEST(MinimPowerIncrease, ConflictRecodesOnlyN) {
  AdhocNetwork network;
  CodeAssignment assignment;
  const NodeId a = network.add_node({{0, 0}, 10.0});
  const NodeId b = network.add_node({{30, 0}, 10.0});
  assignment.set_color(a, 1);
  assignment.set_color(b, 1);  // same color; fine while out of range

  MinimStrategy minim;
  const double old_range = network.config(a).range;
  network.set_range(a, 35.0);  // CA1 conflict with b appears
  const RecodeReport report = minim.on_power_change(network, assignment, a, old_range);
  ASSERT_EQ(report.recodings(), 1u);
  EXPECT_EQ(report.changes[0].node, a);
  EXPECT_TRUE(minim::net::is_valid(network, assignment));
}

TEST(MinimPowerIncrease, PicksLowestAvailableColor) {
  // n in conflict must take the lowest color not forbidden by any partner.
  AdhocNetwork network;
  CodeAssignment assignment;
  const NodeId n = network.add_node({{0, 0}, 5.0});
  const NodeId r1 = network.add_node({{10, 0}, 30.0});
  const NodeId r2 = network.add_node({{0, 10}, 30.0});
  assignment.set_color(n, 1);
  assignment.set_color(r1, 1);  // will conflict once n reaches it
  assignment.set_color(r2, 2);

  MinimStrategy minim;
  const double old_range = network.config(n).range;
  network.set_range(n, 15.0);  // reaches r1 and r2
  const RecodeReport report = minim.on_power_change(network, assignment, n, old_range);
  ASSERT_EQ(report.recodings(), 1u);
  EXPECT_EQ(assignment.color(n), 3u);  // 1 and 2 both forbidden
  EXPECT_TRUE(minim::net::is_valid(network, assignment));
}

class MinimPowerSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MinimPowerSweep, IncreaseRecodesAtMostOneAndStaysValid) {
  Rng rng(GetParam());
  World world = build_world(40, 20.5, 30.5, rng);
  MinimStrategy minim;
  for (int i = 0; i < 20; ++i) {
    const NodeId v = world.ids[rng.below(world.ids.size())];
    const double old_range = world.network.config(v).range;
    world.network.set_range(v, old_range * rng.uniform(1.0, 3.0));
    const RecodeReport report =
        minim.on_power_change(world.network, world.assignment, v, old_range);
    ASSERT_LE(report.recodings(), 1u);
    if (report.recodings() == 1) {
      ASSERT_EQ(report.changes[0].node, v);
    }
    ASSERT_TRUE(minim::net::is_valid(world.network, world.assignment));
  }
}

TEST_P(MinimPowerSweep, DecreaseAndLeaveNeverRecode) {
  Rng rng(GetParam() + 40);
  World world = build_world(40, 20.5, 30.5, rng);
  MinimStrategy minim;
  for (int i = 0; i < 10; ++i) {
    const NodeId v = world.ids[rng.below(world.ids.size())];
    const double old_range = world.network.config(v).range;
    world.network.set_range(v, old_range * rng.uniform(0.3, 1.0));
    const RecodeReport report =
        minim.on_power_change(world.network, world.assignment, v, old_range);
    ASSERT_EQ(report.recodings(), 0u);
    ASSERT_EQ(report.event, EventType::kPowerDecrease);
    ASSERT_TRUE(minim::net::is_valid(world.network, world.assignment));
  }
  // Leaves.
  for (int i = 0; i < 10; ++i) {
    const std::size_t pick = rng.below(world.ids.size());
    const NodeId v = world.ids[pick];
    world.network.remove_node(v);
    world.assignment.clear(v);
    world.ids.erase(world.ids.begin() + static_cast<std::ptrdiff_t>(pick));
    const RecodeReport report = minim.on_leave(world.network, world.assignment, v);
    ASSERT_EQ(report.recodings(), 0u);
    ASSERT_TRUE(minim::net::is_valid(world.network, world.assignment));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimPowerSweep,
                         ::testing::Values(301u, 302u, 303u, 304u));

// ------------------------------------------------------------------ moves

class MinimMoveSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MinimMoveSweep, MoveKeepsValidityAndRespectsInNeighborBound) {
  Rng rng(GetParam());
  World world = build_world(30, 20.5, 30.5, rng);
  MinimStrategy minim;
  for (int i = 0; i < 30; ++i) {
    const NodeId mover = world.ids[rng.below(world.ids.size())];
    world.network.set_position(mover, {rng.uniform(0, 100), rng.uniform(0, 100)});
    const std::size_t bound =
        minimal_recoding_bound(world.network, world.assignment, mover);
    const RecodeReport report = minim.on_move(world.network, world.assignment, mover);
    // In-neighbors recoded exactly per the bound; the mover may add one.
    ASSERT_GE(report.recodings(), bound);
    ASSERT_LE(report.recodings(), bound + 1);
    ASSERT_TRUE(minim::net::is_valid(world.network, world.assignment));
  }
}

TEST_P(MinimMoveSweep, ClearingMoverMatchesLeaveThenJoin) {
  // Thm 4.4.1 under the literal semantics: RecodeOnMove(n) ==
  // RecodeDecreasePowOrLeave(n) at the old position followed by
  // RecodeOnJoin(n) at the new one.
  Rng rng(GetParam() + 99);
  World world = build_world(25, 20.5, 30.5, rng);

  const NodeId mover = world.ids[rng.below(world.ids.size())];
  const minim::util::Vec2 target{rng.uniform(0, 100), rng.uniform(0, 100)};
  const double range = world.network.config(mover).range;

  // Path A: move with move_clears_mover.
  AdhocNetwork net_a = world.network;
  CodeAssignment asg_a = world.assignment;
  MinimStrategy::Params params;
  params.move_clears_mover = true;
  MinimStrategy move_strategy(params);
  net_a.set_position(mover, target);
  move_strategy.on_move(net_a, asg_a, mover);

  // Path B: leave, then join at the new position.  The rejoined node gets
  // the same id because the lowest free slot is reused.
  AdhocNetwork net_b = world.network;
  CodeAssignment asg_b = world.assignment;
  MinimStrategy plain;
  net_b.remove_node(mover);
  asg_b.clear(mover);
  plain.on_leave(net_b, asg_b, mover);
  const NodeId rejoined = net_b.add_node({target, range});
  ASSERT_EQ(rejoined, mover);
  plain.on_join(net_b, asg_b, rejoined);

  for (NodeId v : net_a.nodes())
    ASSERT_EQ(asg_a.color(v), asg_b.color(v)) << "node " << v;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimMoveSweep,
                         ::testing::Values(501u, 502u, 503u, 504u, 505u));

// ----------------------------------------------------- misc strategy facts

TEST(MinimStrategy, FirstJoinGetsColor1) {
  AdhocNetwork network;
  CodeAssignment assignment;
  MinimStrategy minim;
  const NodeId first = network.add_node({{50, 50}, 20.0});
  const RecodeReport report = minim.on_join(network, assignment, first);
  EXPECT_EQ(assignment.color(first), 1u);
  EXPECT_EQ(report.recodings(), 1u);
  EXPECT_EQ(report.max_color_after, 1u);
}

TEST(MinimStrategy, IsolatedJoinerReusesColor1) {
  AdhocNetwork network;
  CodeAssignment assignment;
  MinimStrategy minim;
  network.add_node({{0, 0}, 5.0});
  minim.on_join(network, assignment, 0);
  const NodeId far = network.add_node({{90, 90}, 5.0});
  minim.on_join(network, assignment, far);
  EXPECT_EQ(assignment.color(far), 1u);  // no constraints at all
}

TEST(MinimStrategy, NamesReflectMatcher) {
  MinimStrategy def;
  EXPECT_EQ(def.name(), "Minim");
  MinimStrategy::Params p;
  p.matcher = MinimStrategy::Matcher::kGreedy;
  EXPECT_EQ(MinimStrategy(p).name(), "Minim/greedy");
  p.matcher = MinimStrategy::Matcher::kCardinality;
  EXPECT_EQ(MinimStrategy(p).name(), "Minim/cardinality");
}

TEST(MinimStrategy, ReportToStringMentionsEventAndChanges) {
  AdhocNetwork network;
  CodeAssignment assignment;
  MinimStrategy minim;
  const NodeId first = network.add_node({{50, 50}, 20.0});
  const RecodeReport report = minim.on_join(network, assignment, first);
  const std::string text = report.to_string();
  EXPECT_NE(text.find("join"), std::string::npos);
  EXPECT_NE(text.find("1 recodings"), std::string::npos);
}

}  // namespace
