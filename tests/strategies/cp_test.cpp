// The CP baseline (Chlamtac-Pinter) — correctness on all events, identity
// ordering semantics, and the worked-example phenomena of Figs 4 and 6.

#include "strategies/cp.hpp"

#include <gtest/gtest.h>

#include "../helpers.hpp"
#include "core/minim.hpp"
#include "net/constraints.hpp"
#include "util/rng.hpp"

namespace {

using minim::core::MinimStrategy;
using minim::core::RecodeReport;
using minim::net::AdhocNetwork;
using minim::net::CodeAssignment;
using minim::net::NodeId;
using minim::strategies::CpStrategy;
using minim::test::build_world;
using minim::test::World;
using minim::util::Rng;

TEST(CpStrategy, FirstJoinGetsColor1) {
  AdhocNetwork network;
  CodeAssignment assignment;
  CpStrategy cp;
  const NodeId first = network.add_node({{50, 50}, 20.0});
  const RecodeReport report = cp.on_join(network, assignment, first);
  EXPECT_EQ(assignment.color(first), 1u);
  EXPECT_EQ(report.recodings(), 1u);
}

TEST(CpStrategy, JoinRecolorsDuplicateNeighbors) {
  // Hidden-terminal setup: left and right (same color, no edge between them)
  // both reach the joiner.  CP deselects {left, right, joiner}; all three
  // recolor because the joiner (highest id) grabs color 1 first.
  AdhocNetwork network;
  CodeAssignment assignment;
  const NodeId left = network.add_node({{20, 50}, 35.0});
  const NodeId right = network.add_node({{80, 50}, 35.0});
  assignment.set_color(left, 1);
  assignment.set_color(right, 1);  // valid: no edges, no common receiver yet

  CpStrategy cp;
  const NodeId joiner = network.add_node({{50, 50}, 5.0});  // hears both
  ASSERT_EQ(network.heard_by(joiner).size(), 2u);
  const RecodeReport report = cp.on_join(network, assignment, joiner);
  EXPECT_TRUE(minim::net::is_valid(network, assignment));
  // left and right now conflict (hidden at joiner).
  EXPECT_NE(assignment.color(left), assignment.color(right));
  EXPECT_EQ(report.recodings(), 3u);
}

TEST(CpStrategy, HighestFirstGivesHigherIdsFirstPick) {
  // With highest-first order the joiner picks first (everything in its
  // vicinity is still uncolored), then right, then left.
  AdhocNetwork network;
  CodeAssignment assignment;
  const NodeId left = network.add_node({{20, 50}, 35.0});
  const NodeId right = network.add_node({{80, 50}, 35.0});
  ASSERT_LT(left, right);
  assignment.set_color(left, 1);
  assignment.set_color(right, 1);

  CpStrategy cp(CpStrategy::Order::kHighestFirst);
  const NodeId joiner = network.add_node({{50, 50}, 5.0});
  cp.on_join(network, assignment, joiner);
  EXPECT_EQ(assignment.color(joiner), 1u);
  EXPECT_EQ(assignment.color(right), 2u);
  EXPECT_EQ(assignment.color(left), 3u);
}

TEST(CpStrategy, LowestFirstReversesPicks) {
  AdhocNetwork network;
  CodeAssignment assignment;
  const NodeId left = network.add_node({{20, 50}, 35.0});
  const NodeId right = network.add_node({{80, 50}, 35.0});
  assignment.set_color(left, 1);
  assignment.set_color(right, 1);

  CpStrategy cp(CpStrategy::Order::kLowestFirst);
  const NodeId joiner = network.add_node({{50, 50}, 5.0});
  cp.on_join(network, assignment, joiner);
  EXPECT_EQ(assignment.color(left), 1u);   // picks first, re-selects 1
  EXPECT_EQ(assignment.color(right), 2u);
  EXPECT_EQ(assignment.color(joiner), 3u);
}

TEST(CpStrategy, PowerIncreaseWithoutConflictDoesNothing) {
  AdhocNetwork network;
  CodeAssignment assignment;
  const NodeId a = network.add_node({{0, 0}, 10.0});
  const NodeId b = network.add_node({{30, 0}, 10.0});
  assignment.set_color(a, 1);
  assignment.set_color(b, 2);
  CpStrategy cp;
  const double old_range = network.config(a).range;
  network.set_range(a, 35.0);
  const RecodeReport report = cp.on_power_change(network, assignment, a, old_range);
  EXPECT_EQ(report.recodings(), 0u);
  EXPECT_TRUE(minim::net::is_valid(network, assignment));
}

TEST(CpStrategy, PowerIncreaseRecodesConflictersAndSelf) {
  // Fig 6 phenomenon: CP recolors both the conflicting node and n, where
  // Minim would recolor only n.
  AdhocNetwork network;
  CodeAssignment assignment;
  const NodeId n = network.add_node({{0, 0}, 5.0});
  const NodeId other = network.add_node({{30, 0}, 10.0});
  assignment.set_color(n, 1);
  assignment.set_color(other, 1);

  CpStrategy cp;
  const double old_range = network.config(n).range;
  network.set_range(n, 35.0);
  const RecodeReport cp_report = cp.on_power_change(network, assignment, n, old_range);
  EXPECT_TRUE(minim::net::is_valid(network, assignment));
  // Both candidates deselect; at most one re-picks color 1.
  EXPECT_GE(cp_report.recodings(), 1u);

  // Minim on the same scenario recodes exactly one node (n).
  AdhocNetwork network2;
  CodeAssignment assignment2;
  const NodeId n2 = network2.add_node({{0, 0}, 5.0});
  const NodeId other2 = network2.add_node({{30, 0}, 10.0});
  assignment2.set_color(n2, 1);
  assignment2.set_color(other2, 1);
  MinimStrategy minim;
  network2.set_range(n2, 35.0);
  const RecodeReport minim_report =
      minim.on_power_change(network2, assignment2, n2, 5.0);
  EXPECT_EQ(minim_report.recodings(), 1u);
  EXPECT_LE(minim_report.recodings(), cp_report.recodings());
}

TEST(CpStrategy, LeaveAndDecreaseAreNoOps) {
  Rng rng(71);
  World world = build_world(20, 20.5, 30.5, rng);
  CpStrategy cp;
  const NodeId v = world.ids[5];
  const double old_range = world.network.config(v).range;
  world.network.set_range(v, old_range * 0.5);
  EXPECT_EQ(cp.on_power_change(world.network, world.assignment, v, old_range).recodings(), 0u);
  const NodeId gone = world.ids[7];
  world.network.remove_node(gone);
  world.assignment.clear(gone);
  EXPECT_EQ(cp.on_leave(world.network, world.assignment, gone).recodings(), 0u);
  EXPECT_TRUE(minim::net::is_valid(world.network, world.assignment));
}

TEST(CpStrategy, Names) {
  EXPECT_EQ(CpStrategy().name(), "CP");
  EXPECT_EQ(CpStrategy(CpStrategy::Order::kLowestFirst).name(), "CP/lowest-first");
}

// Randomized soaks: validity after every event, for both identity orders
// and both vicinity modes.
struct CpSoakParams {
  std::uint64_t seed;
  CpStrategy::Order order;
  CpStrategy::Vicinity vicinity = CpStrategy::Vicinity::kTwoHopBall;
};

// Names each case by its contents; gtest's default would print the raw
// bytes, padding included, so the name changed per build.
void PrintTo(const CpSoakParams& params, std::ostream* os) {
  *os << "seed" << params.seed
      << (params.order == CpStrategy::Order::kHighestFirst ? "_highest_first"
                                                           : "_lowest_first")
      << (params.vicinity == CpStrategy::Vicinity::kTwoHopBall ? "_two_hop_ball"
                                                               : "_exact");
}

class CpSoakTest : public ::testing::TestWithParam<CpSoakParams> {};

TEST_P(CpSoakTest, MixedEventsStayValid) {
  const auto param = GetParam();
  Rng rng(param.seed);
  AdhocNetwork network;
  CodeAssignment assignment;
  CpStrategy cp(param.order, param.vicinity);
  std::vector<NodeId> alive;

  for (int event = 0; event < 150; ++event) {
    const double dice = rng.uniform01();
    if (alive.size() < 8 || dice < 0.4) {
      const NodeId id = network.add_node(
          {{rng.uniform(0, 100), rng.uniform(0, 100)}, rng.uniform(15, 30)});
      cp.on_join(network, assignment, id);
      alive.push_back(id);
    } else if (dice < 0.55) {
      const std::size_t pick = rng.below(alive.size());
      const NodeId v = alive[pick];
      network.remove_node(v);
      assignment.clear(v);
      alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(pick));
      cp.on_leave(network, assignment, v);
    } else if (dice < 0.8) {
      const NodeId v = alive[rng.below(alive.size())];
      network.set_position(v, {rng.uniform(0, 100), rng.uniform(0, 100)});
      cp.on_move(network, assignment, v);
    } else {
      const NodeId v = alive[rng.below(alive.size())];
      const double old_range = network.config(v).range;
      network.set_range(v, old_range * rng.uniform(0.5, 2.5));
      cp.on_power_change(network, assignment, v, old_range);
    }
    ASSERT_TRUE(minim::net::is_valid(network, assignment)) << "event " << event;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Soak, CpSoakTest,
    ::testing::Values(
        CpSoakParams{61, CpStrategy::Order::kHighestFirst},
        CpSoakParams{62, CpStrategy::Order::kHighestFirst},
        CpSoakParams{63, CpStrategy::Order::kLowestFirst},
        CpSoakParams{64, CpStrategy::Order::kLowestFirst},
        CpSoakParams{65, CpStrategy::Order::kHighestFirst,
                     CpStrategy::Vicinity::kExactConstraints},
        CpSoakParams{66, CpStrategy::Order::kLowestFirst,
                     CpStrategy::Vicinity::kExactConstraints}));

}  // namespace
