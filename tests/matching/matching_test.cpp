// Exactness of the maximum-weight matcher is what the paper's minimality and
// optimality theorems stand on; these tests pin it against an exhaustive
// oracle across thousands of random instances.

#include <gtest/gtest.h>

#include <stdexcept>

#include "matching/bipartite_graph.hpp"
#include "matching/brute_force.hpp"
#include "matching/heuristics.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/hungarian.hpp"
#include "util/rng.hpp"

namespace {

using minim::matching::BipartiteGraph;
using minim::matching::brute_force_max_weight_matching;
using minim::matching::greedy_matching;
using minim::matching::is_valid_matching;
using minim::matching::MatchingResult;
using minim::matching::max_cardinality_matching;
using minim::matching::max_weight_matching;
using minim::util::Rng;

// -------------------------------------------------------- BipartiteGraph

TEST(BipartiteGraph, BasicAccessors) {
  BipartiteGraph g(2, 3);
  g.add_edge(0, 1, 3);
  g.add_edge(1, 2, 1);
  EXPECT_EQ(g.left_size(), 2u);
  EXPECT_EQ(g.right_size(), 3u);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.weight(0, 1), 3);
  EXPECT_EQ(g.weight(0, 0), 0);
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(1, 0));
}

TEST(BipartiteGraph, RejectsBadEdges) {
  BipartiteGraph g(2, 2);
  EXPECT_THROW(g.add_edge(2, 0, 1), std::invalid_argument);  // left OOR
  EXPECT_THROW(g.add_edge(0, 2, 1), std::invalid_argument);  // right OOR
  EXPECT_THROW(g.add_edge(0, 0, 0), std::invalid_argument);  // non-positive
  g.add_edge(0, 0, 1);
  EXPECT_THROW(g.add_edge(0, 0, 2), std::invalid_argument);  // duplicate
}

TEST(BipartiteGraph, RejectsDuplicatesInAnyInsertionOrder) {
  // Ascending insertion takes the O(1) absence proof; every other order
  // falls back to the scan, so a duplicate is caught either way.
  BipartiteGraph g(2, 8);
  g.add_edge(0, 5, 1);
  g.add_edge(0, 2, 1);  // below the row's largest right endpoint
  EXPECT_THROW(g.add_edge(0, 5, 1), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 2, 1), std::invalid_argument);
  g.add_edge(0, 3, 1);  // a gap below the maximum is still free
  g.add_edge(0, 7, 1);  // above it: proven new in O(1)
  g.add_edge(1, 5, 1);  // another left vertex has its own bound
  EXPECT_THROW(g.add_edge(1, 5, 1), std::invalid_argument);
  EXPECT_EQ(g.edge_count(), 5u);
  EXPECT_EQ(g.weight(0, 3), 1);
}

TEST(BipartiteGraph, ValidMatchingChecker) {
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0, 3);
  g.add_edge(1, 1, 1);
  MatchingResult ok;
  ok.left_to_right = {0, 1};
  ok.total_weight = 4;
  EXPECT_TRUE(is_valid_matching(g, ok));

  MatchingResult non_edge = ok;
  non_edge.left_to_right = {1, 0};  // neither (0,1) nor (1,0) exists
  EXPECT_FALSE(is_valid_matching(g, non_edge));

  MatchingResult wrong_weight = ok;
  wrong_weight.total_weight = 5;
  EXPECT_FALSE(is_valid_matching(g, wrong_weight));
}

TEST(BipartiteGraph, DuplicateRightRejectedByChecker) {
  BipartiteGraph g(2, 1);
  g.add_edge(0, 0, 1);
  g.add_edge(1, 0, 1);
  MatchingResult m;
  m.left_to_right = {0, 0};
  m.total_weight = 2;
  EXPECT_FALSE(is_valid_matching(g, m));
}

// -------------------------------------------------------- Hungarian, basics

TEST(Hungarian, EmptyGraph) {
  BipartiteGraph g(0, 0);
  const auto m = max_weight_matching(g);
  EXPECT_TRUE(m.left_to_right.empty());
  EXPECT_EQ(m.total_weight, 0);
}

TEST(Hungarian, NoEdgesLeavesAllUnmatched) {
  BipartiteGraph g(3, 2);
  const auto m = max_weight_matching(g);
  for (auto r : m.left_to_right) EXPECT_EQ(r, MatchingResult::kUnmatched);
  EXPECT_EQ(m.total_weight, 0);
}

TEST(Hungarian, SingleEdge) {
  BipartiteGraph g(1, 1);
  g.add_edge(0, 0, 3);
  const auto m = max_weight_matching(g);
  EXPECT_EQ(m.left_to_right[0], 0u);
  EXPECT_EQ(m.total_weight, 3);
}

TEST(Hungarian, PrefersHeavyEdgeOverTwoLight) {
  // Wait — 3 > 1 + 1 is the paper's weight inequality.  Left 0 can take the
  // weight-3 edge to right 0, or leave it for left 1; taking it plus left
  // 1's weight-1 edge to right 1 is optimal.
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0, 3);
  g.add_edge(1, 0, 1);
  g.add_edge(1, 1, 1);
  const auto m = max_weight_matching(g);
  EXPECT_EQ(m.total_weight, 4);
  EXPECT_EQ(m.left_to_right[0], 0u);
  EXPECT_EQ(m.left_to_right[1], 1u);
}

TEST(Hungarian, WeightBeatsCardinality) {
  // One heavy edge (10) on the only right vertex vs two light edges that
  // cannot coexist: max weight picks the single heavy edge.
  BipartiteGraph g(2, 1);
  g.add_edge(0, 0, 10);
  g.add_edge(1, 0, 1);
  const auto m = max_weight_matching(g);
  EXPECT_EQ(m.total_weight, 10);
  EXPECT_EQ(m.left_to_right[0], 0u);
  EXPECT_EQ(m.left_to_right[1], MatchingResult::kUnmatched);
}

TEST(Hungarian, AugmentingPathDisplacement) {
  // Classic alternating-path case: greedy would match (0,0) and strand 1;
  // the exact solver must re-route 0 to right 1.
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0, 1);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 0, 1);
  const auto m = max_weight_matching(g);
  EXPECT_EQ(m.cardinality(), 2u);
  EXPECT_EQ(m.total_weight, 2);
}

TEST(Hungarian, ResultIsAlwaysValidMatching) {
  Rng rng(21);
  for (int trial = 0; trial < 200; ++trial) {
    const auto l = static_cast<std::uint32_t>(1 + rng.below(8));
    const auto r = static_cast<std::uint32_t>(1 + rng.below(10));
    BipartiteGraph g(l, r);
    for (std::uint32_t i = 0; i < l; ++i)
      for (std::uint32_t j = 0; j < r; ++j)
        if (rng.chance(0.4))
          g.add_edge(i, j, rng.chance(0.3) ? 3 : 1);
    const auto m = max_weight_matching(g);
    ASSERT_TRUE(is_valid_matching(g, m)) << "trial " << trial;
  }
}

// ------------------------------------------- Hungarian vs exhaustive oracle

struct RandomInstanceParams {
  std::uint32_t max_left;
  std::uint32_t max_right;
  double density;
  bool paper_weights;  // 3/1 scheme vs arbitrary weights in [1, 9]
};

// Names each case by its contents; gtest's default would print the raw
// bytes, padding included, so the name changed per build.
void PrintTo(const RandomInstanceParams& params, std::ostream* os) {
  *os << params.max_left << "x" << params.max_right << "_density"
      << params.density
      << (params.paper_weights ? "_paper_weights" : "_weights_1-9");
}

class HungarianOracleTest : public ::testing::TestWithParam<RandomInstanceParams> {};

TEST_P(HungarianOracleTest, MatchesBruteForceWeight) {
  const auto param = GetParam();
  Rng rng(1000 + param.max_left * 31 + param.max_right * 7 +
          static_cast<std::uint64_t>(param.density * 100));
  for (int trial = 0; trial < 150; ++trial) {
    const auto l = static_cast<std::uint32_t>(1 + rng.below(param.max_left));
    const auto r = static_cast<std::uint32_t>(1 + rng.below(param.max_right));
    BipartiteGraph g(l, r);
    for (std::uint32_t i = 0; i < l; ++i)
      for (std::uint32_t j = 0; j < r; ++j)
        if (rng.chance(param.density)) {
          const auto w = param.paper_weights
                             ? (rng.chance(0.3) ? 3 : 1)
                             : static_cast<minim::matching::Weight>(1 + rng.below(9));
          g.add_edge(i, j, w);
        }
    const auto exact = max_weight_matching(g);
    const auto oracle = brute_force_max_weight_matching(g);
    ASSERT_TRUE(is_valid_matching(g, exact));
    ASSERT_EQ(exact.total_weight, oracle.total_weight)
        << "trial " << trial << " l=" << l << " r=" << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, HungarianOracleTest,
    ::testing::Values(RandomInstanceParams{4, 4, 0.5, true},
                      RandomInstanceParams{6, 4, 0.4, true},
                      RandomInstanceParams{4, 8, 0.6, true},
                      RandomInstanceParams{7, 7, 0.3, true},
                      RandomInstanceParams{5, 5, 0.8, true},
                      RandomInstanceParams{4, 4, 0.5, false},
                      RandomInstanceParams{6, 5, 0.4, false},
                      RandomInstanceParams{5, 9, 0.7, false}));

// -------------------------------------------------------- Hopcroft-Karp

TEST(HopcroftKarp, PerfectMatchingOnCompleteGraph) {
  BipartiteGraph g(4, 4);
  for (std::uint32_t i = 0; i < 4; ++i)
    for (std::uint32_t j = 0; j < 4; ++j) g.add_edge(i, j, 1);
  const auto m = max_cardinality_matching(g);
  EXPECT_EQ(m.cardinality(), 4u);
  EXPECT_TRUE(is_valid_matching(g, m));
}

TEST(HopcroftKarp, CardinalityMatchesHungarianUnderUniformWeights) {
  Rng rng(33);
  for (int trial = 0; trial < 100; ++trial) {
    const auto l = static_cast<std::uint32_t>(1 + rng.below(9));
    const auto r = static_cast<std::uint32_t>(1 + rng.below(9));
    BipartiteGraph g(l, r);
    for (std::uint32_t i = 0; i < l; ++i)
      for (std::uint32_t j = 0; j < r; ++j)
        if (rng.chance(0.35)) g.add_edge(i, j, 1);
    const auto hk = max_cardinality_matching(g);
    const auto hung = max_weight_matching(g);
    // With unit weights, max weight == max cardinality.
    ASSERT_EQ(hk.cardinality(), hung.cardinality()) << "trial " << trial;
    ASSERT_TRUE(is_valid_matching(g, hk));
  }
}

TEST(HopcroftKarp, IgnoresWeights) {
  // Cardinality 2 with light edges beats cardinality 1 with the heavy edge.
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0, 100);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 0, 1);
  const auto m = max_cardinality_matching(g);
  EXPECT_EQ(m.cardinality(), 2u);
}

// -------------------------------------------------------- Greedy heuristic

TEST(Greedy, ProducesValidMatching) {
  Rng rng(44);
  for (int trial = 0; trial < 100; ++trial) {
    const auto l = static_cast<std::uint32_t>(1 + rng.below(10));
    const auto r = static_cast<std::uint32_t>(1 + rng.below(10));
    BipartiteGraph g(l, r);
    for (std::uint32_t i = 0; i < l; ++i)
      for (std::uint32_t j = 0; j < r; ++j)
        if (rng.chance(0.4)) g.add_edge(i, j, rng.chance(0.3) ? 3 : 1);
    ASSERT_TRUE(is_valid_matching(g, greedy_matching(g)));
  }
}

TEST(Greedy, AtLeastHalfOfOptimalWeight) {
  Rng rng(55);
  for (int trial = 0; trial < 100; ++trial) {
    const auto l = static_cast<std::uint32_t>(1 + rng.below(8));
    const auto r = static_cast<std::uint32_t>(1 + rng.below(8));
    BipartiteGraph g(l, r);
    for (std::uint32_t i = 0; i < l; ++i)
      for (std::uint32_t j = 0; j < r; ++j)
        if (rng.chance(0.5))
          g.add_edge(i, j, static_cast<minim::matching::Weight>(1 + rng.below(9)));
    const auto greedy = greedy_matching(g);
    const auto exact = max_weight_matching(g);
    ASSERT_GE(2 * greedy.total_weight, exact.total_weight);
  }
}

TEST(Greedy, CanBeSuboptimal) {
  // Greedy takes the 5 edge and strands left 1; optimal takes 4 + 3 = 7.
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0, 5);
  g.add_edge(0, 1, 4);
  g.add_edge(1, 0, 3);
  EXPECT_EQ(greedy_matching(g).total_weight, 5);
  EXPECT_EQ(max_weight_matching(g).total_weight, 7);
}

// -------------------------------------------------------- Brute force

TEST(BruteForce, RefusesLargeInstances) {
  BipartiteGraph g(13, 2);
  EXPECT_THROW(brute_force_max_weight_matching(g), std::invalid_argument);
}

TEST(BruteForce, HandlesIsolatedLeftVertices) {
  BipartiteGraph g(3, 1);
  g.add_edge(1, 0, 2);
  const auto m = brute_force_max_weight_matching(g);
  EXPECT_EQ(m.total_weight, 2);
  EXPECT_EQ(m.left_to_right[0], MatchingResult::kUnmatched);
  EXPECT_EQ(m.left_to_right[1], 0u);
}

}  // namespace
