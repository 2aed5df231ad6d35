// Exactness of the maximum-weight matcher is what the paper's minimality and
// optimality theorems stand on; these tests pin it against an exhaustive
// oracle across thousands of random instances.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/bipartite_builder.hpp"
#include "core/minim.hpp"
#include "matching/bipartite_graph.hpp"
#include "matching/brute_force.hpp"
#include "matching/heuristics.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/hungarian.hpp"
#include "net/constraints.hpp"
#include "util/rng.hpp"

namespace {

using minim::matching::BipartiteGraph;
using minim::matching::brute_force_max_weight_matching;
using minim::matching::greedy_matching;
using minim::matching::is_valid_matching;
using minim::matching::MatchingResult;
using minim::matching::max_cardinality_matching;
using minim::matching::max_weight_matching;
using minim::matching::Weight;
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
  BipartiteGraph g(2, 8);
  g.add_edge(0, 5, 1);
  g.add_edge(0, 2, 1);  // below the row's largest right endpoint
  EXPECT_THROW(g.add_edge(0, 5, 1), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 2, 1), std::invalid_argument);
  g.add_edge(0, 3, 1);  // a gap below the maximum is still free
  g.add_edge(0, 7, 1);  // above it
  g.add_edge(1, 5, 1);  // another left vertex has its own row
  EXPECT_THROW(g.add_edge(1, 5, 1), std::invalid_argument);
  EXPECT_EQ(g.edge_count(), 5u);
  EXPECT_EQ(g.weight(0, 3), 1);
  EXPECT_EQ(g.max_weight(), 1);
}

TEST(BipartiteGraph, RowsReadEveryCell) {
  BipartiteGraph g(2, 3);
  EXPECT_EQ(g.max_weight(), 0);
  g.add_edge(1, 2, 3);
  g.add_edge(1, 0, 1);
  const auto row = g.row(1);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], 1);
  EXPECT_EQ(row[1], 0);
  EXPECT_EQ(row[2], 3);
  for (const auto w : g.row(0)) EXPECT_EQ(w, 0);
  EXPECT_EQ(g.max_weight(), 3);
  EXPECT_THROW(g.row(2), std::invalid_argument);
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

// ------------------------------------ Hungarian vs the reference Hungarian

/// The reference: the plain e-maxx Kuhn–Munkres that `max_weight_matching`
/// must reproduce exactly.  It builds the padded n x (R + n) cost matrix,
/// keeps per-row `minv`/`used`, runs two column loops per step and finds
/// each matched weight by lookup.  Weight alone cannot tell apart the
/// optimal matchings a tie-break chooses between; this can.
MatchingResult reference_max_weight_matching(const BipartiteGraph& g) {
  const std::size_t n = g.left_size();
  MatchingResult result;
  result.left_to_right.assign(n, MatchingResult::kUnmatched);
  if (n == 0) return result;
  const std::size_t r_real = g.right_size();
  const std::size_t m = r_real + n;
  Weight w_max = 0;
  for (std::uint32_t l = 0; l < n; ++l)
    for (std::uint32_t r = 0; r < r_real; ++r) w_max = std::max(w_max, g.weight(l, r));
  if (w_max == 0) return result;

  std::vector<Weight> cost(n * m, w_max);
  for (std::uint32_t l = 0; l < n; ++l)
    for (std::uint32_t r = 0; r < r_real; ++r) cost[l * m + r] = w_max - g.weight(l, r);

  constexpr Weight kInf = std::numeric_limits<Weight>::max() / 4;
  std::vector<Weight> u(n + 1, 0);
  std::vector<Weight> v(m + 1, 0);
  std::vector<std::size_t> p(m + 1, 0);
  std::vector<std::size_t> way(m + 1, 0);
  for (std::size_t i = 1; i <= n; ++i) {
    p[0] = i;
    std::size_t j0 = 0;
    std::vector<Weight> minv(m + 1, kInf);
    std::vector<char> used(m + 1, 0);
    do {
      used[j0] = 1;
      const std::size_t i0 = p[j0];
      Weight delta = kInf;
      std::size_t j1 = 0;
      for (std::size_t j = 1; j <= m; ++j) {
        if (used[j]) continue;
        const Weight cur = cost[(i0 - 1) * m + j - 1] - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (std::size_t j = 0; j <= m; ++j) {
        if (used[j]) {
          u[p[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    do {
      const std::size_t j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }
  for (std::size_t j = 1; j <= r_real; ++j) {
    if (p[j] == 0) continue;
    const auto l = static_cast<std::uint32_t>(p[j] - 1);
    const Weight w = g.weight(l, static_cast<std::uint32_t>(j - 1));
    if (w <= 0) continue;
    result.left_to_right[l] = static_cast<std::uint32_t>(j - 1);
    result.total_weight += w;
  }
  return result;
}

void expect_same_as_reference(const BipartiteGraph& g) {
  const MatchingResult fast = max_weight_matching(g);
  const MatchingResult ref = reference_max_weight_matching(g);
  ASSERT_EQ(fast.left_to_right, ref.left_to_right);
  ASSERT_EQ(fast.total_weight, ref.total_weight);
}

struct WeightPair {
  Weight heavy;
  Weight light;
};

void PrintTo(const WeightPair& pair, std::ostream* os) {
  *os << "weights" << pair.heavy << "-" << pair.light;
}

class HungarianReferenceTest : public ::testing::TestWithParam<WeightPair> {};

TEST_P(HungarianReferenceTest, RandomGraphsMatchExactly) {
  // Up to 40 x 160 at densities 0.2-0.95, with whole rows left empty.
  const auto [heavy, light] = GetParam();
  Rng rng(static_cast<std::uint64_t>(900 + heavy * 10 + light));
  for (int trial = 0; trial < 60; ++trial) {
    const auto l = static_cast<std::uint32_t>(1 + rng.below(40));
    const auto r = static_cast<std::uint32_t>(1 + rng.below(160));
    const double density = rng.uniform(0.2, 0.95);
    BipartiteGraph g(l, r);
    for (std::uint32_t i = 0; i < l; ++i) {
      if (rng.chance(0.1)) continue;  // a row with no edge
      for (std::uint32_t j = 0; j < r; ++j)
        if (rng.chance(density)) g.add_edge(i, j, rng.chance(0.3) ? heavy : light);
    }
    ASSERT_NO_FATAL_FAILURE(expect_same_as_reference(g))
        << "trial " << trial << " l=" << l << " r=" << r << " density=" << density;
  }
}

INSTANTIATE_TEST_SUITE_P(WeightPairs, HungarianReferenceTest,
                         ::testing::Values(WeightPair{3, 1}, WeightPair{2, 1},
                                           WeightPair{1, 1}, WeightPair{5, 2}));

TEST(HungarianReference, ServingScaleRecodeGraphsMatchExactly) {
  // Every G' Minim builds on a dense-churn-shaped stream: 300 joins on the
  // 100 x 100 field at ranges 10-25, then 1,200 moves with a 3x raise every
  // 100 events (the previous one restored).  Each join and move rebuilds
  // G' exactly as MinimStrategy does, on the post-event network, before
  // Minim applies the event.
  namespace net = minim::net;
  Rng rng(29);
  net::AdhocNetwork network;
  net::CodeAssignment assignment;
  minim::core::MinimStrategy minim;
  std::size_t graphs = 0;
  std::size_t max_members = 0;
  net::Color max_pool = 0;
  const auto check = [&](net::NodeId n) {
    std::vector<net::NodeId> v1(network.heard_by(n).begin(), network.heard_by(n).end());
    v1.push_back(n);
    const auto problem = minim::core::build_recode_problem(network, assignment, v1);
    ASSERT_NO_FATAL_FAILURE(expect_same_as_reference(problem.graph)) << "graph " << graphs;
    ++graphs;
    max_members = std::max(max_members, problem.v1.size());
    max_pool = std::max(max_pool, problem.max_color);
  };
  std::vector<net::NodeId> ids;
  for (int i = 0; i < 300; ++i) {
    const net::NodeId id = network.add_node(
        {{rng.uniform(0, 100), rng.uniform(0, 100)}, rng.uniform(10, 25)});
    ids.push_back(id);
    ASSERT_NO_FATAL_FAILURE(check(id));
    minim.on_join(network, assignment, id);
  }
  net::NodeId raised = ids.front();
  double raised_from = 0;
  for (int event = 0; event < 1200; ++event) {
    if (event % 100 == 0) {
      if (raised_from > 0) {
        network.set_range(raised, raised_from);
        minim.on_power_change(network, assignment, raised, 3 * raised_from);
      }
      raised = ids[rng.below(ids.size())];
      raised_from = network.config(raised).range;
      network.set_range(raised, 3 * raised_from);
      minim.on_power_change(network, assignment, raised, raised_from);
    }
    const net::NodeId mover = ids[rng.below(ids.size())];
    network.set_position(mover, {rng.uniform(0, 100), rng.uniform(0, 100)});
    ASSERT_NO_FATAL_FAILURE(check(mover));
    minim.on_move(network, assignment, mover);
  }
  ASSERT_TRUE(net::is_valid(network, assignment));
  EXPECT_EQ(graphs, 1500u);
  // The stream reaches the serving regime's G' sizes: a mean of 23.7
  // members x 61.0 colors, the largest 49 members and 72 colors.
  EXPECT_GE(max_members, 40u);
  EXPECT_GE(max_pool, 60u);
}

// ------------------------------------------------- matchers, all four

TEST(Matchers, IgnoreInsertionOrder) {
  // One edge set, added in ascending and in descending order, gives every
  // matcher the same result: each reads rows in ascending right order.
  Rng rng(61);
  for (int trial = 0; trial < 50; ++trial) {
    const auto l = static_cast<std::uint32_t>(1 + rng.below(8));
    const auto r = static_cast<std::uint32_t>(1 + rng.below(10));
    struct Edge {
      std::uint32_t left;
      std::uint32_t right;
      Weight weight;
    };
    std::vector<Edge> edges;
    for (std::uint32_t i = 0; i < l; ++i)
      for (std::uint32_t j = 0; j < r; ++j)
        if (rng.chance(0.5)) edges.push_back({i, j, rng.chance(0.3) ? 3 : 1});
    BipartiteGraph ascending(l, r);
    for (const Edge& e : edges) ascending.add_edge(e.left, e.right, e.weight);
    BipartiteGraph descending(l, r);
    for (auto e = edges.rbegin(); e != edges.rend(); ++e)
      descending.add_edge(e->left, e->right, e->weight);
    for (const auto matcher : {&max_weight_matching, &greedy_matching,
                               &max_cardinality_matching,
                               &brute_force_max_weight_matching}) {
      const MatchingResult a = matcher(ascending);
      const MatchingResult d = matcher(descending);
      ASSERT_EQ(a.left_to_right, d.left_to_right) << "trial " << trial;
      ASSERT_EQ(a.total_weight, d.total_weight) << "trial " << trial;
    }
  }
}

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
