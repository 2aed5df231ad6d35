// Direct tests of the G' builder (Section 4.1 step 4) and the recode-report
// plumbing, plus evidence that the paper's weight scheme is load-bearing:
// uniform weights break minimality, cardinality matching breaks it harder,
// yet both remain *correct* (validity is enforced by the graph, not the
// weights).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "../helpers.hpp"
#include "core/bipartite_builder.hpp"
#include "core/minim.hpp"
#include "net/constraints.hpp"
#include "net/partitions.hpp"
#include "util/rng.hpp"

namespace {

using minim::core::BipartiteWeights;
using minim::core::build_recode_problem;
using minim::core::EventType;
using minim::core::MinimStrategy;
using minim::core::RecodeProblem;
using minim::net::AdhocNetwork;
using minim::net::CodeAssignment;
using minim::net::Color;
using minim::net::NodeId;
using minim::test::build_world;
using minim::test::World;
using minim::util::Rng;

// ----------------------------------------------------------- the builder

TEST(BipartiteBuilder, PoolBoundCoversConstraintsAndOldColors) {
  // Joiner hears u (color 5); u's outside partner holds color 7.
  AdhocNetwork net;
  CodeAssignment asg;
  const NodeId u = net.add_node({{50, 50}, 20});
  const NodeId outside = net.add_node({{50, 65}, 20});  // mutual with u
  asg.set_color(u, 5);
  asg.set_color(outside, 7);
  const NodeId joiner = net.add_node({{50, 40}, 5});  // hears u only? u reaches it
  ASSERT_TRUE(net.graph().has_edge(u, joiner));

  std::vector<NodeId> v1 = minim::test::ids(net.heard_by(joiner));
  v1.push_back(joiner);
  const RecodeProblem problem = build_recode_problem(net, asg, v1);
  // outside (7) constrains u; old color 5 also counts: pool max must be >= 7.
  EXPECT_GE(problem.max_color, 7u);
  EXPECT_EQ(problem.graph.left_size(), problem.v1.size());
  EXPECT_EQ(problem.graph.right_size(), problem.max_color);
}

TEST(BipartiteBuilder, ForbiddenColorsHaveNoEdges) {
  AdhocNetwork net;
  CodeAssignment asg;
  const NodeId u = net.add_node({{50, 50}, 20});
  const NodeId outside = net.add_node({{50, 65}, 20});
  asg.set_color(u, 2);
  asg.set_color(outside, 3);
  const NodeId joiner = net.add_node({{50, 40}, 5});

  std::vector<NodeId> v1 = minim::test::ids(net.heard_by(joiner));
  v1.push_back(joiner);
  const RecodeProblem problem = build_recode_problem(net, asg, v1);

  // Find u's index in v1.
  const auto it = std::find(problem.v1.begin(), problem.v1.end(), u);
  ASSERT_NE(it, problem.v1.end());
  const auto ui = static_cast<std::uint32_t>(it - problem.v1.begin());
  // u conflicts with `outside` (mutual edge): color 3 must have no edge.
  EXPECT_FALSE(problem.graph.has_edge(ui, 3 - 1));
  // u's own old color must be a weight-3 edge.
  EXPECT_EQ(problem.graph.weight(ui, 2 - 1), 3);
}

TEST(BipartiteBuilder, WeightSchemeConfigurable) {
  AdhocNetwork net;
  CodeAssignment asg;
  const NodeId u = net.add_node({{50, 50}, 20});
  net.add_node({{50, 60}, 20});
  asg.set_color(u, 1);
  asg.set_color(1, 2);
  BipartiteWeights weights;
  weights.old_color_weight = 9;
  weights.other_weight = 4;
  const RecodeProblem problem = build_recode_problem(net, asg, {u}, weights);
  EXPECT_EQ(problem.graph.weight(0, 0), 9);  // old color 1
  // Color 2 is forbidden (partner), so the only other pool color is... pool
  // max = max(old=1, constraint=2) = 2 and color 2 has no edge.
  EXPECT_EQ(problem.max_color, 2u);
  EXPECT_FALSE(problem.graph.has_edge(0, 1));
}

TEST(BipartiteBuilder, RejectsNonPositiveWeights) {
  AdhocNetwork net;
  CodeAssignment asg;
  const NodeId u = net.add_node({{50, 50}, 20});
  BipartiteWeights weights;
  weights.other_weight = 0;
  EXPECT_THROW(build_recode_problem(net, asg, {u}, weights), std::invalid_argument);
}

TEST(BipartiteBuilder, DeduplicatesV1) {
  AdhocNetwork net;
  CodeAssignment asg;
  const NodeId u = net.add_node({{50, 50}, 20});
  asg.set_color(u, 1);
  const RecodeProblem problem = build_recode_problem(net, asg, {u, u, u});
  EXPECT_EQ(problem.v1.size(), 1u);
}

TEST(BipartiteBuilder, EmptyRecodeSet) {
  AdhocNetwork net;
  CodeAssignment asg;
  const RecodeProblem problem = build_recode_problem(net, asg, {});
  EXPECT_EQ(problem.graph.left_size(), 0u);
  EXPECT_EQ(problem.max_color, 0u);
}

// ------------------------------------------- the builder against its spec

/// G' built straight from bipartite_builder.hpp's definition, independent
/// of the builder and of the cached conflict graph: partners come from the
/// digraph (CA1 ∪ CA2), forbidden colors are sorted lists, and every pool
/// color is tested one by one.
struct ReferenceProblem {
  std::vector<NodeId> v1;
  Color max_color = minim::net::kNoColor;
  /// weights[i][c - 1]: the weight of (v1[i], c), 0 when c is forbidden.
  std::vector<std::vector<minim::matching::Weight>> weights;
  std::size_t edge_count = 0;
};

ReferenceProblem reference_recode_problem(const AdhocNetwork& net,
                                          const CodeAssignment& asg,
                                          std::vector<NodeId> v1,
                                          const BipartiteWeights& weights) {
  std::sort(v1.begin(), v1.end());
  v1.erase(std::unique(v1.begin(), v1.end()), v1.end());
  ReferenceProblem ref;
  ref.v1 = v1;
  const auto in_v1 = [&v1](NodeId v) {
    return std::binary_search(v1.begin(), v1.end(), v);
  };
  std::vector<std::vector<Color>> forbidden;
  for (NodeId u : v1) {
    std::vector<NodeId> partners = minim::test::ids(net.hearers_of(u));
    for (NodeId w : net.heard_by(u)) partners.push_back(w);
    for (NodeId k : net.hearers_of(u))
      for (NodeId w : net.heard_by(k))
        if (w != u) partners.push_back(w);
    std::vector<Color> colors;
    for (NodeId w : partners)
      if (!in_v1(w) && asg.color(w) != minim::net::kNoColor)
        colors.push_back(asg.color(w));
    std::sort(colors.begin(), colors.end());
    colors.erase(std::unique(colors.begin(), colors.end()), colors.end());
    if (!colors.empty()) ref.max_color = std::max(ref.max_color, colors.back());
    ref.max_color = std::max(ref.max_color, asg.color(u));
    forbidden.push_back(std::move(colors));
  }
  for (std::uint32_t i = 0; i < v1.size(); ++i) {
    ref.weights.emplace_back(ref.max_color, 0);
    for (Color c = 1; c <= ref.max_color; ++c) {
      if (std::binary_search(forbidden[i].begin(), forbidden[i].end(), c)) continue;
      ref.weights[i][c - 1] = c == asg.color(v1[i]) ? weights.old_color_weight
                                                    : weights.other_weight;
      ++ref.edge_count;
    }
  }
  return ref;
}

void expect_matches_reference(const AdhocNetwork& net, const CodeAssignment& asg,
                              const std::vector<NodeId>& v1,
                              const BipartiteWeights& weights) {
  const RecodeProblem built = build_recode_problem(net, asg, v1, weights);
  const ReferenceProblem ref = reference_recode_problem(net, asg, v1, weights);
  ASSERT_EQ(built.v1, ref.v1);
  ASSERT_EQ(built.max_color, ref.max_color);
  ASSERT_EQ(built.graph.left_size(), ref.v1.size());
  ASSERT_EQ(built.graph.right_size(), ref.max_color);
  ASSERT_EQ(built.graph.edge_count(), ref.edge_count);
  // Every cell, the zero (forbidden) ones included.
  for (std::uint32_t i = 0; i < ref.v1.size(); ++i)
    for (std::uint32_t r = 0; r < ref.max_color; ++r)
      ASSERT_EQ(built.graph.weight(i, r), ref.weights[i][r])
          << "member " << i << " color " << r + 1;
}

TEST(BipartiteBuilder, MatchesDefinitionAcrossBitsetWordBoundaries) {
  // Pool bounds on both sides of each 64-color word edge, so forbidden rows
  // end exactly at, one short of and one past a word.
  for (const Color bound : {63u, 64u, 65u, 127u, 128u, 129u}) {
    Rng rng(1000 + bound);
    std::size_t hits = 0;
    for (int round = 0; round < 30; ++round) {
      // Nodes packed into one corner, so recode sets are large; a far-away
      // node holds a color far above the local pool and must not widen it.
      AdhocNetwork net;
      CodeAssignment asg;
      const std::size_t n = 20 + rng.below(40);
      for (std::size_t i = 0; i < n; ++i) {
        const NodeId v = net.add_node(
            {{rng.uniform(0, 40), rng.uniform(0, 40)}, rng.uniform(4, 16)});
        if (rng.below(10) != 0)  // ~10% stay uncolored
          asg.set_color(v, 1 + static_cast<Color>(rng.below(bound)));
      }
      const NodeId far = net.add_node({{99, 99}, 0.5});
      asg.set_color(far, 10 * bound);
      ASSERT_EQ(net.conflict_graph().degree(far), 0u);

      // Minim's recode set: an event node and its in-neighbors.  Some
      // rounds take an arbitrary node subset instead, repeats included.
      const NodeId event = static_cast<NodeId>(rng.below(n));
      std::vector<NodeId> v1 = minim::test::ids(net.heard_by(event));
      v1.push_back(event);
      if (round % 4 == 3) {
        v1.clear();
        for (std::size_t k = 0; k < 12; ++k)
          v1.push_back(static_cast<NodeId>(rng.below(n)));
        v1.push_back(v1.front());
      }
      // One member holds the bound itself; on some rounds another member is
      // uncolored, as move_clears_mover leaves the mover.
      const NodeId top = v1[rng.below(v1.size())];
      asg.set_color(top, bound);
      if (round % 3 == 1)
        for (NodeId u : v1)
          if (u != top) {
            asg.clear(u);
            break;
          }

      BipartiteWeights weights;
      if (round % 2 == 1) {
        weights.old_color_weight = 7;
        weights.other_weight = 2;
      }
      ASSERT_NO_FATAL_FAILURE(expect_matches_reference(net, asg, v1, weights))
          << "bound " << bound << " round " << round;
      if (build_recode_problem(net, asg, v1).max_color == bound) ++hits;
    }
    EXPECT_EQ(hits, 30u) << "bound " << bound;
  }
}

TEST(BipartiteBuilder, MatchesDefinitionOnDegenerateSets) {
  Rng rng(17);
  AdhocNetwork net;
  CodeAssignment asg;
  for (int i = 0; i < 30; ++i) {
    const NodeId v = net.add_node(
        {{rng.uniform(0, 50), rng.uniform(0, 50)}, rng.uniform(5, 20)});
    asg.set_color(v, 1 + static_cast<Color>(rng.below(70)));
  }
  ASSERT_NO_FATAL_FAILURE(expect_matches_reference(net, asg, {}, {}));
  ASSERT_NO_FATAL_FAILURE(expect_matches_reference(net, asg, {3, 3, 3}, {}));
  ASSERT_NO_FATAL_FAILURE(expect_matches_reference(net, asg, {9, 2, 9, 2, 5}, {}));
  // An uncolored lone member with no colored partners: an empty pool.
  AdhocNetwork lone;
  CodeAssignment none;
  const NodeId v = lone.add_node({{50, 50}, 10});
  ASSERT_NO_FATAL_FAILURE(expect_matches_reference(lone, none, {v}, {}));
}

// ------------------------------------------------- weights are load-bearing

TEST(WeightScheme, UniformWeightsLoseMinimalitySomewhere) {
  // Thm 4.1.8 needs weight 3 > 1 + 1.  With uniform weights the matcher may
  // displace old colors; across many random joins we must find at least one
  // event where the uniform variant recodes more than the bound (and the
  // paper scheme never does).
  MinimStrategy::Params uniform_params;
  uniform_params.weights.old_color_weight = 1;
  bool witness = false;
  for (std::uint64_t seed = 1; seed <= 20 && !witness; ++seed) {
    Rng rng(seed * 13);
    World world = build_world(25, 20.5, 30.5, rng);
    // Fork the world; apply one more join under each variant.
    const minim::net::NodeConfig config{{rng.uniform(0, 100), rng.uniform(0, 100)},
                                        rng.uniform(20.5, 30.5)};
    AdhocNetwork net_u = world.network;
    CodeAssignment asg_u = world.assignment;
    const NodeId id_u = net_u.add_node(config);
    const std::size_t bound = minim::net::minimal_recoding_bound(net_u, asg_u, id_u);
    MinimStrategy uniform(uniform_params);
    const auto report_u = uniform.on_join(net_u, asg_u, id_u);
    ASSERT_TRUE(minim::net::is_valid(net_u, asg_u));  // still correct!
    if (report_u.recodings() > bound + 1) witness = true;
  }
  EXPECT_TRUE(witness) << "uniform weights never exceeded the bound in 20 worlds";
}

TEST(WeightScheme, Weight2StillMinimalOnPairFreeInstances) {
  // 2 > 1 but 2 < 1 + 1 + epsilon... the exchange argument needs
  // old > other + other; with old=2, other=1 a kept color can be traded for
  // two matched nodes without losing weight, so minimality *can* break —
  // but correctness never does.  We just assert validity across a sweep.
  MinimStrategy::Params params;
  params.weights.old_color_weight = 2;
  MinimStrategy strategy(params);
  Rng rng(77);
  AdhocNetwork net;
  CodeAssignment asg;
  for (int i = 0; i < 40; ++i) {
    const NodeId id = net.add_node(
        {{rng.uniform(0, 100), rng.uniform(0, 100)}, rng.uniform(20.5, 30.5)});
    strategy.on_join(net, asg, id);
    ASSERT_TRUE(minim::net::is_valid(net, asg));
  }
}

TEST(WeightScheme, CardinalityMatcherValidButNotMinimal) {
  MinimStrategy::Params params;
  params.matcher = MinimStrategy::Matcher::kCardinality;
  MinimStrategy cardinality(params);
  MinimStrategy exact;

  double cardinality_total = 0;
  double exact_total = 0;
  for (std::uint64_t seed : {3u, 4u, 5u}) {
    Rng rng_a(seed);
    Rng rng_b(seed);
    AdhocNetwork net_a;
    CodeAssignment asg_a;
    AdhocNetwork net_b;
    CodeAssignment asg_b;
    for (int i = 0; i < 35; ++i) {
      const minim::net::NodeConfig config{{rng_a.uniform(0, 100), rng_a.uniform(0, 100)},
                                          rng_a.uniform(20.5, 30.5)};
      rng_b.uniform(0, 1);  // keep streams aligned (unused)
      const NodeId id_a = net_a.add_node(config);
      cardinality_total += static_cast<double>(
          cardinality.on_join(net_a, asg_a, id_a).recodings());
      ASSERT_TRUE(minim::net::is_valid(net_a, asg_a));
      const NodeId id_b = net_b.add_node(config);
      exact_total += static_cast<double>(exact.on_join(net_b, asg_b, id_b).recodings());
    }
  }
  EXPECT_GE(cardinality_total, exact_total);
}

// ----------------------------------------------------------- report basics

TEST(RecodeReport, EventTypeNames) {
  EXPECT_EQ(minim::core::to_string(EventType::kJoin), "join");
  EXPECT_EQ(minim::core::to_string(EventType::kLeave), "leave");
  EXPECT_EQ(minim::core::to_string(EventType::kMove), "move");
  EXPECT_EQ(minim::core::to_string(EventType::kPowerIncrease), "power-increase");
  EXPECT_EQ(minim::core::to_string(EventType::kPowerDecrease), "power-decrease");
}

TEST(RecodeReport, FinalizeComputesNetworkMax) {
  AdhocNetwork net;
  CodeAssignment asg;
  asg.set_color(net.add_node({{10, 10}, 5}), 4);
  asg.set_color(net.add_node({{90, 90}, 5}), 9);
  minim::core::RecodeReport report;
  finalize_report(net, asg, report);
  EXPECT_EQ(report.max_color_after, 9u);
}

}  // namespace
