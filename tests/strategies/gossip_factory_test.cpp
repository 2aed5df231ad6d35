// Gossip color compaction (the paper's future-work extension) and the
// strategy factory.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "../helpers.hpp"
#include "net/constraints.hpp"
#include "strategies/factory.hpp"
#include "strategies/gossip.hpp"
#include "util/rng.hpp"

namespace {

using minim::net::AdhocNetwork;
using minim::net::CodeAssignment;
using minim::net::Color;
using minim::net::NodeId;
using minim::strategies::gossip_compact;
using minim::strategies::GossipParams;
using minim::strategies::GossipResult;
using minim::test::build_world;
using minim::test::World;
using minim::util::Rng;

TEST(Gossip, PreservesValidity) {
  Rng rng(91);
  World world = build_world(50, 20.5, 30.5, rng);
  ASSERT_TRUE(minim::net::is_valid(world.network, world.assignment));
  gossip_compact(world.network, world.assignment);
  EXPECT_TRUE(minim::net::is_valid(world.network, world.assignment));
}

TEST(Gossip, NeverIncreasesMaxColor) {
  Rng rng(92);
  World world = build_world(50, 20.5, 30.5, rng);
  const GossipResult result = gossip_compact(world.network, world.assignment);
  EXPECT_LE(result.max_color_after, result.max_color_before);
  EXPECT_EQ(result.max_color_after,
            world.assignment.max_color(world.network.nodes()));
}

TEST(Gossip, ReachesGreedyStableFixedPoint) {
  // After convergence no node can lower its color unilaterally.
  Rng rng(93);
  World world = build_world(40, 20.5, 30.5, rng);
  gossip_compact(world.network, world.assignment);
  for (NodeId v : world.network.nodes()) {
    const auto forbidden =
        minim::net::forbidden_colors(world.network, world.assignment, v);
    EXPECT_GE(minim::net::lowest_free_color(forbidden),
              world.assignment.color(v))
        << "node " << v << " could still compact";
  }
}

TEST(Gossip, CompactsArtificiallyInflatedColors) {
  // Isolated nodes painted with huge colors must all drop to 1.
  AdhocNetwork net;
  CodeAssignment asg;
  for (int i = 0; i < 5; ++i) {
    const NodeId v = net.add_node({{static_cast<double>(20 * i), 90}, 1.0});
    asg.set_color(v, static_cast<Color>(50 + i));
  }
  const GossipResult result = gossip_compact(net, asg);
  EXPECT_EQ(result.max_color_after, 1u);
  EXPECT_EQ(result.recodings, 5u);
  for (NodeId v : net.nodes()) EXPECT_EQ(asg.color(v), 1u);
}

TEST(Gossip, QuietNetworkConvergesInOneRound) {
  AdhocNetwork net;
  CodeAssignment asg;
  const NodeId a = net.add_node({{0, 0}, 10.0});
  const NodeId b = net.add_node({{5, 0}, 10.0});
  asg.set_color(a, 1);
  asg.set_color(b, 2);
  const GossipResult result = gossip_compact(net, asg);
  EXPECT_EQ(result.recodings, 0u);
  EXPECT_EQ(result.rounds, 1u);  // the single quiet pass
}

TEST(Gossip, RandomOrderStillConvergesAndStaysValid) {
  Rng rng(94);
  World world = build_world(40, 20.5, 30.5, rng);
  Rng order_rng(4242);
  GossipParams params;
  params.rng = &order_rng;
  const GossipResult result = gossip_compact(world.network, world.assignment, params);
  EXPECT_TRUE(minim::net::is_valid(world.network, world.assignment));
  EXPECT_LE(result.max_color_after, result.max_color_before);
}

TEST(Gossip, RoundLimitRespected) {
  Rng rng(95);
  World world = build_world(40, 20.5, 30.5, rng);
  GossipParams params;
  params.max_rounds = 1;
  const GossipResult result = gossip_compact(world.network, world.assignment, params);
  EXPECT_EQ(result.rounds, 1u);
  EXPECT_TRUE(minim::net::is_valid(world.network, world.assignment));
}

// ------------------------------------------------------------------ factory

/// The names `known_strategy_names()` lists ("a, b, c").
std::vector<std::string> known_names() {
  std::vector<std::string> names;
  std::istringstream list(minim::strategies::known_strategy_names());
  for (std::string name; std::getline(list >> std::ws, name, ',');)
    names.push_back(name);
  return names;
}

TEST(Factory, BuildsEveryKnownStrategy) {
  const std::vector<std::string> names = known_names();
  // The list must have split into names: the strategy perfbench serves is
  // one of them.
  ASSERT_NE(std::find(names.begin(), names.end(), "bbb-bounded"), names.end());
  for (const std::string& name : names) {
    const auto strategy = minim::strategies::make_strategy(name);
    ASSERT_NE(strategy, nullptr) << name;
    EXPECT_FALSE(strategy->name().empty());
  }
}

TEST(Factory, UnknownNameThrowsWithHelp) {
  try {
    minim::strategies::make_strategy("nope");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("minim"), std::string::npos);
  }
}

TEST(Factory, EveryKnownStrategySurvivesASmallWorkload) {
  for (const std::string& name : known_names()) {
    Rng rng(96);
    AdhocNetwork net;
    CodeAssignment asg;
    const auto strategy = minim::strategies::make_strategy(name);
    for (int i = 0; i < 15; ++i) {
      const NodeId id = net.add_node(
          {{rng.uniform(0, 100), rng.uniform(0, 100)}, rng.uniform(15, 35)});
      strategy->on_join(net, asg, id);
      ASSERT_TRUE(minim::net::is_valid(net, asg)) << name << " join " << i;
    }
  }
}

}  // namespace
