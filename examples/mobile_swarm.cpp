// Mobile swarm scenario — the paper's introduction cites "networks formed
// on the fly by satellite constellations, on the battlefield etc." and hard
// real-time applications where every recoding threatens deadlines.
//
// A reconnaissance swarm of units patrols waypoints in formation; units
// boost transmission power when they stray from their squad and cut it when
// they regroup.  We track, round by round, the cumulative recodings under
// Minim vs CP, then demonstrate the gossip compaction pass (the paper's
// future work) reclaiming code space during a quiet period.
//
// Run:  ./build/examples/example_mobile_swarm [--units=24] [--rounds=12] [--seed=3]

#include <cmath>
#include <iostream>
#include <numbers>
#include <vector>

#include "net/constraints.hpp"
#include "sim/simulation.hpp"
#include "strategies/factory.hpp"
#include "strategies/gossip.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace minim;

namespace {

struct PatrolStep {
  std::size_t unit;
  util::Vec2 position;
  double range;  // 0 = unchanged
};

/// Squads orbit waypoints; every few rounds a squad relocates across the
/// field.  Deterministic given the rng, shared across strategies.
std::vector<std::vector<PatrolStep>> plan_patrol(std::size_t units,
                                                 std::size_t rounds,
                                                 util::Rng& rng) {
  const std::size_t squads = 4;
  std::vector<util::Vec2> waypoint(squads);
  for (auto& w : waypoint) w = {rng.uniform(20, 80), rng.uniform(20, 80)};

  std::vector<std::vector<PatrolStep>> plan(rounds);
  for (std::size_t round = 0; round < rounds; ++round) {
    if (round % 4 == 3)  // squad redeployment
      waypoint[rng.below(squads)] = {rng.uniform(10, 90), rng.uniform(10, 90)};
    for (std::size_t u = 0; u < units; ++u) {
      const std::size_t squad = u % squads;
      const double angle = rng.uniform(0, 2 * std::numbers::pi);
      const double orbit = rng.uniform(2, 12);
      const util::Vec2 target =
          util::clamp_to_box(waypoint[squad] + util::Vec2::from_angle(angle) * orbit,
                             100, 100);
      // Straggler far from the waypoint boosts power to stay connected.
      const double stray = util::distance(target, waypoint[squad]);
      const double range = stray > 8 ? 30.0 : 18.0;
      plan[round].push_back({u, target, range});
    }
  }
  return plan;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Options options(argc, argv);
  const auto units = options.get_count("units", 24);
  const auto rounds = options.get_count("rounds", 12);
  const auto seed = static_cast<std::uint64_t>(options.get_int("seed", 3));

  util::Rng rng(seed);
  // Shared deployment and patrol plan.
  std::vector<net::NodeConfig> deployment;
  for (std::size_t u = 0; u < units; ++u)
    deployment.push_back({{rng.uniform(30, 70), rng.uniform(30, 70)}, 18.0});
  const auto plan = plan_patrol(units, rounds, rng);

  std::cout << "=== Mobile swarm: " << units << " units, " << rounds
            << " patrol rounds ===\n\n";

  util::TextTable table("Cumulative recodings by round (lower = fewer stream "
                        "interruptions)");
  table.set_header({"round", "Minim", "CP", "Minim codes", "CP codes"});

  const auto minim = strategies::make_strategy("minim");
  const auto cp = strategies::make_strategy("cp");
  sim::Simulation sim_minim(*minim);
  sim::Simulation sim_cp(*cp);
  std::vector<net::NodeId> ids_minim;
  std::vector<net::NodeId> ids_cp;
  for (const auto& config : deployment) {
    ids_minim.push_back(sim_minim.join(config));
    ids_cp.push_back(sim_cp.join(config));
  }

  for (std::size_t round = 0; round < rounds; ++round) {
    for (const auto& step : plan[round]) {
      sim_minim.move(ids_minim[step.unit], step.position);
      sim_cp.move(ids_cp[step.unit], step.position);
      if (step.range > 0) {
        if (sim_minim.network().config(ids_minim[step.unit]).range != step.range)
          sim_minim.change_power(ids_minim[step.unit], step.range);
        if (sim_cp.network().config(ids_cp[step.unit]).range != step.range)
          sim_cp.change_power(ids_cp[step.unit], step.range);
      }
    }
    table.add_row({std::to_string(round + 1),
                   std::to_string(sim_minim.totals().recodings),
                   std::to_string(sim_cp.totals().recodings),
                   std::to_string(sim_minim.max_color()),
                   std::to_string(sim_cp.max_color())});
  }
  std::cout << table.render() << "\n";

  // Quiet period: the swarm holds position; gossip compaction reclaims codes.
  auto network = sim_minim.network();
  auto assignment = sim_minim.assignment();
  const auto gossip = strategies::gossip_compact(network, assignment);
  std::cout << "Quiet-period gossip compaction (paper future work): max code "
            << gossip.max_color_before << " -> " << gossip.max_color_after << " in "
            << gossip.rounds << " rounds (" << gossip.recodings
            << " voluntary recodings)\n";
  std::cout << "assignment still valid: "
            << (net::is_valid(network, assignment) ? "yes" : "NO") << "\n";
  return 0;
}
