// Distributed-protocol overhead: messages, radio transmissions (hop-count)
// and payload volume per event for the Minim protocols, as a function of
// network density — quantifying the paper's "communication only local to
// the event" claim.  Also benchmarks gossip compaction (the future-work
// extension): how many colors it claws back after churn, and how many
// rounds it needs.

#include <iostream>

#include "../bench/bench_util.hpp"
#include "core/minim.hpp"
#include "net/constraints.hpp"
#include "proto/distributed_cp.hpp"
#include "proto/distributed_minim.hpp"
#include "strategies/gossip.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace minim;

struct World {
  net::AdhocNetwork network{100.0, 100.0};
  net::CodeAssignment assignment;
  std::vector<net::NodeId> ids;
};

World build(std::size_t n, double min_r, double max_r, util::Rng& rng) {
  World world;
  core::MinimStrategy minim;
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = world.network.add_node(
        {{rng.uniform(0, 100), rng.uniform(0, 100)}, rng.uniform(min_r, max_r)});
    minim.on_join(world.network, world.assignment, id);
    world.ids.push_back(id);
  }
  return world;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Options options(argc, argv);
  bench::exit_on_unread_flags(options, "protocol_overhead",
                              {"runs", "fast", "seed"});
  const auto runs = bench::run_count_from(
      options, "runs", options.get_bool("fast", false) ? 10 : 50);
  const auto seed = static_cast<std::uint64_t>(options.get_int("seed", 1234));

  std::cout << "=== Distributed protocol overhead (Minim) ===\n\n";

  util::TextTable join_table("Join protocol cost vs density (N=60)");
  join_table.set_header({"avg range", "in-degree", "messages", "radio tx", "payload",
                         "rounds", "recodings"});
  for (const double avg_range : {10.0, 20.0, 30.0, 40.0}) {
    util::RunningStats degree;
    util::RunningStats messages;
    util::RunningStats transmissions;
    util::RunningStats payload;
    util::RunningStats rounds;
    util::RunningStats recodings;
    for (std::size_t run = 0; run < runs; ++run) {
      util::Rng rng = util::Rng::for_stream(seed, run);
      World world = build(60, avg_range - 2.5, avg_range + 2.5, rng);
      const auto joiner = world.network.add_node(
          {{rng.uniform(0, 100), rng.uniform(0, 100)},
           rng.uniform(avg_range - 2.5, avg_range + 2.5)});
      proto::DistributedMinim protocol;
      const auto result = protocol.join(world.network, world.assignment, joiner);
      degree.add(static_cast<double>(world.network.heard_by(joiner).size()));
      messages.add(static_cast<double>(result.cost.messages));
      transmissions.add(static_cast<double>(result.cost.hop_count));
      payload.add(static_cast<double>(result.cost.payload_items));
      rounds.add(static_cast<double>(result.cost.rounds));
      recodings.add(static_cast<double>(result.report.recodings()));
    }
    join_table.add_row({util::fmt_fixed(avg_range, 1), util::fmt_fixed(degree.mean(), 1),
                        util::fmt_fixed(messages.mean(), 1),
                        util::fmt_fixed(transmissions.mean(), 1),
                        util::fmt_fixed(payload.mean(), 1),
                        util::fmt_fixed(rounds.mean(), 1),
                        util::fmt_fixed(recodings.mean(), 2)});
  }
  std::cout << join_table.render() << "\n";

  // Head-to-head: Minim's locally-centralized exchange vs CP's
  // peer-coordinated rounds, on identical joins.
  std::cout << "=== Minim vs CP distributed cost per join (N=60) ===\n\n";
  util::TextTable duel("Same joins, both protocols (means over runs)");
  duel.set_header({"avg range", "minim msgs", "cp msgs", "minim radio tx",
                   "cp radio tx", "minim rounds", "cp rounds"});
  for (const double avg_range : {15.0, 25.0, 35.0}) {
    util::RunningStats mm;
    util::RunningStats cm;
    util::RunningStats mt;
    util::RunningStats ct;
    util::RunningStats mr;
    util::RunningStats cr;
    for (std::size_t run = 0; run < runs; ++run) {
      util::Rng rng = util::Rng::for_stream(seed + 99, run);
      World world = build(60, avg_range - 2.5, avg_range + 2.5, rng);
      const net::NodeConfig config{{rng.uniform(0, 100), rng.uniform(0, 100)},
                                   rng.uniform(avg_range - 2.5, avg_range + 2.5)};
      // Two identical copies of the world, one per protocol.
      auto net_m = world.network;
      auto asg_m = world.assignment;
      const auto id_m = net_m.add_node(config);
      proto::DistributedMinim minim_protocol;
      const auto rm = minim_protocol.join(net_m, asg_m, id_m);

      auto net_c = world.network;
      auto asg_c = world.assignment;
      const auto id_c = net_c.add_node(config);
      proto::DistributedCp cp_protocol;
      const auto rc = cp_protocol.join(net_c, asg_c, id_c);

      mm.add(static_cast<double>(rm.cost.messages));
      cm.add(static_cast<double>(rc.cost.messages));
      mt.add(static_cast<double>(rm.cost.hop_count));
      ct.add(static_cast<double>(rc.cost.hop_count));
      mr.add(static_cast<double>(rm.cost.rounds));
      cr.add(static_cast<double>(rc.cost.rounds));
    }
    duel.add_row({util::fmt_fixed(avg_range, 1), util::fmt_fixed(mm.mean(), 1),
                  util::fmt_fixed(cm.mean(), 1), util::fmt_fixed(mt.mean(), 1),
                  util::fmt_fixed(ct.mean(), 1), util::fmt_fixed(mr.mean(), 1),
                  util::fmt_fixed(cr.mean(), 1)});
  }
  std::cout << duel.render() << "\n";

  std::cout << "=== Gossip color compaction (paper future work) ===\n\n";
  util::TextTable gossip_table("Compaction after churn (N=80 joins, half leave)");
  gossip_table.set_header(
      {"leave fraction", "max color before", "max color after", "recodings", "rounds"});
  for (const double leave_fraction : {0.25, 0.5, 0.75}) {
    util::RunningStats before;
    util::RunningStats after;
    util::RunningStats recodings;
    util::RunningStats rounds;
    for (std::size_t run = 0; run < runs; ++run) {
      util::Rng rng = util::Rng::for_stream(seed + 17, run);
      World world = build(80, 20.5, 30.5, rng);
      const auto leavers = static_cast<std::size_t>(
          leave_fraction * static_cast<double>(world.ids.size()));
      for (std::size_t i = 0; i < leavers; ++i) {
        const std::size_t pick = rng.below(world.ids.size());
        world.network.remove_node(world.ids[pick]);
        world.assignment.clear(world.ids[pick]);
        world.ids.erase(world.ids.begin() + static_cast<std::ptrdiff_t>(pick));
      }
      const auto result =
          strategies::gossip_compact(world.network, world.assignment);
      before.add(result.max_color_before);
      after.add(result.max_color_after);
      recodings.add(static_cast<double>(result.recodings));
      rounds.add(static_cast<double>(result.rounds));
    }
    gossip_table.add_row(
        {util::fmt_fixed(leave_fraction, 2), util::fmt_fixed(before.mean(), 2),
         util::fmt_fixed(after.mean(), 2), util::fmt_fixed(recodings.mean(), 1),
         util::fmt_fixed(rounds.mean(), 1)});
  }
  std::cout << gossip_table.render() << "\n";
  return 0;
}
