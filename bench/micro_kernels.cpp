// google-benchmark microbenchmarks for the algorithmic kernels:
// max-weight matching, conflict-graph coloring, spatial-grid queries,
// the end-to-end join operation, the batched bounded BBB repair, and the
// CDMA PHY hot path.

#include <benchmark/benchmark.h>

#include <vector>

#include "core/minim.hpp"
#include "matching/hungarian.hpp"
#include "net/conflict_graph.hpp"
#include "net/constraints.hpp"
#include "net/network.hpp"
#include "radio/phy.hpp"
#include "serve/engine.hpp"
#include "sim/trace.hpp"
#include "strategies/bbb.hpp"
#include "strategies/coloring.hpp"
#include "util/rng.hpp"

namespace {

using namespace minim;

matching::BipartiteGraph random_bipartite(std::uint32_t left, std::uint32_t right,
                                          double density, util::Rng& rng) {
  matching::BipartiteGraph g(left, right);
  for (std::uint32_t i = 0; i < left; ++i)
    for (std::uint32_t j = 0; j < right; ++j)
      if (rng.chance(density)) g.add_edge(i, j, rng.chance(0.3) ? 3 : 1);
  return g;
}

net::AdhocNetwork random_network(std::size_t n, double min_r, double max_r,
                                 util::Rng& rng) {
  net::AdhocNetwork network;
  for (std::size_t i = 0; i < n; ++i)
    network.add_node({{rng.uniform(0, 100), rng.uniform(0, 100)},
                      rng.uniform(min_r, max_r)});
  return network;
}

void BM_MaxWeightMatching(benchmark::State& state) {
  util::Rng rng(7);
  const auto size = static_cast<std::uint32_t>(state.range(0));
  const auto g = random_bipartite(size, size * 2, 0.5, rng);
  for (auto _ : state) {
    auto result = matching::max_weight_matching(g);
    benchmark::DoNotOptimize(result.total_weight);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MaxWeightMatching)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Complexity();

void BM_ConflictColoring(benchmark::State& state) {
  util::Rng rng(8);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto network = random_network(n, 20.5, 30.5, rng);
  for (auto _ : state) {
    net::CodeAssignment assignment;
    const auto colors = strategies::color_network(
        network, strategies::ColoringOrder::kSmallestLast, assignment);
    benchmark::DoNotOptimize(colors);
  }
}
BENCHMARK(BM_ConflictColoring)->Arg(40)->Arg(80)->Arg(120);

void BM_DSaturColoring(benchmark::State& state) {
  util::Rng rng(9);
  const auto network = random_network(80, 20.5, 30.5, rng);
  for (auto _ : state) {
    net::CodeAssignment assignment;
    const auto colors = strategies::color_network(
        network, strategies::ColoringOrder::kDSatur, assignment);
    benchmark::DoNotOptimize(colors);
  }
}
BENCHMARK(BM_DSaturColoring);

void BM_MinimJoin(benchmark::State& state) {
  util::Rng rng(10);
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    net::AdhocNetwork network;
    net::CodeAssignment assignment;
    core::MinimStrategy minim;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      const auto id = network.add_node(
          {{rng.uniform(0, 100), rng.uniform(0, 100)}, rng.uniform(20.5, 30.5)});
      minim.on_join(network, assignment, id);
    }
    const auto last = network.add_node({{50, 50}, 25.0});
    state.ResumeTiming();
    minim.on_join(network, assignment, last);
  }
}
BENCHMARK(BM_MinimJoin)->Arg(40)->Arg(80)->Arg(120)->Unit(benchmark::kMicrosecond);

void BM_ConflictPartners(benchmark::State& state) {
  util::Rng rng(11);
  const auto network = random_network(100, 20.5, 30.5, rng);
  const auto nodes = network.nodes();
  std::size_t i = 0;
  for (auto _ : state) {
    auto partners = net::conflict_partners(network, nodes[i % nodes.size()]);
    benchmark::DoNotOptimize(partners.data());
    ++i;
  }
}
BENCHMARK(BM_ConflictPartners);

// ---- conflict-graph maintenance: full build vs incremental update ----

void BM_ConflictGraphFullBuild(benchmark::State& state) {
  // Cost of constructing the CA1/CA2 adjacency from scratch — what every
  // event used to pay before the incremental cache.
  util::Rng rng(15);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto network = random_network(n, 20.5, 30.5, rng);
  for (auto _ : state) {
    auto cg = net::ConflictGraph::build_from(network.graph());
    benchmark::DoNotOptimize(cg.pair_count());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ConflictGraphFullBuild)->Arg(50)->Arg(100)->Arg(200)->Complexity();

void BM_ConflictGraphIncrementalMove(benchmark::State& state) {
  // Cost of one move event's cache deltas (includes digraph + grid upkeep);
  // compare against BM_ConflictGraphFullBuild at the same N.
  util::Rng rng(16);
  const auto n = static_cast<std::size_t>(state.range(0));
  auto network = random_network(n, 20.5, 30.5, rng);
  const auto nodes = network.nodes();
  std::size_t i = 0;
  for (auto _ : state) {
    network.set_position(nodes[i % nodes.size()],
                         {rng.uniform(0, 100), rng.uniform(0, 100)});
    benchmark::DoNotOptimize(network.conflict_graph().pair_count());
    ++i;
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ConflictGraphIncrementalMove)->Arg(50)->Arg(100)->Arg(200)->Complexity();

void BM_ConflictGraphDenseChurn(benchmark::State& state) {
  // perfbench dense-churn's field: 300 nodes on 100x100, ranges 10-25
  // (out-degree ~28, conflict rows ~75 partners).  Each iteration is one
  // uniform relocation plus one leave-and-rejoin, so it runs every kind of
  // fan: out and in, stale and fresh.  The rejoin takes the freed id back,
  // so ids stay 0..299.
  constexpr std::size_t kNodes = 300;
  util::Rng rng(18);
  auto network = random_network(kNodes, 10.0, 25.0, rng);
  for (auto _ : state) {
    const auto mover = static_cast<net::NodeId>(rng.below(kNodes));
    network.set_position(mover, {rng.uniform(0, 100), rng.uniform(0, 100)});
    network.remove_node(static_cast<net::NodeId>(rng.below(kNodes)));
    network.add_node({{rng.uniform(0, 100), rng.uniform(0, 100)},
                      rng.uniform(10.0, 25.0)});
    benchmark::DoNotOptimize(network.conflict_graph().pair_count());
  }
}
BENCHMARK(BM_ConflictGraphDenseChurn)->Unit(benchmark::kMicrosecond);

// ---- greedy coloring: the scratch-buffer loop ----

void BM_GreedyColorScratch(benchmark::State& state) {
  // Identity-order coloring through the cached-adjacency scratch loop.
  util::Rng rng(17);
  const auto network = random_network(100, 20.5, 30.5, rng);
  net::CodeAssignment assignment;
  for (auto _ : state) {
    const auto colors = strategies::color_network(
        network, strategies::ColoringOrder::kIdentity, assignment);
    benchmark::DoNotOptimize(colors);
  }
}
BENCHMARK(BM_GreedyColorScratch);

// ---- BBB event handling: one from-scratch recolor per event ----

void BM_BbbEvent(benchmark::State& state) {
  // 200 nodes at ranges 10-15: each iteration toggles one node's power and
  // lets BBB recolor the whole network.
  util::Rng rng(18);
  auto network = random_network(200, 10.5, 15.5, rng);
  net::CodeAssignment assignment;
  strategies::BbbStrategy bbb(strategies::ColoringOrder::kSmallestLast);
  const auto nodes = network.nodes();
  std::size_t i = 0;
  for (auto _ : state) {
    const net::NodeId v = nodes[i % nodes.size()];
    const double old_range = network.config(v).range;
    network.set_range(v, old_range < 13.0 ? old_range * 1.1 : old_range / 1.1);
    const auto report = bbb.on_power_change(network, assignment, v, old_range);
    benchmark::DoNotOptimize(report.changes.size());
    ++i;
  }
}
BENCHMARK(BM_BbbEvent)->Unit(benchmark::kMicrosecond);

void BM_GridRebuildVsBruteForce(benchmark::State& state) {
  // Cost of one incremental move update (grid-backed) — compare against
  // BM_BruteForceRebuild below for the ablation.
  util::Rng rng(12);
  auto network = random_network(100, 20.5, 30.5, rng);
  const auto nodes = network.nodes();
  std::size_t i = 0;
  for (auto _ : state) {
    network.set_position(nodes[i % nodes.size()],
                         {rng.uniform(0, 100), rng.uniform(0, 100)});
    ++i;
  }
}
BENCHMARK(BM_GridRebuildVsBruteForce);

void BM_BruteForceRebuild(benchmark::State& state) {
  util::Rng rng(13);
  const auto network = random_network(100, 20.5, 30.5, rng);
  for (auto _ : state) {
    auto g = network.rebuild_graph_brute_force();
    benchmark::DoNotOptimize(g.edge_count());
  }
}
BENCHMARK(BM_BruteForceRebuild);

// ---- batched recolor ----

/// `clusters` far-apart clusters of `per_cluster` nodes each on a 4-wide
/// grid of centers, so a batch dirties several distant regions.
net::AdhocNetwork clustered_network(std::size_t clusters,
                                    std::size_t per_cluster, util::Rng& rng) {
  net::AdhocNetwork network;
  for (std::size_t c = 0; c < clusters; ++c) {
    const double cx = static_cast<double>(c % 4) * 30.0 + 10.0;
    const double cy = static_cast<double>(c / 4) * 30.0 + 10.0;
    for (std::size_t i = 0; i < per_cluster; ++i)
      network.add_node({{cx + rng.uniform(-2.0, 2.0),
                         cy + rng.uniform(-2.0, 2.0)},
                        rng.uniform(2.0, 4.0)});
  }
  return network;
}

void BM_BbbBatchRecolorSerial(benchmark::State& state) {
  // One 64-event churn batch through the serving engine on a clustered
  // field, bounded path pinned on (dirty-fraction gate disarmed, budget
  // widened) so the loop times propagation, not fallbacks.
  util::Rng rng(20);
  const auto clusters = static_cast<std::size_t>(state.range(0));
  const std::size_t per_cluster = 12;
  const std::size_t live = clusters * per_cluster;

  sim::Trace joins;
  sim::Trace churn;
  {
    const auto seeded = clustered_network(clusters, per_cluster, rng);
    for (net::NodeId v : seeded.nodes()) {
      sim::TraceEvent e;
      e.kind = sim::TraceEvent::Kind::kJoin;
      e.position = seeded.config(v).position;
      e.range = seeded.config(v).range;
      joins.push_back(e);
    }
  }
  for (std::size_t i = 0; i < 4096; ++i) {
    sim::TraceEvent e;
    e.kind = sim::TraceEvent::Kind::kPower;
    e.node = rng.below(live);
    e.range = rng.uniform(2.0, 4.0);
    churn.push_back(e);
  }

  strategies::BbbStrategy::Params params;
  params.bounded_propagation = true;
  params.full_recolor_fraction = 1.1;
  params.propagation_slack = 1.0;
  strategies::BbbStrategy bbb(strategies::ColoringOrder::kSmallestLast,
                              params);
  serve::AssignmentEngine engine(bbb);
  engine.apply_batch(joins);

  constexpr std::size_t kBatch = 64;
  std::size_t at = 0;
  for (auto _ : state) {
    if (at + kBatch > churn.size()) at = 0;
    const auto receipt = engine.apply_batch(
        std::span<const sim::TraceEvent>(churn.data() + at, kBatch));
    benchmark::DoNotOptimize(receipt.recoded);
    at += kBatch;
  }
  state.SetLabel(std::to_string(clusters) + " clusters, batch 64");
}
BENCHMARK(BM_BbbBatchRecolorSerial)
    ->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);

void BM_PhyAllTransmit(benchmark::State& state) {
  util::Rng rng(14);
  net::AdhocNetwork network;
  net::CodeAssignment assignment;
  core::MinimStrategy minim;
  for (int i = 0; i < 30; ++i) {
    const auto id = network.add_node(
        {{rng.uniform(0, 100), rng.uniform(0, 100)}, rng.uniform(15, 25)});
    minim.on_join(network, assignment, id);
  }
  radio::PhyParams params;
  params.packet_bits = 32;
  for (auto _ : state) {
    const auto report = radio::simulate_all_transmit(network, assignment, params, rng);
    benchmark::DoNotOptimize(report.total_bits);
  }
  state.SetLabel("30 nodes, 32-bit packets");
}
BENCHMARK(BM_PhyAllTransmit)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
