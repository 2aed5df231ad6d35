// Ablation studies for five design choices of the reproduction:
//
//  A. Matching engine inside Minim's RecodeOnJoin: exact max-weight
//     (Hungarian, the paper) vs greedy 1/2-approx vs max-cardinality.
//     Shows that the exact solver is what delivers minimal recoding.
//  B. Old-color edge weight: the paper's 3 vs 2 vs 1 (uniform).  3 > 1+1 is
//     the smallest integer weight that protects kept colors from being
//     displaced by two weight-1 edges; weight 2 can trade a kept color for
//     two matched nodes, weight 1 ignores history entirely.
//  C. CP identity order: highest-first (paper's figures) vs lowest-first.
//  D. BBB coloring order: smallest-last vs DSATUR vs largest-first vs
//     identity.
//  E. Minim move semantics: mover keeps-preference (weight-3 edge, Fig 8)
//     vs literal leave+join (Thm 4.4.1).

#include <iostream>

#include "../bench/bench_util.hpp"
#include "core/minim.hpp"
#include "sim/replay.hpp"
#include "sim/sweeps.hpp"
#include "sim/workload.hpp"
#include "util/options.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace minim;

/// Replays join workloads under an explicitly-parameterized MinimStrategy.
void minim_variant_row(util::TextTable& table, const std::string& label,
                       const core::MinimStrategy::Params& params, std::size_t runs,
                       std::uint64_t seed, bool movement) {
  util::RunningStats colors;
  util::RunningStats recodings;
  for (std::size_t run = 0; run < runs; ++run) {
    util::Rng rng = util::Rng::for_stream(seed, run);
    sim::WorkloadParams wp;
    wp.n = movement ? 40 : 80;
    const sim::Workload workload =
        movement ? sim::make_move_workload(wp, 40.0, 3, rng)
                 : sim::make_join_workload(wp, rng);
    core::MinimStrategy strategy(params);
    const auto outcome = sim::replay(workload, strategy);
    colors.add(outcome.final_max_color());
    recodings.add(movement ? outcome.delta_recodings() : outcome.total_recodings());
  }
  table.add_row({label, util::fmt_fixed(colors.mean(), 2),
                 util::fmt_fixed(recodings.mean(), 2)});
}

}  // namespace

int main(int argc, char** argv) {
  const util::Options options(argc, argv);
  const auto runs =
      options.get_count("runs", options.get_bool("fast", false) ? 10 : 60);
  const auto seed = static_cast<std::uint64_t>(options.get_int("seed", 99));

  std::cout << "=== Ablations ===\n\n";

  // ---- A: matcher engine ----
  {
    util::TextTable table("A. Matching engine in RecodeOnJoin (80 joins)");
    table.set_header({"variant", "max color", "total recodings"});
    core::MinimStrategy::Params p;
    minim_variant_row(table, "hungarian (paper)", p, runs, seed, false);
    p.matcher = core::MinimStrategy::Matcher::kGreedy;
    minim_variant_row(table, "greedy 1/2-approx", p, runs, seed, false);
    p.matcher = core::MinimStrategy::Matcher::kCardinality;
    minim_variant_row(table, "max-cardinality", p, runs, seed, false);
    std::cout << table.render() << "\n";
  }

  // ---- B: old-color weight ----
  {
    util::TextTable table("B. Old-color edge weight (80 joins)");
    table.set_header({"variant", "max color", "total recodings"});
    for (const auto& [label, w] :
         std::vector<std::pair<std::string, matching::Weight>>{
             {"weight 3 (paper)", 3}, {"weight 2", 2}, {"weight 1 (uniform)", 1}}) {
      core::MinimStrategy::Params p;
      p.weights.old_color_weight = w;
      minim_variant_row(table, label, p, runs, seed, false);
    }
    std::cout << table.render() << "\n";
  }

  // ---- C: CP identity order ----
  {
    util::Options forwarded = options;
    auto sweep =
        bench::sweep_options_from(options, {"cp", "cp-lowest", "cp-exact", "minim"});
    sweep.runs = runs;
    sweep.seed = seed;
    const auto points = sim::sweep_join_vs_n({80}, sweep);
    bench::print_series("C. CP variants, recodings (80 joins)", "N", points,
                        bench::Metric::kRecodings, options, "ablation_cp_order");
    bench::print_series("C'. CP variants, max color (80 joins)", "N", points,
                        bench::Metric::kColor, options, "ablation_cp_color");
  }

  // ---- D: BBB coloring order ----
  {
    auto sweep = bench::sweep_options_from(
        options, {"bbb", "bbb-dsatur", "bbb-largest", "bbb-identity"});
    sweep.runs = runs;
    sweep.seed = seed;
    const auto points = sim::sweep_join_vs_n({80}, sweep);
    bench::print_series("D. BBB coloring order, max colors (80 joins)", "N", points,
                        bench::Metric::kColor, options, "ablation_bbb_order");
  }

  // ---- E: move semantics ----
  {
    util::TextTable table("E. Minim move semantics (40 nodes, 3 movement rounds)");
    table.set_header({"variant", "max color", "delta recodings"});
    core::MinimStrategy::Params p;
    minim_variant_row(table, "mover keeps preference (Fig 8)", p, runs, seed, true);
    p.move_clears_mover = true;
    minim_variant_row(table, "mover rejoins uncolored (Thm 4.4.1)", p, runs, seed, true);
    std::cout << table.render() << "\n";
  }
  return 0;
}
