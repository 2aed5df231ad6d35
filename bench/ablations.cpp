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
//
// Sections A-D are lanes of one 80-join grid and E of one movement grid:
// every variant replays the same seeded workloads (--runs, default 60,
// --seed default 99).  The Minim variants of A, B and E are strategies the
// grids' factory builds by row label.

#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "../bench/bench_util.hpp"
#include "core/minim.hpp"
#include "sim/experiment.hpp"
#include "strategies/factory.hpp"
#include "util/options.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace minim;
using Params = core::MinimStrategy::Params;
using Matcher = core::MinimStrategy::Matcher;

/// One explicitly-parameterized Minim under its row label.
struct Variant {
  std::string label;
  Params params;
};

// Sections A (matcher), B (old-color weight) and E (move semantics).
const std::vector<Variant> kMatchers{
    {"hungarian (paper)", {}},
    {"greedy 1/2-approx", {.matcher = Matcher::kGreedy}},
    {"max-cardinality", {.matcher = Matcher::kCardinality}}};
const std::vector<Variant> kWeights{
    {"weight 3 (paper)", {.weights = {.old_color_weight = 3}}},
    {"weight 2", {.weights = {.old_color_weight = 2}}},
    {"weight 1 (uniform)", {.weights = {.old_color_weight = 1}}}};
const std::vector<Variant> kMoves{
    {"mover keeps preference (Fig 8)", {}},
    {"mover rejoins uncolored (Thm 4.4.1)", {.move_clears_mover = true}}};

/// A grid of `kind` on `n` nodes whose lanes are `variants` (built by label)
/// followed by the factory strategies `named`.
sim::ExperimentGrid variant_grid(sim::ScenarioKind kind, std::size_t n,
                                 const std::vector<Variant>& variants,
                                 const std::vector<std::string>& named) {
  sim::ExperimentGrid grid;
  grid.base.kind = kind;
  grid.axes.push_back({"n", {static_cast<double>(n)}});
  grid.strategies.clear();
  for (const Variant& variant : variants) grid.strategies.push_back(variant.label);
  grid.strategies.insert(grid.strategies.end(), named.begin(), named.end());
  grid.strategy_factory = [variants](const std::string& name) -> core::StrategyPtr {
    for (const Variant& variant : variants)
      if (variant.label == name)
        return std::make_unique<core::MinimStrategy>(variant.params);
    return strategies::make_strategy(name);
  };
  return grid;
}

/// One row per variant: mean max color and mean recodings over the trials
/// (with `delta`, the recodings since the joins).
void print_variants(const std::string& title, const std::string& recodings,
                    const sim::ExperimentResult& result,
                    const std::vector<Variant>& variants, bool delta) {
  util::TextTable table(title);
  table.set_header({"variant", "max color", recodings});
  for (const Variant& variant : variants) {
    const auto lane = static_cast<std::size_t>(
        std::find(result.strategies.begin(), result.strategies.end(),
                  variant.label) -
        result.strategies.begin());
    util::RunningStats colors;
    util::RunningStats recoded;
    for (const sim::RunOutcome& trial : result.cell(0, lane).trials) {
      colors.add(trial.final_max_color());
      recoded.add(delta ? trial.delta_recodings() : trial.total_recodings());
    }
    table.add_row({variant.label, util::fmt_fixed(colors.mean(), 2),
                   util::fmt_fixed(recoded.mean(), 2)});
  }
  std::cout << table.render() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const util::Options options(argc, argv);
  bench::exit_on_unread_flags(options, "ablations", bench::kSweepFlags);
  const sim::ExperimentOptions run =
      bench::sweep_options_from(options, /*runs=*/60, /*seed=*/99);

  std::cout << "=== Ablations ===\n\n";

  // ---- A-D: 80 joins ----
  {
    std::vector<Variant> variants = kMatchers;
    variants.insert(variants.end(), kWeights.begin(), kWeights.end());
    const std::vector<std::string> cp{"cp", "cp-lowest", "cp-exact", "minim"};
    const std::vector<std::string> bbb{"bbb", "bbb-dsatur", "bbb-largest",
                                       "bbb-identity"};
    std::vector<std::string> named = cp;
    named.insert(named.end(), bbb.begin(), bbb.end());
    const sim::ExperimentResult result =
        sim::Experiment(variant_grid(sim::ScenarioKind::kJoin, 80, variants, named))
            .run(run);

    print_variants("A. Matching engine in RecodeOnJoin (80 joins)",
                   "total recodings", result, kMatchers, false);
    print_variants("B. Old-color edge weight (80 joins)", "total recodings",
                   result, kWeights, false);
    bench::print_series("C. CP variants, recodings (80 joins)", "N", result,
                        bench::Metric::kRecodings, options, "ablation_cp_order",
                        cp);
    bench::print_series("C'. CP variants, max color (80 joins)", "N", result,
                        bench::Metric::kColor, options, "ablation_cp_color", cp);
    bench::print_series("D. BBB coloring order, max colors (80 joins)", "N",
                        result, bench::Metric::kColor, options,
                        "ablation_bbb_order", bbb);
  }

  // ---- E: move semantics ----
  {
    sim::ExperimentGrid grid = variant_grid(sim::ScenarioKind::kMove, 40, kMoves, {});
    grid.base.move_rounds = 3;
    const sim::ExperimentResult result = sim::Experiment(std::move(grid)).run(run);
    print_variants("E. Minim move semantics (40 nodes, 3 movement rounds)",
                   "delta recodings", result, kMoves, true);
  }
  return 0;
}
