// Reproduces Figure 11 (Simulation Results - Node Power Increase).
//
// Experiment (paper Section 5.2): build the Section 5.1 network (N=100,
// minr=20.5, maxr=30.5) with each strategy, then raise the transmission
// range of a random half of the nodes by `raisefactor`.  Metrics are deltas
// relative to the post-join state: Δ(max color index) and Δ(#recodings).
//   (a) Δ(max color) vs raisefactor  - Minim/CP/BBB
//   (b) Δ(#recodings) vs raisefactor - Minim/CP/BBB
//   (c) Δ(#recodings) vs raisefactor - Minim/CP
//
// Expected shape (paper): CP slightly beats Minim on Δ(max color) — Minim's
// power-increase rule recodes n with the lowest *available* color and never
// touches anyone else — while Minim wins Δ(#recodings) by a wide margin.

#include <iostream>

#include "../bench/bench_util.hpp"
#include "sim/sweeps.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) {
  using namespace minim;
  const util::Options options(argc, argv);

  const auto sweep = bench::sweep_options_from(options, bench::kFig11Strategies);

  std::cout << "=== Figure 11: node power increase ===\n"
            << "N=100 joins, then half the nodes raise range by raisefactor; "
               "delta metrics vs post-join state.\n\n";

  {
    const auto points = sim::sweep_power_vs_raise_factor(bench::kFig11RaiseFactors, sweep);
    bench::print_series("Fig 11(a): delta max color index vs raisefactor",
                        "raisefactor", points, bench::Metric::kColor, options,
                        "fig11a");
    bench::print_series("Fig 11(b): delta total recodings vs raisefactor",
                        "raisefactor", points, bench::Metric::kRecodings, options,
                        "fig11b");
    // (c) is the minim/cp sub-series of the same sweep (strategy lanes are
    // independent) — filtered, not re-simulated.
    const auto distributed = bench::filter_strategies(points, {"minim", "cp"});
    bench::print_series(
        "Fig 11(c): delta total recodings vs raisefactor (distributed only)",
        "raisefactor", distributed, bench::Metric::kRecodings, options, "fig11c");
  }
  return 0;
}
