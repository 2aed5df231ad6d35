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

  const std::vector<double> factors{1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0};

  // `cp-exact` is our reproduction probe: CP with its color rule ported
  // faithfully to the directed model (avoid true CA1/CA2 partners instead
  // of the whole 2-hop ball; `CpStrategy::Vicinity` in strategies/cp.hpp).
  // Fig 11(a)'s Minim-vs-CP ordering is sensitive to this choice;
  // `FigureShapes.Fig11ColorDirectionWithExactVicinityCp` pins the
  // direction the paper reports.
  const auto sweep =
      bench::sweep_options_from(options, {"minim", "cp", "cp-exact", "bbb"});

  std::cout << "=== Figure 11: node power increase ===\n"
            << "N=100 joins, then half the nodes raise range by raisefactor; "
               "delta metrics vs post-join state.\n\n";

  {
    const auto points = sim::sweep_power_vs_raise_factor(factors, sweep);
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
