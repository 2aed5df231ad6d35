// Reproduces Figure 12 (Simulation Results - Node Movement).
//
// Experiment (paper Section 5.3): build the Section 5.1 network with N=40,
// minr=20.5, maxr=30.5; then run RoundNo rounds in which every node moves
// once, one by one, in a uniform random direction by a displacement uniform
// in [0, maxdisp] (clamped to the field).  Delta metrics vs post-join state.
//   (a) Δ(#recodings) vs maxdisp (RoundNo=1)  - Minim/CP
//   (b) Δ(max color) vs RoundNo (maxdisp=40)  - Minim/CP/BBB
//   (c) Δ(#recodings) vs RoundNo              - Minim/CP/BBB
//   (d) Δ(#recodings) vs RoundNo              - Minim/CP
//
// Expected shape (paper): Minim trails CP by at most a couple of colors in
// (b) but saves hundreds of recodings by round 10 in (c,d).

#include <iostream>

#include "../bench/bench_util.hpp"
#include "sim/sweeps.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) {
  using namespace minim;
  const util::Options options(argc, argv);
  bench::exit_on_unread_flags(options, "fig12_movement", bench::kSweepFlags);

  const std::vector<double> displacements{0, 10, 20, 30, 40, 50, 60, 70, 80};
  const std::vector<double> rounds{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};

  const auto distributed_sweep = bench::sweep_options_from(options, {"minim", "cp"});
  const auto all_sweep = bench::sweep_options_from(options, {"minim", "cp", "bbb"});

  std::cout << "=== Figure 12: node movement ===\n"
            << "N=40 joins, then movement rounds (every node moves once per "
               "round); delta metrics vs post-join state.\n\n";

  {
    const auto points =
        sim::sweep_move_vs_max_displacement(displacements, distributed_sweep);
    bench::print_series("Fig 12(a): delta recodings vs maxdisp (RoundNo=1)",
                        "maxdisp", points, bench::Metric::kRecodings, options,
                        "fig12a");
  }
  {
    const auto points = sim::sweep_move_vs_rounds(rounds, all_sweep);
    bench::print_series("Fig 12(b): delta max color vs RoundNo (maxdisp=40)",
                        "RoundNo", points, bench::Metric::kColor, options, "fig12b");
    bench::print_series("Fig 12(c): delta recodings vs RoundNo", "RoundNo", points,
                        bench::Metric::kRecodings, options, "fig12c");
    // (d) is the minim/cp sub-series of the same sweep (strategy lanes are
    // independent) — filtered, not re-simulated.
    const auto distributed = bench::filter_strategies(points, {"minim", "cp"});
    bench::print_series("Fig 12(d): delta recodings vs RoundNo (distributed only)",
                        "RoundNo", distributed, bench::Metric::kRecodings, options,
                        "fig12d");
  }
  return 0;
}
