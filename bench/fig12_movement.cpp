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
#include "sim/experiment.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) {
  using namespace minim;
  const util::Options options(argc, argv);
  bench::exit_on_unread_flags(options, "fig12_movement", bench::kSweepFlags);
  const sim::ExperimentOptions run = bench::sweep_options_from(options);

  std::cout << "=== Figure 12: node movement ===\n"
            << "N=40 joins, then movement rounds (every node moves once per "
               "round); delta metrics vs post-join state.\n\n";

  {
    const auto result = sim::Experiment(bench::fig12_displacement_grid()).run(run);
    bench::print_series("Fig 12(a): delta recodings vs maxdisp (RoundNo=1)",
                        "maxdisp", result, bench::Metric::kDeltaRecodings,
                        options, "fig12a");
  }
  {
    const auto result = sim::Experiment(bench::fig12_rounds_grid()).run(run);
    bench::print_series("Fig 12(b): delta max color vs RoundNo (maxdisp=40)",
                        "RoundNo", result, bench::Metric::kDeltaColor, options,
                        "fig12b");
    bench::print_series("Fig 12(c): delta recodings vs RoundNo", "RoundNo", result,
                        bench::Metric::kDeltaRecodings, options, "fig12c");
    bench::print_series("Fig 12(d): delta recodings vs RoundNo (distributed only)",
                        "RoundNo", result, bench::Metric::kDeltaRecodings,
                        options, "fig12d", {"minim", "cp"});
  }
  return 0;
}
