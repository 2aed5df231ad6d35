// Reproduces Figure 10 (Simulation Results - Node Join) of
// "Minimal CDMA Recoding Strategies in Power-Controlled Ad-Hoc Wireless
// Networks" (Gupta, 2001).
//
// Experiment (paper Section 5.1): N nodes consecutively join a 100x100
// field; positions uniform, ranges uniform in (minr, maxr).  Metrics after
// all joins: maximum color index assigned and total number of recodings.
// Sub-figures:
//   (a) max color vs N                (minr=20.5, maxr=30.5) - Minim/CP/BBB
//   (b) #recodings vs N               - Minim/CP/BBB
//   (c) #recodings vs N               - Minim/CP (readable zoom of (b))
//   (d) max color vs avg range        (N=100, maxr-minr=5)   - Minim/CP/BBB
//   (e) #recodings vs avg range       - Minim/CP/BBB
//   (f) #recodings vs avg range       - Minim/CP
//
// Every point is the mean over --runs (default 100) seeded Monte-Carlo runs;
// all strategies replay identical workloads (paired comparison).

#include <iostream>

#include "../bench/bench_util.hpp"
#include "sim/experiment.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) {
  using namespace minim;
  const util::Options options(argc, argv);
  bench::exit_on_unread_flags(options, "fig10_join", bench::kSweepFlags);
  const sim::ExperimentOptions run = bench::sweep_options_from(options);

  std::cout << "=== Figure 10: node join ===\n"
            << "N joins on 100x100 field; metrics after the full join "
               "sequence; mean +- 95% CI over runs.\n\n";

  {
    const auto result = sim::Experiment(bench::fig10_n_grid()).run(run);
    bench::print_series("Fig 10(a): max color index vs N (minr=20.5, maxr=30.5)",
                        "N", result, bench::Metric::kColor, options, "fig10a");
    bench::print_series("Fig 10(b): total recodings vs N", "N", result,
                        bench::Metric::kRecodings, options, "fig10b");
    bench::print_series("Fig 10(c): total recodings vs N (distributed only)", "N",
                        result, bench::Metric::kRecodings, options, "fig10c",
                        {"minim", "cp"});
  }
  {
    const auto result = sim::Experiment(bench::fig10_avg_range_grid()).run(run);
    bench::print_series(
        "Fig 10(d): max color index vs avg range (N=100, maxr-minr=5)", "avgR",
        result, bench::Metric::kColor, options, "fig10d");
    bench::print_series("Fig 10(e): total recodings vs avg range", "avgR", result,
                        bench::Metric::kRecodings, options, "fig10e");
    bench::print_series("Fig 10(f): total recodings vs avg range (distributed only)",
                        "avgR", result, bench::Metric::kRecodings, options,
                        "fig10f", {"minim", "cp"});
  }
  return 0;
}
