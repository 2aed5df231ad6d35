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
#include "sim/sweeps.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) {
  using namespace minim;
  const util::Options options(argc, argv);
  bench::exit_on_unread_flags(options, "fig10_join", bench::kSweepFlags);

  const auto sweep = bench::sweep_options_from(options, bench::kFig10Strategies);

  std::cout << "=== Figure 10: node join ===\n"
            << "N joins on 100x100 field; metrics after the full join "
               "sequence; mean +- 95% CI over runs.\n\n";

  {
    const auto points = sim::sweep_join_vs_n(bench::kFig10Ns, sweep);
    bench::print_series("Fig 10(a): max color index vs N (minr=20.5, maxr=30.5)",
                        "N", points, bench::Metric::kColor, options, "fig10a");
    bench::print_series("Fig 10(b): total recodings vs N", "N", points,
                        bench::Metric::kRecodings, options, "fig10b");
    // (c) is the minim/cp sub-series of the same sweep (strategy lanes are
    // independent) — filtered, not re-simulated.
    const auto distributed = bench::filter_strategies(points, {"minim", "cp"});
    bench::print_series("Fig 10(c): total recodings vs N (distributed only)", "N",
                        distributed, bench::Metric::kRecodings, options, "fig10c");
  }
  {
    const auto points = sim::sweep_join_vs_avg_range(bench::kFig10AvgRanges, sweep);
    bench::print_series(
        "Fig 10(d): max color index vs avg range (N=100, maxr-minr=5)", "avgR",
        points, bench::Metric::kColor, options, "fig10d");
    bench::print_series("Fig 10(e): total recodings vs avg range", "avgR", points,
                        bench::Metric::kRecodings, options, "fig10e");
    const auto distributed = bench::filter_strategies(points, {"minim", "cp"});
    bench::print_series("Fig 10(f): total recodings vs avg range (distributed only)",
                        "avgR", distributed, bench::Metric::kRecodings, options,
                        "fig10f");
  }
  return 0;
}
