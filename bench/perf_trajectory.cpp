// Perf-trajectory harness: times the repo's slowest bench workloads — the
// paper-size x-grids behind the fig10_join / fig11_power_increase smokes,
// plus bench_cdma_drive's N x raise_factor grid study — on one thread, and
// records the wall clocks in BENCH_sweep.json (schema v2: an append-only
// *trajectory* of labeled entries, so the committed file shows each
// optimization's before/after).
//
// Modes:
//   default       run the benches and append a labeled entry to --out
//   --check[=F]   run the benches and compare against the most recent entry
//                 of F that covers them (default: the --out file); exit 1
//                 when any benchmark's wall clock exceeds baseline *
//                 --check-factor, or when none had a baseline
//                 (bench::check_measurements).  Nothing is written.  CI runs
//                 it as an advisory gate.
//
// Options:
//   --runs=N          Monte-Carlo runs per figure point (default 2, = CI smoke)
//   --trials=N        trials per grid-study point (default 2)
//   --seed=S          master seed (default 2001)
//   --label=NAME      entry label (default "run")
//   --out=FILE        trajectory path (default BENCH_sweep.json)
//   --check[=FILE]    compare mode (see above)
//   --check-factor=X  allowed slowdown factor (default 1.5 — generous,
//                     CI machines are noisy)

#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "../bench/bench_util.hpp"
#include "../bench/trajectory.hpp"
#include "sim/experiment.hpp"
#include "sim/sweeps.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

namespace {

using namespace minim;
using bench::Measurement;
using bench::TrajectoryEntry;

template <typename Fn>
Measurement timed(const std::string& name, Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::cout << "  " << name << ": " << util::fmt_fixed(elapsed, 2) << " s\n";
  Measurement m;
  m.name = name;
  m.wall_s = elapsed;
  return m;
}

/// The three benchmark workloads, each timed on `sweep.threads` threads.
std::vector<Measurement> run_benchmarks(const sim::SweepOptions& sweep,
                                        std::size_t trials) {
  std::vector<Measurement> measurements;

  // The exact sweeps bench_fig10_join runs (paper-size x-grids; the
  // distributed-only sub-figures are filtered, not re-simulated).
  measurements.push_back(timed("bench.fig10_join", [&] {
    sim::SweepOptions all = sweep;
    all.strategies = bench::kFig10Strategies;
    sim::sweep_join_vs_n(bench::kFig10Ns, all);
    sim::sweep_join_vs_avg_range(bench::kFig10AvgRanges, all);
  }));

  // The exact sweep bench_fig11_power_increase runs.
  measurements.push_back(timed("bench.fig11_power_increase", [&] {
    sim::SweepOptions all = sweep;
    all.strategies = bench::kFig11Strategies;
    sim::sweep_power_vs_raise_factor(bench::kFig11RaiseFactors, all);
  }));

  // The grid study: bench_cdma_drive's N x raise_factor power grid.
  measurements.push_back(timed("bench.grid_study", [&] {
    bench::make_experiment("power",
                           "n:40:60:80:100,raise_factor:1.5:2.5:3.5:4.5:5.5",
                           {"minim", "cp", "bbb"})
        .run({.trials = trials, .seed = sweep.seed, .threads = sweep.threads});
  }));

  return measurements;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Options options(argc, argv);
  bench::exit_on_unread_flags(options, "perf_trajectory",
                              {"runs", "trials", "seed", "out", "label",
                               "check", "check-factor"});
  sim::SweepOptions sweep;
  sweep.runs = options.get_count("runs", 2);
  sweep.seed = static_cast<std::uint64_t>(options.get_int("seed", 2001));
  // Every committed entry is serial, and a pool would time the machine's
  // core count along with the code.
  sweep.threads = 1;
  const auto trials = options.get_count("trials", 2);
  const std::string out_path = options.get("out", "BENCH_sweep.json");
  const bool check = options.has("check");
  const std::string check_path =
      options.get("check", "") == "true" || options.get("check", "").empty()
          ? out_path
          : options.get("check", out_path);
  const double check_factor = options.get_double("check-factor", 1.5);

  // Resolve the baseline/trajectory before spending minutes measuring: a
  // missing baseline in check mode or an unparseable --out file (which an
  // append would silently overwrite) must fail immediately.
  std::vector<TrajectoryEntry> trajectory =
      bench::load_trajectory(check ? check_path : out_path);
  if (check && trajectory.empty()) {
    std::cerr << "--check: no baseline entries in " << check_path << "\n";
    return 1;
  }
  if (!check && trajectory.empty() && !bench::read_file(out_path).empty()) {
    std::cerr << out_path
              << " exists but is not a recognizable trajectory; refusing to "
                 "overwrite it\n";
    return 1;
  }

  std::cout << "=== Perf trajectory (runs=" << sweep.runs
            << ", trials=" << trials << ") ===\n";
  const std::vector<Measurement> measurements = run_benchmarks(sweep, trials);

  if (check) {
    std::cout << "checking against " << check_path << " (factor "
              << util::fmt_fixed(check_factor, 2) << ")\n";
    const bench::CheckResult outcome = bench::check_measurements(
        trajectory, measurements, bench::kWallClock, check_factor, "perf check");
    return outcome.pass() ? 0 : 1;
  }

  TrajectoryEntry entry;
  entry.label = options.get("label", "run");
  entry.config_json = "{\"runs\": " + std::to_string(sweep.runs) +
                      ", \"trials\": " + std::to_string(trials) +
                      ", \"threads\": 1, \"seed\": " +
                      std::to_string(sweep.seed) + "}";
  entry.benchmarks = measurements;
  trajectory.push_back(std::move(entry));

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << " for writing\n";
    return 1;
  }
  bench::write_trajectory(out, trajectory);
  std::cout << "[json] wrote " << out_path << " (" << trajectory.size()
            << (trajectory.size() == 1 ? " entry" : " entries") << ")\n";
  return 0;
}
