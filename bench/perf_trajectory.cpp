// Perf-trajectory harness: times the repo's slowest bench workloads — the
// paper-size figure grids bench_fig10_join and bench_fig11_power_increase
// plot (bench_util.hpp's definitions), plus bench_cdma_drive's
// N x raise_factor grid study — on one thread, and
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

/// The three benchmark workloads, each timed on `figures.threads` threads:
/// the figure grids at `figures`, the grid study at `trials` trials.
std::vector<Measurement> run_benchmarks(const sim::ExperimentOptions& figures,
                                        std::size_t trials) {
  std::vector<Measurement> measurements;

  // The grids bench_fig10_join plots.
  measurements.push_back(timed("bench.fig10_join", [&] {
    sim::Experiment(bench::fig10_n_grid()).run(figures);
    sim::Experiment(bench::fig10_avg_range_grid()).run(figures);
  }));

  // The grid bench_fig11_power_increase plots.
  measurements.push_back(timed("bench.fig11_power_increase", [&] {
    sim::Experiment(bench::fig11_grid()).run(figures);
  }));

  // The grid study: bench_cdma_drive's N x raise_factor power grid.
  measurements.push_back(timed("bench.grid_study", [&] {
    sim::ExperimentOptions study = figures;
    study.trials = trials;
    bench::make_experiment("power",
                           "n:40:60:80:100,raise_factor:1.5:2.5:3.5:4.5:5.5",
                           {"minim", "cp", "bbb"})
        .run(study);
  }));

  return measurements;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Options options(argc, argv);
  bench::exit_on_unread_flags(options, "perf_trajectory",
                              {"runs", "trials", "seed", "out", "label",
                               "check", "check-factor"});
  sim::ExperimentOptions figures;
  figures.trials = bench::run_count_from(options, "runs", 2);
  figures.seed = static_cast<std::uint64_t>(options.get_int("seed", 2001));
  // Every committed entry is serial, and a pool would time the machine's
  // core count along with the code.
  figures.threads = 1;
  const auto trials = bench::run_count_from(options, "trials", 2);
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

  std::cout << "=== Perf trajectory (runs=" << figures.trials
            << ", trials=" << trials << ") ===\n";
  const std::vector<Measurement> measurements = run_benchmarks(figures, trials);

  if (check) {
    std::cout << "checking against " << check_path << " (factor "
              << util::fmt_fixed(check_factor, 2) << ")\n";
    const bench::CheckResult outcome = bench::check_measurements(
        trajectory, measurements, bench::kWallClock, check_factor, "perf check");
    return outcome.pass() ? 0 : 1;
  }

  TrajectoryEntry entry;
  entry.label = options.get("label", "run");
  entry.config_json = "{\"runs\": " + std::to_string(figures.trials) +
                      ", \"trials\": " + std::to_string(trials) +
                      ", \"threads\": 1, \"seed\": " +
                      std::to_string(figures.seed) + "}";
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
