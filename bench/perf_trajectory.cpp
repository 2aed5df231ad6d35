// Perf-trajectory harness: times the repo's slowest bench workloads — the
// paper-size x-grids behind the fig10_join / fig11_power_increase smokes,
// plus bench_cdma_drive's N x raise_factor grid study — and records the wall
// clocks in BENCH_sweep.json (schema v2: an append-only *trajectory* of
// labeled entries, so the committed file shows each optimization's
// before/after).
//
// Modes:
//   default       run the benches and append a labeled entry to --out
//                 (a v1 file is upgraded in place, its measurement kept as
//                 the "baseline" entry).  Unless --threads pins a single
//                 pool size, every benchmark is measured at 1 thread AND at
//                 hardware concurrency (suffix "@tN"), so the trajectory
//                 tracks parallel scaling alongside serial wall-clock.
//   --check[=F]   run the benches (at --threads, default 1) and compare
//                 against the most recent entry of F that covers them
//                 (default: the --out file); exit 1 when any benchmark's
//                 wall clock exceeds baseline * --check-factor.  Nothing is
//                 written.  This is the CI regression gate.
//
// Options:
//   --runs=N          Monte-Carlo runs per figure point (default 2, = CI smoke)
//   --trials=N        trials per grid-study point (default 2)
//   --threads=T       pool size (record mode default: sweep {1, hardware})
//   --seed=S          master seed (default 2001)
//   --label=NAME      entry label (default "run")
//   --out=FILE        trajectory path (default BENCH_sweep.json)
//   --check[=FILE]    compare mode (see above)
//   --check-factor=X  allowed slowdown factor (default 1.5 — generous,
//                     CI machines are noisy)

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
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

/// The three benchmark workloads at one pool size.  `suffix` is "" for the
/// canonical single-thread measurements and "@tN" for the scaling ones.
std::vector<Measurement> run_benchmarks(const sim::SweepOptions& sweep,
                                        std::size_t trials,
                                        const std::string& suffix) {
  std::vector<Measurement> measurements;

  // The exact sweeps bench_fig10_join runs (paper-size x-grids; the
  // distributed-only sub-figures are filtered, not re-simulated).
  measurements.push_back(timed("bench.fig10_join" + suffix, [&] {
    sim::SweepOptions all = sweep;
    all.strategies = bench::kFig10Strategies;
    sim::sweep_join_vs_n(bench::kFig10Ns, all);
    sim::sweep_join_vs_avg_range(bench::kFig10AvgRanges, all);
  }));

  // The exact sweep bench_fig11_power_increase runs.
  measurements.push_back(timed("bench.fig11_power_increase" + suffix, [&] {
    sim::SweepOptions all = sweep;
    all.strategies = bench::kFig11Strategies;
    sim::sweep_power_vs_raise_factor(bench::kFig11RaiseFactors, all);
  }));

  // The grid study: bench_cdma_drive's N x raise_factor power grid.
  measurements.push_back(timed("bench.grid_study" + suffix, [&] {
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
  sim::SweepOptions sweep;
  sweep.runs = options.get_count("runs", 2);
  sweep.seed = static_cast<std::uint64_t>(options.get_int("seed", 2001));
  const auto trials = options.get_count("trials", 2);
  const bool threads_pinned = options.has("threads");
  const auto pinned_threads = options.get_count("threads", 0);
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

  const std::size_t hardware =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::vector<std::size_t> thread_counts;
  if (check) {
    // The canonical (unsuffixed) baselines are serial; default the gate to
    // 1 thread so a multi-core machine cannot mask a serial regression.
    thread_counts.push_back(threads_pinned ? pinned_threads : 1);
  } else if (threads_pinned) {
    thread_counts.push_back(pinned_threads);
  } else {
    // Record mode sweeps serial and full-parallel so the trajectory also
    // tracks parallel scaling.
    thread_counts.push_back(1);
    if (hardware > 1) thread_counts.push_back(hardware);
  }

  std::cout << "=== Perf trajectory (runs=" << sweep.runs
            << ", trials=" << trials << ") ===\n";

  std::vector<Measurement> measurements;
  for (const std::size_t threads : thread_counts) {
    sim::SweepOptions pool = sweep;
    pool.threads = threads;
    // Measurement names carry the resolved pool size: canonical names are
    // serial-only, so a --threads=8 run can never poison a serial baseline.
    const std::size_t resolved = threads ? threads : hardware;
    const std::string suffix =
        resolved == 1 ? "" : "@t" + std::to_string(resolved);
    auto batch = run_benchmarks(pool, trials, suffix);
    measurements.insert(measurements.end(), batch.begin(), batch.end());
  }

  if (check) {
    std::cout << "checking against " << check_path << " (factor "
              << util::fmt_fixed(check_factor, 2) << ")\n";
    // The shared gate (bench/trajectory.hpp): wall clocks above
    // baseline * factor fail, "@tN" scaling names skip single-core
    // baselines, and a run where nothing compared (and nothing was
    // legitimately skipped) fails rather than passing vacuously.
    const bench::CheckResult outcome =
        bench::check_measurements(trajectory, measurements, check_factor);
    if (outcome.compared == 0 && outcome.skipped == 0)
      std::cout << "perf check: FAIL (no measurement had a baseline)\n";
    else
      std::cout << (outcome.pass() ? "perf check: PASS\n"
                                   : "perf check: FAIL\n");
    return outcome.pass() ? 0 : 1;
  }

  std::ostringstream config;
  config << "{\"runs\": " << sweep.runs << ", \"trials\": " << trials
         << ", \"threads\": [";
  for (std::size_t i = 0; i < thread_counts.size(); ++i)
    config << (i ? ", " : "")
           << (thread_counts[i] ? thread_counts[i] : hardware);
  config << "], \"seed\": " << sweep.seed;
  // A 1-core machine collapses the threads sweep to the serial column; mark
  // the entry so --check on a multi-core machine skips scaling comparisons
  // against it (bench::entry_single_core).
  if (hardware == 1) config << ", \"single_core\": true";
  config << "}";
  TrajectoryEntry entry;
  entry.label = options.get("label", "run");
  entry.config_json = config.str();
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
