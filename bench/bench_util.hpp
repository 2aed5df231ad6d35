#pragma once

// Shared plumbing for the figure harnesses: render a sweep as the paper's
// table (x column + one column per strategy, mean over runs with the 95% CI
// half-width), and optionally dump raw CSV for offline plotting.
//
// Every harness honours:
//   --runs=N       Monte-Carlo runs per point (default 100, as in the paper)
//   --seed=S       master seed (default 2001)
//   --threads=T    worker threads (default: hardware)
//   --csv-dir=DIR  write <name>.csv series files into DIR
//   --fast         shorthand for --runs=10 (CI smoke)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "net/network.hpp"
#include "sim/experiment_io.hpp"
#include "sim/orchestrator.hpp"
#include "sim/sweeps.hpp"
#include "util/csv.hpp"
#include "util/options.hpp"
#include "util/subprocess.hpp"
#include "util/table.hpp"

namespace minim::bench {

// --------------------------------------------------------- memory profiling

/// Peak resident set size of this process in bytes (Linux VmHWM); 0 when the
/// platform does not expose it.  Monotone over the process lifetime, so
/// harnesses that scale a size axis should run it ascending and snapshot
/// after each stage.
inline std::size_t peak_rss_bytes() {
#if defined(__linux__)
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  std::size_t kib = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = static_cast<std::size_t>(std::strtoull(line + 6, nullptr, 10));
      break;
    }
  }
  std::fclose(status);
  return kib * 1024;
#else
  return 0;
#endif
}

/// Engine-footprint report for the large-N benches: heap bytes reachable
/// from the network's hot structures, normalized per live node.
struct MemoryProfile {
  std::size_t engine_bytes = 0;
  std::size_t nodes = 0;
  double bytes_per_node = 0.0;
};

inline MemoryProfile memory_profile(const net::AdhocNetwork& network) {
  MemoryProfile profile;
  profile.engine_bytes = network.memory_bytes();
  profile.nodes = network.node_count();
  if (profile.nodes > 0)
    profile.bytes_per_node = static_cast<double>(profile.engine_bytes) /
                             static_cast<double>(profile.nodes);
  return profile;
}

/// Splits a comma-separated value on commas, dropping empty fields.
inline std::vector<std::string> split_list(const std::string& raw) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (start <= raw.size()) {
    const std::size_t pos = raw.find(',', start);
    const std::string field =
        raw.substr(start, pos == std::string::npos ? pos : pos - start);
    if (!field.empty()) fields.push_back(field);
    if (pos == std::string::npos) break;
    start = pos + 1;
  }
  return fields;
}

/// Parses a comma-separated string list option ("--strategies=minim,cp");
/// returns `fallback` when the option is absent.
inline std::vector<std::string> string_list_from(const util::Options& options,
                                                 const std::string& key,
                                                 std::vector<std::string> fallback) {
  const std::string raw = options.get(key, "");
  return raw.empty() ? fallback : split_list(raw);
}

/// Parses a comma-separated list option ("--ns=40,60,80") into doubles.
inline std::vector<double> double_list_from(const util::Options& options,
                                            const std::string& key,
                                            std::vector<double> fallback) {
  const std::string raw = options.get(key, "");
  if (raw.empty()) return fallback;
  std::vector<double> values;
  for (const std::string& field : split_list(raw)) values.push_back(std::stod(field));
  return values;
}

inline sim::SweepOptions sweep_options_from(const util::Options& options,
                                            std::vector<std::string> strategies) {
  sim::SweepOptions sweep;
  sweep.strategies = std::move(strategies);
  sweep.runs = static_cast<std::size_t>(options.get_int("runs", 100));
  if (options.get_bool("fast", false)) sweep.runs = 10;
  sweep.seed = static_cast<std::uint64_t>(options.get_int("seed", 2001));
  sweep.threads = static_cast<std::size_t>(options.get_int("threads", 0));
  return sweep;
}

// ------------------------------------------------- orchestrated experiments
//
// Driver-aware CLI runner: a harness that routes its experiments through
// `run_experiment_cli` (and dispatches workers via `is_worker` +
// `run_worker_unit`) gains multi-process orchestration for free:
//
//   --orchestrate=K      drive K self-spawned worker processes
//   --units=M            work units to plan (default K)
//   --split=MODE         trials | points | auto (default auto)
//   --max-attempts=A     per-unit attempts, bounded retry (default 3)
//   --worker-timeout=S   per-attempt kill deadline in seconds (default none)
//   --shard-dir=DIR      scratch for shard CSVs/logs/manifest
//                        (default <tag>-orchestrate)
//   --resume             reuse done units from a prior manifest
//   --keep-shards        keep per-unit CSVs/logs after the merge
//   --crash-unit=I       failure injection (tests/CI): the worker for unit I
//                        exits 1 on its first attempt; a marker file next to
//                        the unit CSV makes the retried attempt succeed
//
// Worker-side internal flags (set by the driver, never by hand):
//   --run-unit=pb/pc/tb/tc --unit-out=F --unit-id=I --unit-tag=T

/// Option keys owned by the orchestration layer; never forwarded to workers.
inline const std::vector<std::string>& orchestrate_keys() {
  static const std::vector<std::string> keys{
      "orchestrate", "units",    "split",    "max-attempts",
      "worker-timeout", "shard-dir", "resume", "keep-shards",
      "run-unit",    "unit-out", "unit-id",  "unit-tag"};
  return keys;
}

/// Keys that describe driver-side output, not the experiment; a worker fed
/// one of these would fight the driver over files/stdout.
inline const std::vector<std::string>& driver_output_keys() {
  static const std::vector<std::string> keys{
      "csv-dir", "save-experiment", "serial-check", "selfcheck",
      "shard",   "merge",           "out",          "threads"};
  return keys;
}

/// True when this invocation is an orchestration worker.
inline bool is_worker(const util::Options& options) {
  return options.has("run-unit");
}

/// Parses the worker rectangle "pb/pc/tb/tc" into `run`; exits 2 on a
/// malformed value (driver bug, not user input).
inline void apply_worker_rectangle(const util::Options& options,
                                   sim::ExperimentOptions& run) {
  const std::string raw = options.get("run-unit", "");
  std::size_t fields[4] = {0, 0, 0, 0};
  std::size_t start = 0;
  for (std::size_t f = 0; f < 4; ++f) {
    const std::size_t slash = raw.find('/', start);
    const std::string part =
        raw.substr(start, slash == std::string::npos ? slash : slash - start);
    char* end = nullptr;
    fields[f] = static_cast<std::size_t>(
        std::strtoull(part.c_str(), &end, 10));
    if (part.empty() || end != part.c_str() + part.size() ||
        (f < 3 && slash == std::string::npos)) {
      std::cerr << "--run-unit wants pb/pc/tb/tc, got '" << raw << "'\n";
      std::exit(2);
    }
    start = slash + 1;
  }
  run.point_begin = fields[0];
  run.point_count = fields[1];
  run.trial_begin = fields[2];
  run.trial_count = fields[3];
}

/// Worker side: when `tag` matches this worker's `--unit-tag`, runs the
/// unit's rectangle of `experiment` and writes the shard CSV to
/// `--unit-out`; returns true (the caller returns 0 from main).  Returns
/// false when the tag names one of the harness's other experiments.
///
/// Failure injection: with `--crash-unit` equal to this unit's id, the first
/// attempt writes a marker file and exits 1 before running anything — the
/// driver's bounded retry then runs the unit for real.
inline bool run_worker_unit(const util::Options& options,
                            const sim::Experiment& experiment,
                            sim::ExperimentOptions run, const std::string& tag) {
  if (!is_worker(options)) return false;
  if (options.get("unit-tag", "") != tag) return false;

  const std::string out_path = options.get("unit-out", "");
  if (out_path.empty()) {
    std::cerr << "worker invoked without --unit-out\n";
    std::exit(2);
  }
  if (options.has("crash-unit") &&
      options.get("crash-unit", "") == options.get("unit-id", "?")) {
    const std::string marker = out_path + ".crashed";
    if (!std::ifstream(marker).good()) {
      std::ofstream(marker) << "injected crash\n";
      std::cerr << "[worker] injected crash for unit "
                << options.get("unit-id", "?") << "\n";
      std::exit(1);
    }
  }
  apply_worker_rectangle(options, run);
  sim::write_experiment_csv_file(experiment.run(run), out_path);
  return true;
}

/// Cheap config fingerprint (FNV-1a) over everything that makes two
/// same-shaped studies different: scenario kind and spec knobs, axis names
/// and point coordinates, strategy names, trials, seed.  Recorded in the
/// shard manifest so `--resume` can refuse another study's leftovers.
inline std::string experiment_fingerprint(const sim::Experiment& experiment,
                                          const sim::ExperimentOptions& run) {
  std::uint64_t hash = 1469598103934665603ull;
  const auto mix_bytes = [&hash](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= 1099511628211ull;
    }
  };
  const auto mix = [&mix_bytes](const auto& value) {
    mix_bytes(&value, sizeof value);
  };
  const auto mix_string = [&mix_bytes](const std::string& s) {
    mix_bytes(s.data(), s.size());
    const char end = '\0';
    mix_bytes(&end, 1);
  };

  const sim::ScenarioSpec& base = experiment.grid().base;
  mix(base.kind);
  mix(base.raise_factor);
  mix(base.max_displacement);
  mix(base.move_rounds);
  mix(base.validate);
  mix(base.workload.n);
  mix(base.workload.min_range);
  mix(base.workload.max_range);
  mix(base.workload.width);
  mix(base.workload.height);
  mix(base.workload.placement);
  mix(base.workload.cluster_count);
  mix(base.workload.cluster_sigma);
  mix(base.workload.min_separation);
  mix(base.churn.duration);
  mix(base.churn.arrival_rate);
  mix(base.churn.mean_lifetime);
  mix(base.churn.move_rate);
  mix(base.churn.power_rate);
  for (const sim::GridAxis& axis : experiment.grid().axes) mix_string(axis.name);
  for (const std::vector<double>& point : experiment.points())
    for (double coordinate : point) mix(coordinate);
  for (const std::string& name : experiment.grid().strategies) mix_string(name);
  mix(run.trials);
  mix(run.seed);

  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

/// Driver side: runs `experiment` — orchestrated over self-spawned worker
/// processes when `--orchestrate=K` is present, in-process otherwise.  The
/// merged result is bit-identical either way.  `tag` names this experiment
/// among the harness's experiments (worker dispatch + default scratch dir).
inline sim::ExperimentResult run_experiment_cli(
    const util::Options& options, const sim::Experiment& experiment,
    const sim::ExperimentOptions& run, const std::string& tag) {
  const auto workers =
      static_cast<std::size_t>(options.get_int("orchestrate", 0));
  if (workers == 0) return experiment.run(run);

  sim::OrchestratorOptions orchestration;
  orchestration.experiment = tag + "#" + experiment_fingerprint(experiment, run);
  orchestration.workers = workers;
  orchestration.units = static_cast<std::size_t>(options.get_int("units", 0));
  orchestration.split = sim::work_split_from(options.get("split", "auto"));
  orchestration.max_attempts =
      static_cast<std::size_t>(options.get_int("max-attempts", 3));
  orchestration.worker_timeout_s = options.get_double("worker-timeout", 0.0);
  orchestration.scratch_dir = options.get("shard-dir", tag + "-orchestrate");
  orchestration.resume = options.get_bool("resume", false);
  orchestration.keep_scratch = options.get_bool("keep-shards", false);
  orchestration.progress = [](const std::string& line) {
    std::cout << line << "\n" << std::flush;
  };

  const std::string self = util::self_exe_path();
  if (self.empty()) {
    std::cerr << "--orchestrate: cannot locate this executable to self-spawn\n";
    std::exit(2);
  }

  // Workers re-parse this harness's own flags, minus the orchestration and
  // driver-output keys, plus their unit rectangle.  Worker threads default
  // to an even share of the machine so K workers do not oversubscribe it.
  std::vector<std::string> base_args{self};
  for (const auto& [key, value] : options.values()) {
    const auto excluded = [&key](const std::vector<std::string>& keys) {
      return std::find(keys.begin(), keys.end(), key) != keys.end();
    };
    if (excluded(orchestrate_keys()) || excluded(driver_output_keys())) continue;
    base_args.push_back(value.empty() ? "--" + key : "--" + key + "=" + value);
  }
  std::size_t worker_threads =
      static_cast<std::size_t>(options.get_int("threads", 0));
  if (worker_threads == 0) {
    const std::size_t hardware =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    worker_threads = std::max<std::size_t>(1, hardware / workers);
  }
  base_args.push_back("--threads=" + std::to_string(worker_threads));

  sim::Orchestrator orchestrator(experiment.points().size(), run.trials,
                                 run.seed, orchestration);
  std::vector<std::string> unit_outputs;
  sim::ExperimentResult merged =
      orchestrator.run([&](const sim::WorkUnit& unit,
                           const std::string& out_path) {
        unit_outputs.push_back(out_path);
        std::vector<std::string> args = base_args;
        args.push_back("--run-unit=" + std::to_string(unit.point_begin) + "/" +
                       std::to_string(unit.point_count) + "/" +
                       std::to_string(unit.trial_begin) + "/" +
                       std::to_string(unit.trial_count));
        args.push_back("--unit-out=" + out_path);
        args.push_back("--unit-id=" + std::to_string(unit.id));
        args.push_back("--unit-tag=" + tag);
        return args;
      });
  if (options.has("crash-unit")) {
    // Drop the injected-crash markers so the scratch dir can empty out.
    std::error_code ignored;
    for (const std::string& out : unit_outputs)
      std::filesystem::remove(out + ".crashed", ignored);
    std::filesystem::remove(orchestration.scratch_dir, ignored);
  }
  return merged;
}

/// Which of the two metrics a sub-figure plots.
enum class Metric { kColor, kRecodings };

/// The sub-series of `points` whose strategy is in `keep` (original order).
/// Strategy lanes of a sweep are independent, so the distributed-only
/// sub-figures (Fig 10c/f, 11c) are exact subsets of the all-strategies
/// sweep — filtering replaces what used to be a second full sweep over the
/// identical workloads, at byte-identical CSV output.
inline std::vector<sim::SweepPoint> filter_strategies(
    const std::vector<sim::SweepPoint>& points,
    const std::vector<std::string>& keep) {
  std::vector<sim::SweepPoint> subset;
  for (const auto& point : points)
    if (std::find(keep.begin(), keep.end(), point.strategy) != keep.end())
      subset.push_back(point);
  return subset;
}

/// Prints one sub-figure as a table: rows = x values, columns = strategies,
/// cells = "mean +- ci95".
inline void print_series(const std::string& title, const std::string& x_name,
                         const std::vector<sim::SweepPoint>& points, Metric metric,
                         const util::Options& options, const std::string& csv_name) {
  // Collect strategy order as first encountered.
  std::vector<std::string> strategies;
  for (const auto& point : points)
    if (std::find(strategies.begin(), strategies.end(), point.strategy) ==
        strategies.end())
      strategies.push_back(point.strategy);

  util::TextTable table(title);
  std::vector<std::string> header{x_name};
  for (const auto& s : strategies) header.push_back(s);
  table.set_header(header);

  std::vector<double> xs;
  for (const auto& point : points)
    if (xs.empty() || xs.back() != point.x) xs.push_back(point.x);

  auto stat_of = [&](const sim::SweepPoint& p) {
    return metric == Metric::kColor ? p.color_metric : p.recoding_metric;
  };

  for (double x : xs) {
    std::vector<std::string> row{util::fmt_fixed(x, 1)};
    for (const auto& s : strategies) {
      for (const auto& point : points)
        if (point.x == x && point.strategy == s) {
          const auto& stat = stat_of(point);
          row.push_back(util::fmt_fixed(stat.mean(), 2) + " +- " +
                        util::fmt_fixed(stat.ci95_halfwidth(), 2));
          break;
        }
    }
    table.add_row(std::move(row));
  }
  std::cout << table.render() << "\n";

  const std::string csv_dir = options.get("csv-dir", "");
  if (!csv_dir.empty()) {
    auto stream = util::open_csv(csv_dir + "/" + csv_name + ".csv");
    util::CsvWriter csv(stream);
    csv.header({x_name, "strategy", "mean", "ci95", "stddev", "min", "max", "runs"});
    for (const auto& point : points) {
      const auto& stat = stat_of(point);
      csv.row({util::fmt_fixed(point.x, 3), point.strategy,
               util::fmt_fixed(stat.mean(), 6), util::fmt_fixed(stat.ci95_halfwidth(), 6),
               util::fmt_fixed(stat.stddev(), 6), util::fmt_fixed(stat.min(), 3),
               util::fmt_fixed(stat.max(), 3), std::to_string(stat.count())});
    }
    std::cout << "[csv] wrote " << csv_dir << "/" << csv_name << ".csv\n\n";
  }
}

}  // namespace minim::bench
