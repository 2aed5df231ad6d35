#pragma once

// Shared plumbing for the harnesses: the paper's figure grids (one-axis
// `sim::Experiment` grids), the --scenario and --axes parsing behind
// bench_cdma_drive, and the rendering of a figure grid's result as the
// paper's table (x column + one column per strategy, mean over runs with
// the 95% CI half-width), optionally dumped as raw CSV for offline plotting.
//
// Every figure harness honours (kSweepFlags):
//   --runs=N       Monte-Carlo runs per point (default 100, as in the paper)
//   --seed=S       master seed (default 2001)
//   --threads=T    worker threads (default: hardware)
//   --csv-dir=DIR  write <name>.csv series files into DIR
//   --fast         shorthand for --runs=10 (CI smoke)
// and, like every harness, exits 2 on a flag it does not read
// (exit_on_unread_flags).  A --csv-dir that cannot be written exits 2
// before the run (exit_unless_writable), and so does any harness's --runs
// or --trials below 1 (run_count_from).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "net/network.hpp"
#include "sim/experiment.hpp"
#include "util/csv.hpp"
#include "util/options.hpp"
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

/// Names on stderr each flag in `options` outside `read`, and each
/// positional argument unless `positional_ok`, then exits 2 if there was
/// any: a misspelt or stale flag would otherwise run the harness on its
/// defaults.
inline void exit_on_unread_flags(const util::Options& options,
                                 const std::string& harness,
                                 const std::vector<std::string>& read,
                                 bool positional_ok = false) {
  std::vector<std::string> stray;
  for (const std::string& key : options.keys_outside(read))
    stray.push_back("--" + key);
  if (!positional_ok)
    stray.insert(stray.end(), options.positional().begin(),
                 options.positional().end());
  for (const std::string& arg : stray)
    std::cerr << harness << ": unexpected argument " << arg << "\n";
  if (!stray.empty()) std::exit(2);
}

/// Exits 2, naming `--flag` and `path` on stderr, unless `path` is a
/// writable directory (`directory`) or a file that can be opened for
/// writing; an empty `path` is an output nobody asked for.  The harnesses
/// write their outputs after the whole run, so they check each path before
/// any trial runs.  Creates nothing.
inline void exit_unless_writable(const std::string& flag,
                                 const std::string& path,
                                 bool directory = false) {
  if (path.empty()) return;
  namespace fs = std::filesystem;
  std::error_code error;
  const fs::path target(path);
  fs::path dir = directory ? target : target.parent_path();
  if (dir.empty()) dir = ".";
  bool ok = fs::is_directory(dir, error) && ::access(dir.c_str(), W_OK) == 0;
  if (ok && !directory && fs::exists(target, error))
    ok = !fs::is_directory(target, error) && ::access(target.c_str(), W_OK) == 0;
  if (ok) return;
  std::cerr << "--" << flag << ": cannot write to " << path << "\n";
  std::exit(2);
}

/// The flags `sweep_options_from` and `print_series` read.
inline const std::vector<std::string> kSweepFlags{"runs", "seed", "threads",
                                                  "csv-dir", "fast"};

/// Splits `raw` on `separator` (a comma by default), dropping empty fields.
inline std::vector<std::string> split_list(const std::string& raw,
                                           char separator = ',') {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (start <= raw.size()) {
    const std::size_t pos = raw.find(separator, start);
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

/// `text` parsed whole as a finite number ("1000x", "abc", "inf" and "nan"
/// are not); otherwise exits 2 with `context` and the bad value on stderr.
inline double number_or_exit(const std::string& text, const std::string& context) {
  double value = 0.0;
  bool whole = false;
  try {
    std::size_t used = 0;
    value = std::stod(text, &used);
    whole = used == text.size() && std::isfinite(value);
  } catch (const std::exception&) {
    // No number at all: reported below like trailing text.
  }
  if (!whole) {
    std::cerr << context << ": bad value \"" << text << "\"\n";
    std::exit(2);
  }
  return value;
}

/// Parses a comma-separated list option ("--ns=40,60,80") into finite
/// doubles, each field whole; exits 2 naming the flag on a bad field.
inline std::vector<double> double_list_from(const util::Options& options,
                                            const std::string& key,
                                            std::vector<double> fallback) {
  const std::string raw = options.get(key, "");
  if (raw.empty()) return fallback;
  std::vector<double> values;
  for (const std::string& field : split_list(raw))
    values.push_back(number_or_exit(field, "--" + key));
  return values;
}

/// A Monte-Carlo run or trial count (`--runs`, `--trials`): exits 2 naming
/// the flag unless it is at least 1 (a mean over no runs is no number).
inline std::size_t run_count_from(const util::Options& options,
                                  const std::string& key, std::size_t fallback) {
  const std::int64_t count =
      options.get_int(key, static_cast<std::int64_t>(fallback));
  if (count < 1) {
    std::cerr << "--" << key << " wants at least 1, got " << count << "\n";
    std::exit(2);
  }
  return static_cast<std::size_t>(count);
}

/// The run options the sweep flags select, with --fast winning over --runs;
/// exits 2 before the run on a --runs below 1 or a --csv-dir that cannot be
/// written.
inline sim::ExperimentOptions sweep_options_from(const util::Options& options,
                                                 std::size_t runs = 100,
                                                 std::uint64_t seed = 2001) {
  sim::ExperimentOptions run;
  run.trials = run_count_from(options, "runs", runs);
  if (options.get_bool("fast", false)) run.trials = 10;
  run.seed = static_cast<std::uint64_t>(
      options.get_int("seed", static_cast<std::int64_t>(seed)));
  run.threads = options.get_count("threads", 0);
  exit_unless_writable("csv-dir", options.get("csv-dir", ""), true);
  return run;
}

/// What a sub-figure plots per trial: the max color index and the total
/// recodings after the run, or their change since the joins (Figs 11, 12).
enum class Metric { kColor, kRecodings, kDeltaColor, kDeltaRecodings };

inline double metric_of(const sim::RunOutcome& trial, Metric metric) {
  switch (metric) {
    case Metric::kColor: return trial.final_max_color();
    case Metric::kRecodings: return trial.total_recodings();
    case Metric::kDeltaColor: return trial.delta_max_color();
    case Metric::kDeltaRecodings: return trial.delta_recodings();
  }
  return 0.0;
}

/// Prints one sub-figure of a one-axis `result` as a table: rows = x values,
/// columns = strategies (those in `only`, when given, in the result's
/// order), cells = `metric`'s "mean +- ci95" over the trials.  Strategy
/// lanes are independent, so a sub-figure over fewer strategies is a subset
/// of the all-strategies result rather than a second run.
inline void print_series(const std::string& title, const std::string& x_name,
                         const sim::ExperimentResult& result, Metric metric,
                         const util::Options& options, const std::string& csv_name,
                         const std::vector<std::string>& only = {}) {
  std::vector<std::size_t> strategies;
  for (std::size_t s = 0; s < result.strategy_count(); ++s)
    if (only.empty() ||
        std::find(only.begin(), only.end(), result.strategies[s]) != only.end())
      strategies.push_back(s);

  const auto stat_of = [&](std::size_t p, std::size_t s) {
    util::RunningStats stat;
    for (const sim::RunOutcome& trial : result.cell(p, s).trials)
      stat.add(metric_of(trial, metric));
    return stat;
  };

  util::TextTable table(title);
  std::vector<std::string> header{x_name};
  for (std::size_t s : strategies) header.push_back(result.strategies[s]);
  table.set_header(header);
  for (std::size_t p = 0; p < result.point_count(); ++p) {
    std::vector<std::string> row{util::fmt_fixed(result.points[p].front(), 1)};
    for (std::size_t s : strategies) {
      const util::RunningStats stat = stat_of(p, s);
      row.push_back(util::fmt_fixed(stat.mean(), 2) + " +- " +
                    util::fmt_fixed(stat.ci95_halfwidth(), 2));
    }
    table.add_row(std::move(row));
  }
  std::cout << table.render() << "\n";

  const std::string csv_dir = options.get("csv-dir", "");
  if (!csv_dir.empty()) {
    auto stream = util::open_csv(csv_dir + "/" + csv_name + ".csv");
    util::CsvWriter csv(stream);
    csv.header({x_name, "strategy", "mean", "ci95", "stddev", "min", "max", "runs"});
    for (std::size_t p = 0; p < result.point_count(); ++p)
      for (std::size_t s : strategies) {
        const util::RunningStats stat = stat_of(p, s);
        csv.row({util::fmt_fixed(result.points[p].front(), 3), result.strategies[s],
                 util::fmt_fixed(stat.mean(), 6),
                 util::fmt_fixed(stat.ci95_halfwidth(), 6),
                 util::fmt_fixed(stat.stddev(), 6), util::fmt_fixed(stat.min(), 3),
                 util::fmt_fixed(stat.max(), 3), std::to_string(stat.count())});
      }
    std::cout << "[csv] wrote " << csv_dir << "/" << csv_name << ".csv\n\n";
  }
}

// ------------------------------------------------------ experiment grids

/// One of the paper's figure grids (Section 5): `kind` on Section 5.1's
/// network of `n` nodes (100x100 field, ranges uniform in (20.5, 30.5)),
/// swept along one axis, one curve per strategy.  The figure harnesses plot
/// the grids below and bench_perf_trajectory times them.
inline sim::ExperimentGrid figure_grid(sim::ScenarioKind kind, std::size_t n,
                                       sim::GridAxis axis,
                                       std::vector<std::string> strategies) {
  sim::ExperimentGrid grid;
  grid.base.kind = kind;
  grid.base.workload.n = n;
  grid.axes.push_back(std::move(axis));
  grid.strategies = std::move(strategies);
  return grid;
}

/// Fig 10(a-c): joins vs N.
inline sim::ExperimentGrid fig10_n_grid() {
  return figure_grid(sim::ScenarioKind::kJoin, 100,
                     {"n", {40, 50, 60, 70, 80, 90, 100, 110, 120}},
                     {"minim", "cp", "bbb"});
}

/// Fig 10(d-f): joins vs the average range, maxr - minr = 5.
inline sim::ExperimentGrid fig10_avg_range_grid() {
  return figure_grid(sim::ScenarioKind::kJoin, 100,
                     {"avg_range", {7.5, 17.5, 27.5, 37.5, 47.5, 57.5, 67.5}},
                     {"minim", "cp", "bbb"});
}

/// Fig 11: a random half of the nodes raise their range, vs the factor.
/// `cp-exact` is our reproduction probe: CP with its color rule ported
/// faithfully to the directed model (avoid true CA1/CA2 partners instead of
/// the whole 2-hop ball; `CpStrategy::Vicinity` in strategies/cp.hpp).
/// Fig 11(a)'s Minim-vs-CP ordering is sensitive to this choice;
/// `FigureShapes.Fig11ColorDirectionWithExactVicinityCp` pins the direction
/// the paper reports.
inline sim::ExperimentGrid fig11_grid() {
  return figure_grid(
      sim::ScenarioKind::kPower, 100,
      {"raise_factor", {1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0}},
      {"minim", "cp", "cp-exact", "bbb"});
}

/// Fig 12(a): one movement round vs maxdisp (Minim and CP only).
inline sim::ExperimentGrid fig12_displacement_grid() {
  return figure_grid(sim::ScenarioKind::kMove, 40,
                     {"max_displacement", {0, 10, 20, 30, 40, 50, 60, 70, 80}},
                     {"minim", "cp"});
}

/// Fig 12(b-d): movement rounds at maxdisp = 40.
inline sim::ExperimentGrid fig12_rounds_grid() {
  return figure_grid(sim::ScenarioKind::kMove, 40,
                     {"move_rounds", {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
                     {"minim", "cp", "bbb"});
}

/// --scenario=KIND: join | power | move | churn; exits 2 on anything else.
inline sim::ScenarioKind scenario_from(const std::string& name) {
  if (name == "join") return sim::ScenarioKind::kJoin;
  if (name == "power") return sim::ScenarioKind::kPower;
  if (name == "move") return sim::ScenarioKind::kMove;
  if (name == "churn") return sim::ScenarioKind::kChurn;
  std::cerr << "unknown scenario \"" << name
            << "\" (expected join|power|move|churn)\n";
  std::exit(2);
}

/// Parses "name:v1:v2,name:v1" into grid axes; exits 2 on a malformed entry.
/// The names are checked by `make_experiment`.
inline std::vector<sim::GridAxis> axes_from(const std::string& raw) {
  std::vector<sim::GridAxis> axes;
  for (const std::string& field : split_list(raw)) {
    const std::vector<std::string> parts = split_list(field, ':');
    if (parts.size() < 2) {
      std::cerr << "--axes entry \"" << field << "\" wants name:v1[:v2...]\n";
      std::exit(2);
    }
    sim::GridAxis axis{parts[0], {}};
    for (std::size_t i = 1; i < parts.size(); ++i)
      axis.values.push_back(
          number_or_exit(parts[i], "--axes entry \"" + field + "\""));
    axes.push_back(std::move(axis));
  }
  return axes;
}

/// The grid `bench_cdma_drive --scenario=KIND --axes=LIST --strategies=...`
/// runs (cartesian product of the axes, axis-0-major).  Exits 2 with the
/// reason when `Experiment` rejects the grid, as it does an unknown axis
/// name (naming the known ones).
inline sim::Experiment make_experiment(const std::string& scenario,
                                       const std::string& axes,
                                       std::vector<std::string> strategies) {
  sim::ExperimentGrid grid;
  grid.base.kind = scenario_from(scenario);
  grid.axes = axes_from(axes);
  grid.strategies = std::move(strategies);
  try {
    return sim::Experiment(std::move(grid));
  } catch (const std::invalid_argument& error) {
    std::cerr << error.what() << "\n";
    std::exit(2);
  }
}

}  // namespace minim::bench
