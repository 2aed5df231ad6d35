#pragma once

// Shared plumbing for the harnesses: the paper's figure x-grids, the
// scenario/axis vocabulary behind bench_cdma_drive's --scenario and --axes,
// and the rendering of a sweep as the paper's table (x column + one column
// per strategy, mean over runs with the 95% CI half-width), optionally
// dumped as raw CSV for offline plotting.
//
// Every figure harness honours (kSweepFlags):
//   --runs=N       Monte-Carlo runs per point (default 100, as in the paper)
//   --seed=S       master seed (default 2001)
//   --threads=T    worker threads (default: hardware)
//   --csv-dir=DIR  write <name>.csv series files into DIR
//   --fast         shorthand for --runs=10 (CI smoke)
// and, like every harness, exits 2 on a flag it does not read
// (exit_on_unread_flags).  A --csv-dir that cannot be written exits 2
// before the run (exit_unless_writable).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "net/network.hpp"
#include "sim/experiment.hpp"
#include "sim/sweeps.hpp"
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

/// The sweep flags of a figure harness; exits 2 before the run on a
/// --csv-dir that cannot be written.
inline sim::SweepOptions sweep_options_from(const util::Options& options,
                                            std::vector<std::string> strategies) {
  sim::SweepOptions sweep;
  sweep.strategies = std::move(strategies);
  sweep.runs = options.get_count("runs", 100);
  if (options.get_bool("fast", false)) sweep.runs = 10;
  sweep.seed = static_cast<std::uint64_t>(options.get_int("seed", 2001));
  sweep.threads = options.get_count("threads", 0);
  exit_unless_writable("csv-dir", options.get("csv-dir", ""), true);
  return sweep;
}

/// Which of the two metrics a sub-figure plots.
enum class Metric { kColor, kRecodings };

/// The sub-series of `points` whose strategy is in `keep` (original order).
/// Strategy lanes of a sweep are independent, so the distributed-only
/// sub-figures (Fig 10c/f, 11c, 12d) are exact subsets of the all-strategies
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

// ------------------------------------------------------ experiment grids

/// The paper's x-grids (Section 5): Fig 10(a-c) sweeps N with
/// minr = 20.5, maxr = 30.5; Fig 10(d-f) sweeps the average range at N = 100,
/// maxr - minr = 5; Fig 11 sweeps the raise factor.  The figure harnesses
/// plot these sweeps and bench_perf_trajectory times them.
inline const std::vector<double> kFig10Ns{40, 50, 60, 70, 80, 90, 100, 110, 120};
inline const std::vector<double> kFig10AvgRanges{7.5,  17.5, 27.5, 37.5,
                                                 47.5, 57.5, 67.5};
inline const std::vector<double> kFig11RaiseFactors{
    1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0};
inline const std::vector<std::string> kFig10Strategies{"minim", "cp", "bbb"};
// `cp-exact` is our reproduction probe: CP with its color rule ported
// faithfully to the directed model (avoid true CA1/CA2 partners instead of
// the whole 2-hop ball; `CpStrategy::Vicinity` in strategies/cp.hpp).
// Fig 11(a)'s Minim-vs-CP ordering is sensitive to this choice;
// `FigureShapes.Fig11ColorDirectionWithExactVicinityCp` pins the direction
// the paper reports.
inline const std::vector<std::string> kFig11Strategies{"minim", "cp", "cp-exact",
                                                       "bbb"};

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

/// The named-axis vocabulary: how each --axes name maps onto the spec.
/// Exits 2 on an unknown name.
inline sim::GridAxis axis_from_name(const std::string& name,
                                    std::vector<double> values) {
  using Spec = sim::ScenarioSpec;
  using Apply = void (*)(Spec&, double);
  static const std::pair<const char*, Apply> kAxes[] = {
      {"n", [](Spec& s, double x) { s.workload.n = static_cast<std::size_t>(x); }},
      {"raise_factor", [](Spec& s, double x) { s.raise_factor = x; }},
      {"max_displacement", [](Spec& s, double x) { s.max_displacement = x; }},
      {"move_rounds",
       [](Spec& s, double x) { s.move_rounds = static_cast<std::size_t>(x); }},
      {"min_range", [](Spec& s, double x) { s.workload.min_range = x; }},
      {"max_range", [](Spec& s, double x) { s.workload.max_range = x; }},
      // The paper's Fig 10(d-f) parameterization: a 5-unit spread around x.
      {"avg_range",
       [](Spec& s, double x) {
         s.workload.min_range = x - 2.5;
         s.workload.max_range = x + 2.5;
       }},
      {"clusters",
       [](Spec& s, double x) {
         s.workload.placement = sim::Placement::kClustered;
         s.workload.cluster_count =
             std::max<std::size_t>(1, static_cast<std::size_t>(x));
       }},
      {"cluster_sigma",
       [](Spec& s, double x) {
         s.workload.placement = sim::Placement::kClustered;
         s.workload.cluster_sigma = x;
       }},
      {"churn_duration", [](Spec& s, double x) { s.churn.duration = x; }},
      {"arrival_rate", [](Spec& s, double x) { s.churn.arrival_rate = x; }},
      {"mean_lifetime", [](Spec& s, double x) { s.churn.mean_lifetime = x; }},
  };
  std::string known;
  for (const auto& [axis, apply] : kAxes) {
    if (name == axis) return sim::GridAxis{name, std::move(values), apply};
    known += known.empty() ? "" : "|";
    known += axis;
  }
  std::cerr << "unknown axis \"" << name << "\" (expected " << known << ")\n";
  std::exit(2);
}

/// Parses "name:v1:v2,name:v1" into grid axes; exits 2 on a malformed entry.
inline std::vector<sim::GridAxis> axes_from(const std::string& raw) {
  std::vector<sim::GridAxis> axes;
  for (const std::string& field : split_list(raw)) {
    const std::vector<std::string> parts = split_list(field, ':');
    if (parts.size() < 2) {
      std::cerr << "--axes entry \"" << field << "\" wants name:v1[:v2...]\n";
      std::exit(2);
    }
    std::vector<double> values;
    for (std::size_t i = 1; i < parts.size(); ++i) {
      std::size_t used = 0;
      try {
        values.push_back(std::stod(parts[i], &used));
      } catch (const std::exception&) {
        used = 0;  // no number at all, reported below
      }
      if (used != parts[i].size()) {
        std::cerr << "--axes entry \"" << field << "\": bad value \""
                  << parts[i] << "\"\n";
        std::exit(2);
      }
    }
    axes.push_back(axis_from_name(parts[0], std::move(values)));
  }
  return axes;
}

/// The grid `bench_cdma_drive --scenario=KIND --axes=LIST --strategies=...`
/// runs (cartesian product of the axes, axis-0-major).
inline sim::Experiment make_experiment(const std::string& scenario,
                                       const std::string& axes,
                                       std::vector<std::string> strategies) {
  sim::ExperimentGrid grid;
  grid.base.kind = scenario_from(scenario);
  grid.axes = axes_from(axes);
  grid.strategies = std::move(strategies);
  return sim::Experiment(std::move(grid));
}

}  // namespace minim::bench
