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
#include <iostream>
#include <string>
#include <vector>

#include "net/network.hpp"
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

}  // namespace minim::bench
