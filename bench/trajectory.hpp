#pragma once

// Shared I/O for BENCH_sweep.json — the append-only perf *trajectory*
// (schema v2) that records each optimization's before/after.  Extracted from
// perf_trajectory.cpp so the large-N harness appends to and gates against
// the same file.
//
// The file is machine-written by these harnesses only, so a tolerant scan
// for the keys we emit is enough — no JSON library in the tree.  v3 of the
// measurement record adds optional `peak_rss_mb` and `bytes_per_node`
// fields (emitted only when set); readers of older files see them as 0.
// The serving-latency harness (serve_latency.cpp) adds optional `p50_us`,
// `p99_us`, `p999_us` and `events_per_s` under the same rule.

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/table.hpp"

namespace minim::bench {

struct Measurement {
  std::string name;
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;     ///< process VmHWM after the run; 0 = not recorded
  double bytes_per_node = 0.0;  ///< engine footprint / node count; 0 = not recorded
  // Serving-latency fields (bench.serve.*); 0 = not recorded.
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double events_per_s = 0.0;
};

struct TrajectoryEntry {
  std::string label;
  std::string config_json;  ///< the entry's "config" object, verbatim
  std::vector<Measurement> benchmarks;
};

inline std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "";
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Value of `"key": "..."` at/after `from`; empty when absent.
inline std::string scan_string(const std::string& text, const std::string& key,
                               std::size_t from, std::size_t until) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.find(needle, from);
  if (at == std::string::npos || at >= until) return "";
  const std::size_t open = text.find('"', at + needle.size());
  if (open == std::string::npos) return "";
  const std::size_t close = text.find('"', open + 1);
  if (close == std::string::npos) return "";
  return text.substr(open + 1, close - open - 1);
}

/// The balanced `{...}` of `"key": {` at/after `from`; empty when absent.
inline std::string scan_object(const std::string& text, const std::string& key,
                               std::size_t from, std::size_t until) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.find(needle, from);
  if (at == std::string::npos || at >= until) return "";
  const std::size_t open = text.find('{', at + needle.size());
  if (open == std::string::npos) return "";
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '{') ++depth;
    if (text[i] == '}' && --depth == 0) return text.substr(open, i - open + 1);
  }
  return "";
}

/// Value of `"key": <number>` inside [from, until); 0 when absent.
inline double scan_number(const std::string& text, const std::string& key,
                          std::size_t from, std::size_t until) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.find(needle, from);
  if (at == std::string::npos || at >= until) return 0.0;
  return std::strtod(text.c_str() + at + needle.size(), nullptr);
}

/// Every measurement record in [from, until).
inline std::vector<Measurement> scan_benchmarks(const std::string& text,
                                                std::size_t from, std::size_t until) {
  std::vector<Measurement> out;
  std::size_t cursor = from;
  while (true) {
    const std::size_t at = text.find("\"name\":", cursor);
    if (at == std::string::npos || at >= until) break;
    std::size_t record_end = text.find("\"name\":", at + 1);
    if (record_end == std::string::npos || record_end > until) record_end = until;
    Measurement m;
    m.name = scan_string(text, "name", at, record_end);
    // Bounded by record_end like the optional fields: a record missing
    // wall_s must not steal the next record's value.
    const std::size_t wall = text.find("\"wall_s\":", at);
    if (wall == std::string::npos || wall >= record_end) break;
    m.wall_s = std::strtod(text.c_str() + wall + 9, nullptr);
    m.peak_rss_mb = scan_number(text, "peak_rss_mb", at, record_end);
    m.bytes_per_node = scan_number(text, "bytes_per_node", at, record_end);
    m.p50_us = scan_number(text, "p50_us", at, record_end);
    m.p99_us = scan_number(text, "p99_us", at, record_end);
    m.p999_us = scan_number(text, "p999_us", at, record_end);
    m.events_per_s = scan_number(text, "events_per_s", at, record_end);
    out.push_back(std::move(m));
    cursor = wall + 9;
  }
  return out;
}

/// Parses a trajectory file (v2) or a single-measurement v1 file (upgraded
/// to one entry labeled "baseline").  Returns an empty list for missing or
/// unrecognized files.
inline std::vector<TrajectoryEntry> load_trajectory(const std::string& path) {
  const std::string text = read_file(path);
  std::vector<TrajectoryEntry> entries;
  if (text.empty()) return entries;
  const std::string schema = scan_string(text, "schema", 0, text.size());
  if (schema == "minim-bench-trajectory-v1") {
    TrajectoryEntry entry;
    entry.label = "baseline";
    entry.config_json = scan_object(text, "config", 0, text.size());
    entry.benchmarks = scan_benchmarks(text, 0, text.size());
    entries.push_back(std::move(entry));
    return entries;
  }
  if (schema != "minim-bench-trajectory-v2") return entries;
  std::size_t cursor = text.find("\"entries\":");
  while (cursor != std::string::npos) {
    const std::size_t at = text.find("\"label\":", cursor);
    if (at == std::string::npos) break;
    std::size_t until = text.find("\"label\":", at + 1);
    if (until == std::string::npos) until = text.size();
    TrajectoryEntry entry;
    entry.label = scan_string(text, "label", at, until);
    entry.config_json = scan_object(text, "config", at, until);
    entry.benchmarks = scan_benchmarks(text, at, until);
    entries.push_back(std::move(entry));
    cursor = until == text.size() ? std::string::npos : until;
  }
  return entries;
}

inline void write_trajectory(std::ostream& out,
                             const std::vector<TrajectoryEntry>& entries) {
  out << "{\n  \"schema\": \"minim-bench-trajectory-v2\",\n  \"entries\": [\n";
  for (std::size_t e = 0; e < entries.size(); ++e) {
    const TrajectoryEntry& entry = entries[e];
    out << "    {\n      \"label\": \"" << entry.label << "\",\n"
        << "      \"config\": " << entry.config_json << ",\n"
        << "      \"benchmarks\": [\n";
    for (std::size_t i = 0; i < entry.benchmarks.size(); ++i) {
      const Measurement& m = entry.benchmarks[i];
      out << "        {\"name\": \"" << m.name << "\", \"wall_s\": "
          << util::fmt_fixed(m.wall_s, 3);
      if (m.peak_rss_mb > 0.0)
        out << ", \"peak_rss_mb\": " << util::fmt_fixed(m.peak_rss_mb, 1);
      if (m.bytes_per_node > 0.0)
        out << ", \"bytes_per_node\": " << util::fmt_fixed(m.bytes_per_node, 1);
      if (m.p50_us > 0.0)
        out << ", \"p50_us\": " << util::fmt_fixed(m.p50_us, 2);
      if (m.p99_us > 0.0)
        out << ", \"p99_us\": " << util::fmt_fixed(m.p99_us, 2);
      if (m.p999_us > 0.0)
        out << ", \"p999_us\": " << util::fmt_fixed(m.p999_us, 2);
      if (m.events_per_s > 0.0)
        out << ", \"events_per_s\": " << util::fmt_fixed(m.events_per_s, 0);
      out << "}" << (i + 1 < entry.benchmarks.size() ? "," : "") << "\n";
    }
    out << "      ]\n    }" << (e + 1 < entries.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

/// The most recent entry carrying a measurement named `name`; nullptr when
/// none.  The trajectory interleaves entries from different harnesses
/// (figure sweeps, large-N), so gates must look past entries that do not
/// cover their benchmarks.
inline const TrajectoryEntry* baseline_for(const std::vector<TrajectoryEntry>& entries,
                                           const std::string& name) {
  for (auto it = entries.rbegin(); it != entries.rend(); ++it)
    for (const Measurement& m : it->benchmarks)
      if (m.name == name) return &*it;
  return nullptr;
}

/// True when `entry` was recorded on a single-core machine (the recorder
/// annotates its config with `"single_core": true`).  Such entries carry no
/// meaningful "@tN" scaling measurements — hardware_concurrency() == 1
/// collapses the threads sweep to the serial column — so scaling gates must
/// skip them rather than compare against a degenerate baseline.
inline bool entry_single_core(const TrajectoryEntry& entry) {
  const std::size_t at = entry.config_json.find("\"single_core\":");
  if (at == std::string::npos) return false;
  const std::size_t value = entry.config_json.find_first_not_of(
      " \t", at + std::string("\"single_core\":").size());
  return value != std::string::npos &&
         entry.config_json.compare(value, 4, "true") == 0;
}

/// Outcome of one `check_measurements` run.
struct CheckResult {
  bool ok = true;          ///< no compared measurement regressed
  std::size_t compared = 0;
  /// Baseline existed but a rule suppressed the comparison (single-core
  /// scaling baselines, hardware-mismatched throughput baselines).  Kept
  /// separate from "no baseline" so callers can distinguish "everything
  /// legitimately skipped" from "the gate compared nothing at all".
  std::size_t skipped = 0;

  /// A gate that compared nothing gates nothing — fail unless every miss
  /// was a legitimate rule-based skip.
  bool pass() const { return ok && (compared > 0 || skipped > 0); }
};

/// The shared regression gate: compares `measurements` against the most
/// recent trajectory entry covering each name.
///
///   * wall_s regresses when measured > baseline * factor;
///   * events_per_s (throughput) regresses when measured < baseline / factor
///     — a throughput COLLAPSE, not just wall-clock noise;
///   * "@tN" scaling names skip single-core baselines (the baseline's
///     threads sweep collapsed to the serial column);
///   * throughput comparisons skip when the baseline's single-core
///     annotation disagrees with this machine — events/s across different
///     core counts measures the hardware, not the code.
///
/// Logs one line per measurement to `log` in the established --check style.
inline CheckResult check_measurements(
    const std::vector<TrajectoryEntry>& trajectory,
    const std::vector<Measurement>& measurements, double factor,
    std::ostream& log = std::cout) {
  const bool this_machine_single_core =
      std::thread::hardware_concurrency() <= 1;
  CheckResult result;
  for (const Measurement& m : measurements) {
    const TrajectoryEntry* entry = baseline_for(trajectory, m.name);
    if (entry == nullptr) {
      log << "  " << m.name << ": no baseline (skipped)\n";
      continue;
    }
    if (m.name.find("@t") != std::string::npos && entry_single_core(*entry)) {
      log << "  " << m.name << ": baseline \"" << entry->label
          << "\" was recorded single-core (scaling comparison skipped)\n";
      ++result.skipped;
      continue;
    }
    const auto ref =
        std::find_if(entry->benchmarks.begin(), entry->benchmarks.end(),
                     [&m](const Measurement& b) { return b.name == m.name; });
    const bool gate_throughput = m.events_per_s > 0.0 && ref->events_per_s > 0.0;
    if (gate_throughput &&
        entry_single_core(*entry) != this_machine_single_core) {
      log << "  " << m.name << ": baseline \"" << entry->label
          << "\" core count differs from this machine (throughput comparison "
             "skipped)\n";
      ++result.skipped;
      continue;
    }
    ++result.compared;
    bool regressed = false;
    if (gate_throughput) {
      regressed = m.events_per_s < ref->events_per_s / factor;
      log << "  " << m.name << ": " << util::fmt_fixed(m.events_per_s, 0)
          << " ev/s vs baseline \"" << entry->label << "\" "
          << util::fmt_fixed(ref->events_per_s, 0) << " ev/s"
          << (regressed ? "  REGRESSION" : "") << "\n";
    } else {
      regressed = m.wall_s > ref->wall_s * factor;
      log << "  " << m.name << ": " << util::fmt_fixed(m.wall_s, 2)
          << " s vs baseline \"" << entry->label << "\" "
          << util::fmt_fixed(ref->wall_s, 2) << " s"
          << (regressed ? "  REGRESSION" : "") << "\n";
    }
    result.ok = result.ok && !regressed;
  }
  return result;
}

}  // namespace minim::bench
