#pragma once

// BENCH_sweep.json — the append-only perf *trajectory* (schema v2): labeled
// entries, each holding one recorded run's measurements, so the committed
// file shows each optimization's before/after.  bench_perf_trajectory and
// bench_large_n append to it and gate against it through the one
// comparator here, check_measurements.
//
// The file is machine-written by these harnesses only, so a tolerant scan
// for the keys we emit is enough — no JSON library in the tree.  A record
// holds `name` and `wall_s`, plus `peak_rss_mb` and `bytes_per_node` when
// set; readers see an absent field as 0.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "util/table.hpp"

namespace minim::bench {

struct Measurement {
  std::string name;
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;     ///< process VmHWM after the run; 0 = not recorded
  double bytes_per_node = 0.0;  ///< engine footprint / node count; 0 = not recorded
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
    out.push_back(std::move(m));
    cursor = wall + 9;
  }
  return out;
}

/// Parses a trajectory file.  Returns an empty list for missing or
/// unrecognized files.
inline std::vector<TrajectoryEntry> load_trajectory(const std::string& path) {
  const std::string text = read_file(path);
  std::vector<TrajectoryEntry> entries;
  if (scan_string(text, "schema", 0, text.size()) != "minim-bench-trajectory-v2")
    return entries;
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

/// A field a gate compares, with its record key and how to print it.
struct GatedField {
  double Measurement::*value;
  const char* key;
  const char* unit;
  int digits;
};
inline constexpr GatedField kWallClock{&Measurement::wall_s, "wall_s", "s", 2};
inline constexpr GatedField kPeakRss{&Measurement::peak_rss_mb, "peak_rss_mb",
                                     "MB", 1};

/// Outcome of one `check_measurements` run.
struct CheckResult {
  bool ok = true;  ///< no compared measurement regressed
  std::size_t compared = 0;

  /// A gate that compared nothing gates nothing, so it fails.
  bool pass() const { return ok && compared > 0; }
};

/// The regression gate.  Each measurement's baseline is the most recent
/// entry of `trajectory` covering its name; it regresses when its `field`
/// exceeds the baseline's times `factor`.  A measurement without a
/// baseline, or whose baseline does not record `field`, is skipped.  Logs
/// one line per measurement and then "<gate>: PASS" or "<gate>: FAIL".
inline CheckResult check_measurements(
    const std::vector<TrajectoryEntry>& trajectory,
    const std::vector<Measurement>& measurements, const GatedField& field,
    double factor, const std::string& gate, std::ostream& log = std::cout) {
  CheckResult result;
  for (const Measurement& m : measurements) {
    const TrajectoryEntry* entry = baseline_for(trajectory, m.name);
    if (entry == nullptr) {
      log << "  " << m.name << ": no baseline (skipped)\n";
      continue;
    }
    double baseline = 0.0;
    for (const Measurement& b : entry->benchmarks)
      if (b.name == m.name) baseline = b.*field.value;
    if (baseline <= 0.0) {
      log << "  " << m.name << ": baseline \"" << entry->label
          << "\" has no " << field.key << " (skipped)\n";
      continue;
    }
    ++result.compared;
    const double measured = m.*field.value;
    const bool regressed = measured > baseline * factor;
    log << "  " << m.name << ": " << util::fmt_fixed(measured, field.digits)
        << " " << field.unit << " vs baseline \"" << entry->label << "\" "
        << util::fmt_fixed(baseline, field.digits) << " " << field.unit
        << (regressed ? "  REGRESSION" : "") << "\n";
    result.ok = result.ok && !regressed;
  }
  log << gate << ": " << (result.pass() ? "PASS" : "FAIL")
      << (result.compared == 0 ? " (no measurement had a baseline)" : "")
      << "\n";
  return result;
}

}  // namespace minim::bench
