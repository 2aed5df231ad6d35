#include "sim/experiment_io.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace minim::sim {

namespace {

constexpr const char* kMagic = "#minim-experiment v1";

/// Shortest-exact double rendering: 17 significant digits round-trip any
/// IEEE-754 double through strtod bit-exactly.
std::string fmt_exact(double x) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", x);
  return buffer;
}

std::vector<std::string> split(const std::string& line, char sep) {
  std::vector<std::string> fields;
  std::string::size_type start = 0;
  while (true) {
    const auto pos = line.find(sep, start);
    if (pos == std::string::npos) {
      fields.push_back(line.substr(start));
      return fields;
    }
    fields.push_back(line.substr(start, pos - start));
    start = pos + 1;
  }
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("read_experiment_csv: " + what);
}

/// Bounds-checked field access that keeps the documented std::runtime_error
/// contract (fields.at would throw std::out_of_range instead).
const std::string& field_at(const std::vector<std::string>& fields,
                            std::size_t index) {
  if (index >= fields.size()) fail("metadata line is missing fields");
  return fields[index];
}

std::uint64_t parse_u64(const std::string& s) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') fail("bad integer '" + s + "'");
  return value;
}

double parse_double(const std::string& s) {
  char* end = nullptr;
  const double value = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') fail("bad number '" + s + "'");
  return value;
}

}  // namespace

void write_experiment_csv(const ExperimentResult& result, std::ostream& out) {
  out << kMagic << "\n";
  out << "#seed," << result.seed << "\n";
  out << "#total_trials," << result.total_trials << "\n";
  out << "#trial_begin," << result.trial_begin << "\n";
  out << "#trial_count," << result.trial_count << "\n";
  out << "#total_points," << result.total_points << "\n";
  out << "#point_begin," << result.point_begin << "\n";
  out << "#axes";
  for (const std::string& name : result.axis_names) out << "," << name;
  out << "\n";
  out << "#strategies";
  for (const std::string& name : result.strategies) out << "," << name;
  out << "\n";
  for (std::size_t p = 0; p < result.points.size(); ++p) {
    out << "#point," << p;
    for (double coord : result.points[p]) out << "," << fmt_exact(coord);
    out << "\n";
  }

  out << "point,strategy,trial,events,recodings,messages";
  for (const char* prefix : {"events_t", "recodings_t"})
    for (int t = 0; t < 5; ++t) out << "," << prefix << t;
  out << ",final_max_color,setup_max_color,setup_recodings\n";

  for (const ExperimentCell& cell : result.cells) {
    for (const RunOutcome& trial : cell.trials) {
      out << cell.point_index << "," << cell.strategy_index << "," << trial.trial
          << "," << trial.totals.events << "," << trial.totals.recodings << ","
          << trial.totals.messages;
      for (std::size_t t = 0; t < 5; ++t) out << "," << trial.totals.events_by_type[t];
      for (std::size_t t = 0; t < 5; ++t)
        out << "," << trial.totals.recodings_by_type[t];
      out << "," << trial.max_color << "," << fmt_exact(trial.setup_max_color)
          << "," << fmt_exact(trial.setup_recodings) << "\n";
    }
  }
}

ExperimentResult read_experiment_csv(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line != kMagic) fail("missing magic header");

  ExperimentResult result;
  bool saw_data_header = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> fields = split(line, ',');
    if (line[0] == '#') {
      const std::string& key = fields[0];
      if (key == "#seed") result.seed = parse_u64(field_at(fields, 1));
      else if (key == "#total_trials")
        result.total_trials = static_cast<std::size_t>(parse_u64(field_at(fields, 1)));
      else if (key == "#trial_begin")
        result.trial_begin = static_cast<std::size_t>(parse_u64(field_at(fields, 1)));
      else if (key == "#trial_count")
        result.trial_count = static_cast<std::size_t>(parse_u64(field_at(fields, 1)));
      else if (key == "#total_points")
        result.total_points = static_cast<std::size_t>(parse_u64(field_at(fields, 1)));
      else if (key == "#point_begin")
        result.point_begin = static_cast<std::size_t>(parse_u64(field_at(fields, 1)));
      else if (key == "#axes")
        result.axis_names.assign(fields.begin() + 1, fields.end());
      else if (key == "#strategies")
        result.strategies.assign(fields.begin() + 1, fields.end());
      else if (key == "#point") {
        const auto index = static_cast<std::size_t>(parse_u64(field_at(fields, 1)));
        if (index != result.points.size()) fail("points out of order");
        std::vector<double> coords;
        for (std::size_t f = 2; f < fields.size(); ++f)
          coords.push_back(parse_double(fields[f]));
        result.points.push_back(std::move(coords));
      } else {
        fail("unknown metadata line '" + key + "'");
      }
      continue;
    }
    if (!saw_data_header) {
      if (fields[0] != "point") fail("missing data header row");
      saw_data_header = true;
      if (result.strategies.empty()) fail("no strategies declared");
      if (result.trial_begin > result.total_trials ||
          result.trial_count > result.total_trials - result.trial_begin)
        fail("trial range exceeds total_trials");
      // Files written before axis-space sharding carry no point metadata:
      // they are full-grid shards.
      if (result.total_points == 0) result.total_points = result.points.size();
      if (result.point_begin > result.total_points ||
          result.points.size() > result.total_points - result.point_begin)
        fail("point range exceeds total_points");
      result.cells.resize(result.points.size() * result.strategies.size());
      for (std::size_t p = 0; p < result.points.size(); ++p)
        for (std::size_t s = 0; s < result.strategies.size(); ++s) {
          ExperimentCell& cell = result.cells[p * result.strategies.size() + s];
          cell.point_index = p;
          cell.strategy_index = s;
          // Capped: trial_count is file-supplied, so a corrupt value must
          // not turn into a std::length_error before the row checks run.
          cell.trials.reserve(std::min<std::size_t>(result.trial_count, 1 << 20));
        }
      continue;
    }

    if (fields.size() != 19) fail("data row needs 19 fields");
    const auto point = static_cast<std::size_t>(parse_u64(fields[0]));
    const auto strategy = static_cast<std::size_t>(parse_u64(fields[1]));
    if (point >= result.points.size() || strategy >= result.strategies.size())
      fail("data row indexes an undeclared point or strategy");

    RunOutcome trial;
    trial.trial = parse_u64(fields[2]);
    trial.totals.events = static_cast<std::size_t>(parse_u64(fields[3]));
    trial.totals.recodings = static_cast<std::size_t>(parse_u64(fields[4]));
    trial.totals.messages = static_cast<std::size_t>(parse_u64(fields[5]));
    for (std::size_t t = 0; t < 5; ++t) {
      trial.totals.events_by_type[t] =
          static_cast<std::size_t>(parse_u64(fields[6 + t]));
      trial.totals.recodings_by_type[t] =
          static_cast<std::size_t>(parse_u64(fields[11 + t]));
    }
    trial.max_color = static_cast<net::Color>(parse_u64(fields[16]));
    trial.setup_max_color = parse_double(fields[17]);
    trial.setup_recodings = parse_double(fields[18]);
    result.cells[point * result.strategies.size() + strategy].trials.push_back(
        trial);
  }
  if (!saw_data_header) fail("stream ended before the data header");

  // Truncation / corruption guard: every cell must hold exactly the declared
  // trial range, in order — otherwise merge_shards would silently assemble a
  // result with missing trials.
  for (const ExperimentCell& cell : result.cells) {
    if (cell.trials.size() != result.trial_count)
      fail("cell has " + std::to_string(cell.trials.size()) + " trials, expected " +
           std::to_string(result.trial_count) + " (truncated file?)");
    for (std::size_t i = 0; i < cell.trials.size(); ++i)
      if (cell.trials[i].trial != result.trial_begin + i)
        fail("trial indices do not match the declared range");
  }
  return result;
}

void write_experiment_csv_file(const ExperimentResult& result,
                               const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  write_experiment_csv(result, out);
  if (!out) throw std::runtime_error("write failed: " + path);
}

ExperimentResult read_experiment_csv_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  try {
    return read_experiment_csv(in);
  } catch (const std::runtime_error& error) {
    throw std::runtime_error(path + ": " + error.what());
  }
}

}  // namespace minim::sim
