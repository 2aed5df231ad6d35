// Grid-study harness for the unified experiment API: a 2-axis parameter grid
// (N x raise_factor, the power-increase scenario) across several strategies,
// with trial-range sharding and bit-exact shard merging.
//
// Modes:
//   (default)           run the whole grid, print the summary table
//   --shard=i/k --out=F run global trials of shard i of k, write the shard
//                       CSV to F (default grid_shard_<i>of<k>.csv)
//   --merge=F1,F2,...   read shard CSVs, merge, print the summary table
//   --selfcheck[=k]     run unsharded, then k shards round-tripped through
//                       the CSV format, merge, and verify the merged result
//                       is bit-identical (exits non-zero on mismatch)
//
// Shared options:
//   --trials=N          total Monte-Carlo trials per grid point (default 100)
//   --seed=S            master seed (default 2001)
//   --threads=T         pool size (default 0 = hardware concurrency)
//   --ns=...            N axis values (default 40,60,80,100)
//   --factors=...       raise_factor axis values (default 1.5,2.5,3.5,4.5,5.5)
//   --strategies=...    strategy names (default minim,cp,bbb)
//   --csv-dir=DIR       also write DIR/grid_study.csv (one row per cell)
//   --save-experiment=F write the full per-trial experiment CSV to F (with
//                       --merge: the merged result; byte-identical to the
//                       single-process run's file)
//
// Sharding contract: trial t of grid point p always draws stream
// p * trials + t regardless of which process runs it, so
//   grid_study --shard=0/4 --out=s0.csv   ...   --shard=3/4 --out=s3.csv
//   grid_study --merge=s0.csv,s1.csv,s2.csv,s3.csv
// prints exactly what an unsharded run would.  Within one process the grid
// runs over --threads; shards spread it across machines.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "../bench/bench_util.hpp"
#include "sim/experiment.hpp"
#include "sim/experiment_io.hpp"
#include "util/csv.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

namespace {

using namespace minim;

struct StudyConfig {
  std::vector<double> ns;
  std::vector<double> factors;
  std::vector<std::string> strategies;
  sim::ExperimentOptions run;
};

StudyConfig config_from(const util::Options& options) {
  StudyConfig config;
  config.ns = bench::double_list_from(options, "ns", {40, 60, 80, 100});
  config.factors =
      bench::double_list_from(options, "factors", {1.5, 2.5, 3.5, 4.5, 5.5});
  config.strategies =
      bench::string_list_from(options, "strategies", {"minim", "cp", "bbb"});
  config.run.trials = options.get_count("trials", 100);
  config.run.seed = static_cast<std::uint64_t>(options.get_int("seed", 2001));
  config.run.threads = options.get_count("threads", 0);
  return config;
}

sim::Experiment make_experiment(const StudyConfig& config) {
  sim::ExperimentGrid grid;
  grid.base.kind = sim::ScenarioKind::kPower;
  grid.axes.push_back(sim::GridAxis{
      "n", config.ns, [](sim::ScenarioSpec& spec, double x) {
        spec.workload.n = static_cast<std::size_t>(x);
      }});
  grid.axes.push_back(sim::GridAxis{
      "raise_factor", config.factors,
      [](sim::ScenarioSpec& spec, double x) { spec.raise_factor = x; }});
  grid.strategies = config.strategies;
  return sim::Experiment(std::move(grid));
}

/// Strict digits-only parse for user-facing shard arguments: no sign, no
/// blanks, no overflow (std::from_chars into an unsigned type accepts
/// none of them).
bool parse_size(const std::string& text, std::size_t& out) {
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, out);
  return error == std::errc{} && stop == end;
}

/// Global trial range of shard `index` of `count` (contiguous, near-equal).
std::pair<std::size_t, std::size_t> shard_range(std::size_t trials,
                                                std::size_t index,
                                                std::size_t count) {
  const std::size_t base = trials / count;
  const std::size_t extra = trials % count;
  const std::size_t begin = index * base + std::min(index, extra);
  return {begin, base + (index < extra ? 1 : 0)};
}

void print_result(const sim::ExperimentResult& result,
                  const util::Options& options) {
  util::TextTable table("Grid study: power increase (delta vs post-join state)");
  table.set_header({"N", "raisefactor", "strategy", "d max color",
                    "d recodings", "trials"});
  struct Row {
    util::RunningStats color;
    util::RunningStats recode;
  };
  std::vector<std::vector<std::string>> csv_rows;
  for (std::size_t p = 0; p < result.point_count(); ++p)
    for (std::size_t s = 0; s < result.strategy_count(); ++s) {
      Row row;
      for (const sim::ExperimentTrial& trial : result.cell(p, s).trials) {
        row.color.add(trial.delta_max_color());
        row.recode.add(trial.delta_recodings());
      }
      table.add_row({util::fmt_fixed(result.points[p][0], 0),
                     util::fmt_fixed(result.points[p][1], 1),
                     result.strategies[s],
                     util::fmt_fixed(row.color.mean(), 2) + " +- " +
                         util::fmt_fixed(row.color.ci95_halfwidth(), 2),
                     util::fmt_fixed(row.recode.mean(), 2) + " +- " +
                         util::fmt_fixed(row.recode.ci95_halfwidth(), 2),
                     std::to_string(row.color.count())});
      csv_rows.push_back(
          {util::fmt_fixed(result.points[p][0], 3),
           util::fmt_fixed(result.points[p][1], 3), result.strategies[s],
           std::to_string(row.color.count()), util::fmt_fixed(row.color.mean(), 6),
           util::fmt_fixed(row.color.ci95_halfwidth(), 6),
           util::fmt_fixed(row.recode.mean(), 6),
           util::fmt_fixed(row.recode.ci95_halfwidth(), 6)});
    }
  std::cout << table.render() << "\n";

  const std::string csv_dir = options.get("csv-dir", "");
  if (!csv_dir.empty()) {
    auto stream = util::open_csv(csv_dir + "/grid_study.csv");
    util::CsvWriter csv(stream);
    csv.header({"n", "raise_factor", "strategy", "trials", "d_color_mean",
                "d_color_ci95", "d_recodings_mean", "d_recodings_ci95"});
    for (const auto& row : csv_rows) csv.row(row);
    std::cout << "[csv] wrote " << csv_dir << "/grid_study.csv\n";
  }
}

/// --save-experiment=F: persist the full per-trial result (exact format) —
/// the artifact that must not change between a single-process run and a
/// --shard/--merge run.
void save_experiment_if_requested(const sim::ExperimentResult& result,
                                  const util::Options& options) {
  const std::string path = options.get("save-experiment", "");
  if (path.empty()) return;
  sim::write_experiment_csv_file(result, path);
  std::cout << "[csv] wrote " << path << " (full per-trial experiment)\n";
}

void expect(bool ok, const char* what, bool& all_ok) {
  if (!ok) {
    all_ok = false;
    std::cerr << "MISMATCH: " << what << "\n";
  }
}

bool results_identical(const sim::ExperimentResult& a,
                       const sim::ExperimentResult& b) {
  bool ok = true;
  expect(a.axis_names == b.axis_names && a.points == b.points &&
             a.strategies == b.strategies && a.total_trials == b.total_trials &&
             a.seed == b.seed && a.trial_begin == b.trial_begin &&
             a.trial_count == b.trial_count,
         "experiment metadata differs", ok);
  expect(a.cells.size() == b.cells.size(), "cell count differs", ok);
  if (!ok) return false;
  for (std::size_t c = 0; c < a.cells.size(); ++c) {
    const auto& ta = a.cells[c].trials;
    const auto& tb = b.cells[c].trials;
    expect(ta.size() == tb.size(), "trial count differs", ok);
    if (!ok) return false;
    for (std::size_t i = 0; i < ta.size(); ++i) {
      const bool same =
          ta[i].trial == tb[i].trial && ta[i].totals.events == tb[i].totals.events &&
          ta[i].totals.recodings == tb[i].totals.recodings &&
          ta[i].totals.messages == tb[i].totals.messages &&
          ta[i].totals.events_by_type == tb[i].totals.events_by_type &&
          ta[i].totals.recodings_by_type == tb[i].totals.recodings_by_type &&
          ta[i].final_max_color == tb[i].final_max_color &&
          ta[i].setup_max_color == tb[i].setup_max_color &&  // bit-exact
          ta[i].setup_recodings == tb[i].setup_recodings;
      expect(same, "per-trial results differ", ok);
      if (!ok) return false;
    }
  }
  return ok;
}

int run_selfcheck(const StudyConfig& config, std::size_t shard_count) {
  const sim::Experiment experiment = make_experiment(config);
  const auto start = std::chrono::steady_clock::now();
  const sim::ExperimentResult full = experiment.run(config.run);
  const double full_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::vector<sim::ExperimentResult> shards;
  for (std::size_t i = 0; i < shard_count; ++i) {
    sim::ExperimentOptions slice = config.run;
    const auto [begin, count] = shard_range(config.run.trials, i, shard_count);
    slice.trial_begin = begin;
    slice.trial_count = count;
    // Round-trip every shard through the persistence format, exactly as a
    // multi-process run would.
    std::stringstream io;
    sim::write_experiment_csv(experiment.run(slice), io);
    shards.push_back(sim::read_experiment_csv(io));
  }
  const sim::ExperimentResult merged = sim::merge_shards(std::move(shards));

  const bool ok = results_identical(full, merged);
  std::cout << "unsharded run: " << util::fmt_fixed(full_s, 2) << " s, "
            << full.point_count() << " points x " << full.strategy_count()
            << " strategies x " << full.total_trials << " trials\n"
            << "shard round-trip (" << shard_count << " shards, CSV in/out): "
            << (ok ? "PASS (bit-identical)" : "FAIL") << "\n";
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Options options(argc, argv);
  const StudyConfig config = config_from(options);

  std::cout << "=== Grid study: N x raise_factor ===\n"
            << config.ns.size() << " x " << config.factors.size()
            << " grid, strategies:";
  for (const auto& s : config.strategies) std::cout << " " << s;
  std::cout << ", " << config.run.trials << " trials, seed " << config.run.seed
            << "\n\n";

  // --merge takes a comma list of shard files (plus any positional paths).
  if (options.has("merge")) {
    std::vector<std::string> paths = bench::string_list_from(options, "merge", {});
    paths.insert(paths.end(), options.positional().begin(),
                 options.positional().end());
    if (paths.empty()) {
      std::cerr << "--merge wants shard files (--merge=s0.csv,s1.csv,...)\n";
      return 2;
    }
    std::vector<sim::ExperimentResult> shards;
    for (const std::string& path : paths)
      shards.push_back(sim::read_experiment_csv_file(path));
    const sim::ExperimentResult merged = sim::merge_shards(std::move(shards));
    // The format is generic, but this harness's table/CSV are the 2-axis
    // N x raise_factor study — reject foreign shard files cleanly.
    if (merged.axis_names != std::vector<std::string>{"n", "raise_factor"}) {
      std::cerr << "merged shards are not an n x raise_factor grid study\n";
      return 2;
    }
    std::cout << "merged " << paths.size() << " shards ("
              << merged.total_trials << " trials)\n\n";
    save_experiment_if_requested(merged, options);
    print_result(merged, options);
    return 0;
  }

  if (options.has("selfcheck")) {
    // `--selfcheck` = 3 shards; `--selfcheck=k` picks the shard count.
    const std::string raw = options.get("selfcheck", "");
    std::size_t k = 3;
    if (!raw.empty() && !parse_size(raw, k)) {
      std::cerr << "--selfcheck wants a shard count (--selfcheck=4)\n";
      return 2;
    }
    return run_selfcheck(config, std::max<std::size_t>(2, k));
  }

  const std::string shard = options.get("shard", "");
  if (!shard.empty()) {
    const std::size_t slash = shard.find('/');
    std::size_t index = 0;
    std::size_t count = 0;
    if (slash == std::string::npos || !parse_size(shard.substr(0, slash), index) ||
        !parse_size(shard.substr(slash + 1), count)) {
      std::cerr << "--shard wants i/k (e.g. --shard=0/4)\n";
      return 2;
    }
    if (count == 0 || index >= count) {
      std::cerr << "--shard=" << shard << " out of range\n";
      return 2;
    }
    sim::ExperimentOptions slice = config.run;
    const auto [begin, trial_count] = shard_range(config.run.trials, index, count);
    slice.trial_begin = begin;
    slice.trial_count = trial_count;
    const std::string out = options.get(
        "out", "grid_shard_" + std::to_string(index) + "of" + std::to_string(count) +
                   ".csv");
    sim::write_experiment_csv_file(make_experiment(config).run(slice), out);
    std::cout << "shard " << index << "/" << count << ": global trials ["
              << begin << ", " << begin + trial_count << ") -> " << out << "\n";
    return 0;
  }

  const sim::ExperimentResult result = make_experiment(config).run(config.run);
  save_experiment_if_requested(result, options);
  print_result(result, options);
  return 0;
}
