// cdma_drive: the experiment front-end and serving entry point.
//
// Describes any scenario grid on the command line, runs it over --threads
// worker threads and prints the per-cell summary table; spreads one grid over
// machines with --shard/--merge; or, with --serve, runs the online
// assignment engine.
//
// Grid description:
//   --scenario=KIND     join | power | move | churn (default join)
//   --axes=LIST         comma-separated axes, each "name:v1:v2:...", e.g.
//                         --axes=n:40:60:80,raise_factor:1.5:2.5:3.5
//                       (grid = cartesian product, axis-0-major).  Axis
//                       names (sim::GridAxis; an unknown one exits 2 and
//                       lists them): n, raise_factor, max_displacement,
//                       move_rounds, min_range, max_range, avg_range,
//                       clusters, cluster_sigma, churn_duration,
//                       arrival_rate, mean_lifetime.  Default: n:40:60:80.
//   --strategies=...    strategy names (default minim,cp,bbb; an unknown
//                       one exits 2 and lists them)
//   --trials=N          Monte-Carlo trials per grid point (default 100;
//                       below 1 exits 2)
//   --seed=S            master seed (default 2001)
//   --threads=T         worker threads (default hardware)
//
// Output: one row per (grid point, strategy) with events, recodings and max
// color (mean +- stddev), and the change in max color and recodings since
// the joins (Fig 11/12's deltas: 0 for join, the totals for churn) as
// mean +- 95% CI.
//   --save-experiment=F write the per-trial experiment CSV to F
//   --csv-dir=DIR       write DIR/cdma_drive.csv (one summary row per cell)
//   --selfcheck[=k]     after the run, run the grid again at --threads=1 and
//                       as k shards (default 3) round-tripped through the
//                       experiment CSV; exit 1 unless both reproduce the
//                       run's experiment CSV byte for byte
//   --record-trace=F    write grid point 0's workload as a trace that
//                       --serve replays, instead of running the grid
//
// Across machines: trial t of grid point p always draws stream
// p * trials + t, whichever process runs it, so
//   --shard=i/k --out=F run global trials of shard i of k of the grid and
//                       write its experiment CSV to F (default
//                       grid_shard_<i>of<k>.csv)
//   --merge=F1,F2,...   merge shard files of any grid and report the result
//                       (table, --csv-dir, --save-experiment) exactly as the
//                       single-process run would
//
// Serving (see src/serve/):
//   --serve             run the online assignment engine instead of a grid
//   --transport=T       stdin (default) | tcp; replay a recorded trace
//                       with --serve < file
//   --port=P            TCP port for --transport=tcp, 0..65535 (default 0 =
//                       ephemeral)
//   --strategy=NAME     recoding strategy (default minim)
//   --validate          CA1/CA2 check after every event (slow)
//   --quiet             ingest without response lines
//   --max-batch=K       most events coalesced per engine batch, at least 1
//                       (default 512); 1 applies and flushes each request
//                       line on its own
//
// A flag the chosen mode (grid or --serve) does not read exits 2, as does a
// positional argument outside --merge, and so does an output path that
// cannot be written or an unknown strategy name, before any trial runs, or
// a --port or --max-batch out of range or an unknown --strategy, before any
// transport is built.
//
// Examples:
//   cdma_drive --axes=n:40:80:120 --trials=200
//   cdma_drive --scenario=power --axes=n:40:60:80:100,raise_factor:1.5:2.5:3.5:4.5:5.5
//              --save-experiment=power_grid.csv        (the grid study)
//   cdma_drive --scenario=move --axes=n:100,move_rounds:3 --selfcheck
//   cdma_drive --scenario=move --axes=n:80 --record-trace=move80.trace
//   cdma_drive --serve --strategy=bbb-bounded < move80.trace
//   cdma_drive --serve --transport=tcp --strategy=bbb-bounded

#include <algorithm>
#include <charconv>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "../bench/bench_util.hpp"
#include "serve/engine.hpp"
#include "serve/session.hpp"
#include "serve/transport.hpp"
#include "sim/experiment.hpp"
#include "sim/experiment_io.hpp"
#include "sim/trace.hpp"
#include "util/csv.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace minim;

/// Every flag each mode reads.  Anything else exits 2, as does a positional
/// argument outside --merge: a stale or misspelt flag would otherwise run
/// the default grid.
const std::vector<std::string> kGridFlags{
    "scenario", "axes", "strategies", "trials", "seed", "threads",
    "save-experiment", "csv-dir", "selfcheck", "shard", "out", "merge",
    "record-trace"};
const std::vector<std::string> kServeFlags{
    "serve", "transport", "port", "strategy", "validate", "quiet",
    "max-batch"};

/// Strict digits-only parse for user-facing shard arguments: no sign, no
/// blanks, no overflow (std::from_chars into an unsigned type accepts
/// none of them).
bool parse_size(const std::string& text, std::size_t& out) {
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, out);
  return error == std::errc{} && stop == end;
}

/// `run` narrowed to the global trial range of shard `index` of `count`
/// (contiguous, near-equal).
sim::ExperimentOptions shard_slice(sim::ExperimentOptions run,
                                   std::size_t index, std::size_t count) {
  const std::size_t base = run.trials / count;
  const std::size_t extra = run.trials % count;
  run.trial_begin = index * base + std::min(index, extra);
  run.trial_count = base + (index < extra ? 1 : 0);
  return run;
}

std::string experiment_csv(const sim::ExperimentResult& result) {
  std::ostringstream out;
  sim::write_experiment_csv(result, out);
  return out.str();
}

std::string mean_pm(const util::RunningStats& stat, double spread) {
  return util::fmt_fixed(stat.mean(), 2) + " +- " + util::fmt_fixed(spread, 2);
}

/// --save-experiment, then the summary table and its --csv-dir CSV.
void report(const sim::ExperimentResult& result, const util::Options& options) {
  const std::string save = options.get("save-experiment", "");
  if (!save.empty()) {
    sim::write_experiment_csv_file(result, save);
    std::cout << "[csv] wrote " << save << " (full per-trial experiment)\n";
  }

  util::TextTable table(
      "cdma_drive: per-cell summary (mean +- stddev; d = change since the "
      "joins, mean +- 95% CI)");
  std::vector<std::string> header = result.axis_names;
  for (const char* column : {"strategy", "events", "recodings", "max color",
                             "d max color", "d recodings", "trials"})
    header.push_back(column);
  table.set_header(header);

  std::vector<std::vector<std::string>> csv_rows;
  for (std::size_t p = 0; p < result.point_count(); ++p)
    for (std::size_t s = 0; s < result.strategy_count(); ++s) {
      const sim::ExperimentCell& cell = result.cell(p, s);
      const sim::TotalsSummary summary = sim::summarize(cell);
      util::RunningStats d_color;
      util::RunningStats d_recodings;
      for (const sim::RunOutcome& trial : cell.trials) {
        d_color.add(trial.delta_max_color());
        d_recodings.add(trial.delta_recodings());
      }
      std::vector<std::string> row;
      for (double coord : result.points[p])
        row.push_back(util::fmt_fixed(coord, 2));
      row.push_back(result.strategies[s]);
      row.push_back(mean_pm(summary.events, summary.events.stddev()));
      row.push_back(mean_pm(summary.recodings, summary.recodings.stddev()));
      row.push_back(mean_pm(summary.max_color, summary.max_color.stddev()));
      row.push_back(mean_pm(d_color, d_color.ci95_halfwidth()));
      row.push_back(mean_pm(d_recodings, d_recodings.ci95_halfwidth()));
      row.push_back(std::to_string(summary.events.count()));
      table.add_row(row);

      std::vector<std::string> csv_row;
      for (double coord : result.points[p])
        csv_row.push_back(util::fmt_fixed(coord, 3));
      csv_row.push_back(result.strategies[s]);
      csv_row.push_back(std::to_string(summary.events.count()));
      for (double value :
           {summary.events.mean(), summary.recodings.mean(),
            summary.recodings.stddev(), summary.max_color.mean(),
            d_color.mean(), d_color.ci95_halfwidth(), d_recodings.mean(),
            d_recodings.ci95_halfwidth()})
        csv_row.push_back(util::fmt_fixed(value, 6));
      csv_rows.push_back(std::move(csv_row));
    }
  std::cout << table.render() << "\n";

  const std::string csv_dir = options.get("csv-dir", "");
  if (!csv_dir.empty()) {
    auto stream = util::open_csv(csv_dir + "/cdma_drive.csv");
    util::CsvWriter csv(stream);
    std::vector<std::string> csv_header = result.axis_names;
    for (const char* column :
         {"strategy", "trials", "events_mean", "recodings_mean",
          "recodings_stddev", "max_color_mean", "d_color_mean", "d_color_ci95",
          "d_recodings_mean", "d_recodings_ci95"})
      csv_header.push_back(column);
    csv.header(csv_header);
    for (const auto& row : csv_rows) csv.row(row);
    std::cout << "[csv] wrote " << csv_dir << "/cdma_drive.csv\n";
  }
}

/// --selfcheck: the grid at --threads=1, and as `shard_count` shards
/// round-tripped through the experiment CSV and merged, must both write
/// `expected` (the run's experiment CSV) byte for byte.
int run_selfcheck(const sim::Experiment& experiment,
                  const sim::ExperimentOptions& run,
                  const std::string& expected, std::size_t shard_count) {
  sim::ExperimentOptions serial = run;
  serial.threads = 1;
  const bool serial_ok = experiment_csv(experiment.run(serial)) == expected;

  std::string merged;
  try {
    std::vector<sim::ExperimentResult> shards;
    for (std::size_t i = 0; i < shard_count; ++i) {
      const sim::ExperimentOptions slice = shard_slice(run, i, shard_count);
      std::stringstream io(experiment_csv(experiment.run(slice)));
      shards.push_back(sim::read_experiment_csv(io));
    }
    merged = experiment_csv(sim::merge_shards(std::move(shards)));
  } catch (const std::exception& error) {
    std::cerr << "selfcheck: " << error.what() << "\n";
  }
  const bool shards_ok = merged == expected;
  std::cout << "selfcheck, experiment CSV byte for byte: --threads=1 re-run "
            << (serial_ok ? "PASS" : "FAIL") << ", " << shard_count
            << " shards via the CSV " << (shards_ok ? "PASS" : "FAIL") << "\n";
  return serial_ok && shards_ok ? 0 : 1;
}

/// --shard=i/k: run shard i's global trials and write its experiment CSV.
int run_shard(const util::Options& options, const sim::Experiment& experiment,
              const sim::ExperimentOptions& run) {
  const std::string shard = options.get("shard", "");
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
  const sim::ExperimentOptions slice = shard_slice(run, index, count);
  const std::string out = options.get(
      "out", "grid_shard_" + std::to_string(index) + "of" +
                 std::to_string(count) + ".csv");
  bench::exit_unless_writable("out", out);
  sim::write_experiment_csv_file(experiment.run(slice), out);
  std::cout << "shard " << index << "/" << count << ": global trials ["
            << slice.trial_begin << ", " << slice.trial_begin + slice.trial_count
            << ") -> " << out << "\n";
  return 0;
}

/// --merge=F1,F2,... (plus any positional paths): reassemble shard files.
/// An unreadable or malformed file, or shards that do not tile one grid,
/// exit 2 with the reason.
int run_merge(const util::Options& options) {
  std::vector<std::string> paths = bench::string_list_from(options, "merge", {});
  paths.insert(paths.end(), options.positional().begin(),
               options.positional().end());
  if (paths.empty()) {
    std::cerr << "--merge wants shard files (--merge=s0.csv,s1.csv,...)\n";
    return 2;
  }
  sim::ExperimentResult merged;
  try {
    std::vector<sim::ExperimentResult> shards;
    for (const std::string& path : paths)
      shards.push_back(sim::read_experiment_csv_file(path));
    merged = sim::merge_shards(std::move(shards));
  } catch (const std::exception& error) {
    std::cerr << "cdma_drive: " << error.what() << "\n";
    return 2;
  }
  std::cout << "=== cdma_drive: " << paths.size() << " shards merged ===\n"
            << merged.point_count() << " grid points x " << merged.strategy_count()
            << " strategies x " << merged.total_trials << " trials, seed "
            << merged.seed << "\n\n";
  report(merged, options);
  return 0;
}

/// --record-trace=F: dump grid point 0's workload as a replayable trace.
int run_record_trace(const std::string& path, const util::Options& options,
                     const sim::Experiment& experiment) {
  const sim::ScenarioSpec& spec = experiment.spec_for_point(0);
  if (spec.kind == sim::ScenarioKind::kChurn) {
    std::cerr << "--record-trace: churn has no phased workload to record "
                 "(use join|power|move)\n";
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(options.get_int("seed", 2001));
  util::Rng rng = util::Rng::for_stream(seed, 0);
  const sim::Workload workload = sim::make_scenario_workload(spec, rng);
  const sim::Trace trace = sim::trace_from_workload(workload);

  std::ofstream out(path);
  if (!out) {
    std::cerr << "--record-trace: cannot open \"" << path << "\"\n";
    return 2;
  }
  out << sim::serialize_trace(trace);
  std::cout << "[trace] wrote " << path << " (" << trace.size()
            << " events, scenario " << options.get("scenario", "join")
            << ", grid point 0, seed " << seed << ")\n";
  return 0;
}

/// --serve: the online assignment engine over stdin/stdout or TCP.
int run_serve(const util::Options& options) {
  const std::int64_t port = options.get_int("port", 0);
  if (port < 0 || port > 65535) {
    std::cerr << "--port wants 0..65535, got " << port << "\n";
    return 2;
  }
  const std::int64_t max_batch = options.get_int("max-batch", 512);
  if (max_batch < 1) {
    std::cerr << "--max-batch wants at least 1, got " << max_batch << "\n";
    return 2;
  }

  const std::string strategy = options.get("strategy", "minim");
  serve::AssignmentEngine::Params params;
  params.validate = options.has("validate");
  std::optional<serve::AssignmentEngine> engine;
  try {
    engine.emplace(strategy, params);
  } catch (const std::invalid_argument& error) {
    std::cerr << "--strategy: " << error.what() << "\n";
    return 2;
  }

  const std::string kind = options.get("transport", "stdin");
  std::unique_ptr<serve::Transport> transport;
  if (kind == "stdin") {
    // Unsynced iostreams let the stream transport see how much of a piped
    // request burst is already buffered (pipelined batching); stdout is
    // flushed once per burst by the session either way.
    std::ios::sync_with_stdio(false);
    transport = std::make_unique<serve::StreamTransport>(std::cin, std::cout,
                                                         "stdin");
  } else if (kind == "tcp") {
    auto tcp = std::make_unique<serve::TcpServerTransport>(
        static_cast<std::uint16_t>(port));
    // The port line goes to stderr immediately so a script can connect
    // before any client exists (stdout stays protocol-free).
    std::cerr << "[serve] listening on " << tcp->describe() << "\n";
    transport = std::move(tcp);
  } else {
    std::cerr << "unknown --transport \"" << kind
              << "\" (expected stdin|tcp)\n";
    return 2;
  }

  serve::SessionOptions session;
  session.echo = !options.has("quiet");
  session.max_batch = static_cast<std::size_t>(max_batch);
  const serve::SessionStats stats = serve::serve_session(*engine, *transport,
                                                         session);

  std::cerr << "[serve] " << transport->describe() << " strategy=" << strategy
            << ": lines=" << stats.lines << " events=" << stats.events
            << " queries=" << stats.queries << " errors=" << stats.errors
            << " batches=" << stats.batches
            << " coalesced=" << stats.coalesced_events << "\n";
  using Kind = sim::TraceEvent::Kind;
  for (Kind k : {Kind::kJoin, Kind::kLeave, Kind::kMove, Kind::kPower}) {
    const util::LatencyHistogram& h = engine->latency(k);
    if (h.count() == 0) continue;
    std::cerr << "[serve] latency " << sim::to_string(k) << " "
              << h.summary(1e-3, "us") << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Options options(argc, argv);
  if (options.has("serve")) {
    bench::exit_on_unread_flags(options, "cdma_drive --serve", kServeFlags);
    return run_serve(options);
  }
  bench::exit_on_unread_flags(options, "cdma_drive", kGridFlags,
                              options.has("merge"));
  bench::exit_unless_writable("save-experiment",
                              options.get("save-experiment", ""));
  bench::exit_unless_writable("csv-dir", options.get("csv-dir", ""), true);
  if (options.has("merge")) return run_merge(options);

  sim::ExperimentOptions run;
  run.trials = bench::run_count_from(options, "trials", 100);
  run.seed = static_cast<std::uint64_t>(options.get_int("seed", 2001));
  run.threads = options.get_count("threads", 0);

  const sim::Experiment experiment = bench::make_experiment(
      options.get("scenario", "join"), options.get("axes", "n:40:60:80"),
      bench::string_list_from(options, "strategies", {"minim", "cp", "bbb"}));

  const std::string record = options.get("record-trace", "");
  if (!record.empty()) return run_record_trace(record, options, experiment);
  if (options.has("shard")) return run_shard(options, experiment, run);

  // `--selfcheck` = 3 shards; `--selfcheck=k` picks the shard count (>= 2).
  std::size_t selfcheck_shards = 3;
  const std::string raw = options.get("selfcheck", "");
  if (!raw.empty() && !parse_size(raw, selfcheck_shards)) {
    std::cerr << "--selfcheck wants a shard count (--selfcheck=4)\n";
    return 2;
  }

  std::cout << "=== cdma_drive: scenario grid ===\n"
            << experiment.points().size() << " grid points x "
            << experiment.grid().strategies.size() << " strategies x "
            << run.trials << " trials, seed " << run.seed << "\n\n";

  const sim::ExperimentResult result = experiment.run(run);
  report(result, options);
  if (!options.has("selfcheck")) return 0;
  return run_selfcheck(experiment, run, experiment_csv(result),
                       std::max<std::size_t>(2, selfcheck_shards));
}
