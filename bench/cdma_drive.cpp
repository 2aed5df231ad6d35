// cdma_drive: the standalone experiment front-end and serving entry point.
//
// Describes an arbitrary scenario grid on the command line, runs it over the
// thread pool, and prints the per-cell summary table; or, with --serve,
// runs the online assignment engine.
//
// Grid description:
//   --scenario=KIND     join | power | move | churn (default join)
//   --axes=LIST         comma-separated axes, each "name:v1:v2:...", e.g.
//                         --axes=n:40:60:80,raise_factor:1.5:2.5:3.5
//                       (grid = cartesian product, axis-0-major).  Axis
//                       vocabulary: n, raise_factor, max_displacement,
//                       move_rounds, min_range, max_range, avg_range,
//                       clusters, cluster_sigma, churn_duration,
//                       arrival_rate, mean_lifetime.  Default: n:40:60:80.
//   --strategies=...    strategy names (default minim,cp,bbb)
//   --trials=N          Monte-Carlo trials per grid point (default 100)
//   --seed=S            master seed (default 2001)
//   --threads=T         worker threads (default hardware)
//
// Output:
//   --save-experiment=F write the per-trial experiment CSV to F
//   --csv-dir=DIR       write DIR/cdma_drive.csv (one summary row per cell)
//
// Serving (see src/serve/):
//   --serve             run the online assignment engine instead of a grid
//   --transport=T       stdin (default) | tcp; replay a recorded trace
//                       with --serve < file
//   --port=P            TCP port for --transport=tcp (default 0 = ephemeral)
//   --strategy=NAME     recoding strategy (default minim)
//   --recolor-threads=N component-parallel batched recoloring for
//                       bbb-bounded (1 = serial, 0 = hardware cores);
//                       bit-identical results at every setting
//   --validate          CA1/CA2 check after every event (slow)
//   --quiet             ingest without response lines
//   --flush-each        apply + flush per request line (no pipelining)
//   --max-batch=K       most events coalesced per engine batch (default 512)
//   --record-trace=F    write grid point 0's workload as a replayable trace
//
// Examples:
//   cdma_drive --axes=n:40:80:120 --trials=200
//   cdma_drive --scenario=power --axes=n:60:100,raise_factor:2:4
//              --save-experiment=power_grid.csv
//   cdma_drive --scenario=move --axes=n:80 --record-trace=move80.trace
//   cdma_drive --serve --strategy=bbb-bounded < move80.trace
//   cdma_drive --serve --transport=tcp --strategy=bbb-bounded

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
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
#include "util/table.hpp"

namespace {

using namespace minim;

sim::ScenarioKind scenario_from(const std::string& name) {
  if (name == "join") return sim::ScenarioKind::kJoin;
  if (name == "power") return sim::ScenarioKind::kPower;
  if (name == "move") return sim::ScenarioKind::kMove;
  if (name == "churn") return sim::ScenarioKind::kChurn;
  std::cerr << "unknown scenario \"" << name
            << "\" (expected join|power|move|churn)\n";
  std::exit(2);
}

/// The named-axis vocabulary: how one CLI axis name maps onto the spec.
sim::GridAxis axis_from_name(const std::string& name,
                             std::vector<double> values) {
  using Spec = sim::ScenarioSpec;
  auto axis = [&](void (*apply)(Spec&, double)) {
    return sim::GridAxis{name, std::move(values), apply};
  };
  if (name == "n")
    return axis([](Spec& s, double x) {
      s.workload.n = static_cast<std::size_t>(x);
    });
  if (name == "raise_factor")
    return axis([](Spec& s, double x) { s.raise_factor = x; });
  if (name == "max_displacement")
    return axis([](Spec& s, double x) { s.max_displacement = x; });
  if (name == "move_rounds")
    return axis([](Spec& s, double x) {
      s.move_rounds = static_cast<std::size_t>(x);
    });
  if (name == "min_range")
    return axis([](Spec& s, double x) { s.workload.min_range = x; });
  if (name == "max_range")
    return axis([](Spec& s, double x) { s.workload.max_range = x; });
  if (name == "avg_range")
    return axis([](Spec& s, double x) {
      // The paper's Fig 10(d-f) parameterization: a 5-unit spread around x.
      s.workload.min_range = x - 2.5;
      s.workload.max_range = x + 2.5;
    });
  if (name == "clusters")
    return axis([](Spec& s, double x) {
      s.workload.placement = sim::Placement::kClustered;
      s.workload.cluster_count =
          std::max<std::size_t>(1, static_cast<std::size_t>(x));
    });
  if (name == "cluster_sigma")
    return axis([](Spec& s, double x) {
      s.workload.placement = sim::Placement::kClustered;
      s.workload.cluster_sigma = x;
    });
  if (name == "churn_duration")
    return axis([](Spec& s, double x) { s.churn.duration = x; });
  if (name == "arrival_rate")
    return axis([](Spec& s, double x) { s.churn.arrival_rate = x; });
  if (name == "mean_lifetime")
    return axis([](Spec& s, double x) { s.churn.mean_lifetime = x; });
  std::cerr << "unknown axis \"" << name
            << "\" (expected n|raise_factor|max_displacement|move_rounds|"
               "min_range|max_range|avg_range|clusters|cluster_sigma|"
               "churn_duration|arrival_rate|mean_lifetime)\n";
  std::exit(2);
}

/// Parses "--axes=name:v1:v2,name:v1" into grid axes.
std::vector<sim::GridAxis> axes_from(const util::Options& options) {
  const std::string raw = options.get("axes", "n:40:60:80");
  std::vector<sim::GridAxis> axes;
  for (const std::string& field : bench::split_list(raw)) {
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (start <= field.size()) {
      const std::size_t colon = field.find(':', start);
      parts.push_back(field.substr(
          start, colon == std::string::npos ? colon : colon - start));
      if (colon == std::string::npos) break;
      start = colon + 1;
    }
    if (parts.size() < 2) {
      std::cerr << "--axes entry \"" << field << "\" wants name:v1[:v2...]\n";
      std::exit(2);
    }
    std::vector<double> values;
    for (std::size_t i = 1; i < parts.size(); ++i) {
      try {
        values.push_back(std::stod(parts[i]));
      } catch (const std::exception&) {
        std::cerr << "--axes entry \"" << field << "\": bad value \""
                  << parts[i] << "\"\n";
        std::exit(2);
      }
    }
    axes.push_back(axis_from_name(parts[0], std::move(values)));
  }
  return axes;
}

sim::Experiment make_experiment(const util::Options& options) {
  sim::ExperimentGrid grid;
  grid.base.kind = scenario_from(options.get("scenario", "join"));
  grid.axes = axes_from(options);
  grid.strategies =
      bench::string_list_from(options, "strategies", {"minim", "cp", "bbb"});
  return sim::Experiment(std::move(grid));
}

void print_result(const sim::ExperimentResult& result,
                  const util::Options& options) {
  util::TextTable table("cdma_drive: per-cell summary (mean +- stddev)");
  std::vector<std::string> header = result.axis_names;
  for (const char* column : {"strategy", "events", "recodings", "max color",
                             "trials"})
    header.push_back(column);
  table.set_header(header);

  std::vector<std::vector<std::string>> csv_rows;
  for (std::size_t p = 0; p < result.point_count(); ++p)
    for (std::size_t s = 0; s < result.strategy_count(); ++s) {
      const sim::TotalsSummary summary = sim::summarize(result.cell(p, s));
      std::vector<std::string> row;
      for (double coord : result.points[p])
        row.push_back(util::fmt_fixed(coord, 2));
      row.push_back(result.strategies[s]);
      row.push_back(util::fmt_fixed(summary.events.mean(), 2) + " +- " +
                    util::fmt_fixed(summary.events.stddev(), 2));
      row.push_back(util::fmt_fixed(summary.recodings.mean(), 2) + " +- " +
                    util::fmt_fixed(summary.recodings.stddev(), 2));
      row.push_back(util::fmt_fixed(summary.max_color.mean(), 2) + " +- " +
                    util::fmt_fixed(summary.max_color.stddev(), 2));
      row.push_back(std::to_string(summary.events.count()));
      table.add_row(row);

      std::vector<std::string> csv_row;
      for (double coord : result.points[p])
        csv_row.push_back(util::fmt_fixed(coord, 3));
      csv_row.push_back(result.strategies[s]);
      csv_row.push_back(std::to_string(summary.events.count()));
      csv_row.push_back(util::fmt_fixed(summary.events.mean(), 6));
      csv_row.push_back(util::fmt_fixed(summary.recodings.mean(), 6));
      csv_row.push_back(util::fmt_fixed(summary.recodings.stddev(), 6));
      csv_row.push_back(util::fmt_fixed(summary.max_color.mean(), 6));
      csv_rows.push_back(std::move(csv_row));
    }
  std::cout << table.render() << "\n";

  const std::string csv_dir = options.get("csv-dir", "");
  if (!csv_dir.empty()) {
    auto stream = util::open_csv(csv_dir + "/cdma_drive.csv");
    util::CsvWriter csv(stream);
    std::vector<std::string> csv_header = result.axis_names;
    for (const char* column : {"strategy", "trials", "events_mean",
                               "recodings_mean", "recodings_stddev",
                               "max_color_mean"})
      csv_header.push_back(column);
    csv.header(csv_header);
    for (const auto& row : csv_rows) csv.row(row);
    std::cout << "[csv] wrote " << csv_dir << "/cdma_drive.csv\n";
  }
}

/// --record-trace=F: dump grid point 0's workload as a replayable trace.
int run_record_trace(const std::string& path, const util::Options& options,
                     const sim::Experiment& experiment) {
  sim::ScenarioSpec spec = experiment.spec_for_point(0);
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
  const std::string strategy = options.get("strategy", "minim");
  serve::AssignmentEngine::Params params;
  params.validate = options.has("validate");
  params.recolor_threads = static_cast<std::size_t>(
      std::max<long long>(0, options.get_int("recolor-threads", 1)));
  serve::AssignmentEngine engine(strategy, params);

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
        static_cast<std::uint16_t>(options.get_int("port", 0)));
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
  session.flush_each = options.has("flush-each");
  session.max_batch = static_cast<std::size_t>(
      std::max<long long>(1, options.get_int("max-batch", 512)));
  const serve::SessionStats stats = serve::serve_session(engine, *transport,
                                                         session);

  std::cerr << "[serve] " << transport->describe() << " strategy=" << strategy;
  if (params.recolor_threads != 1)
    std::cerr << " recolor-threads=" << params.recolor_threads;
  std::cerr << ": lines=" << stats.lines << " events=" << stats.events
            << " queries=" << stats.queries << " errors=" << stats.errors
            << " batches=" << stats.batches
            << " coalesced=" << stats.coalesced_events << "\n";
  using Kind = sim::TraceEvent::Kind;
  for (Kind k : {Kind::kJoin, Kind::kLeave, Kind::kMove, Kind::kPower}) {
    const util::LatencyHistogram& h = engine.latency(k);
    if (h.count() == 0) continue;
    std::cerr << "[serve] latency " << sim::to_string(k) << " "
              << h.summary(1e-3, "us") << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Options options(argc, argv);

  if (options.has("serve")) return run_serve(options);

  sim::ExperimentOptions run;
  run.trials = options.get_count("trials", 100);
  run.seed = static_cast<std::uint64_t>(options.get_int("seed", 2001));
  run.threads = options.get_count("threads", 0);

  const sim::Experiment experiment = make_experiment(options);

  const std::string record = options.get("record-trace", "");
  if (!record.empty()) return run_record_trace(record, options, experiment);

  std::cout << "=== cdma_drive: scenario grid ===\n"
            << experiment.points().size() << " grid points x "
            << experiment.grid().strategies.size() << " strategies x "
            << run.trials << " trials, seed " << run.seed << "\n\n";

  const sim::ExperimentResult result = experiment.run(run);

  const std::string save = options.get("save-experiment", "");
  if (!save.empty()) {
    sim::write_experiment_csv_file(result, save);
    std::cout << "[csv] wrote " << save << " (full per-trial experiment)\n";
  }
  print_result(result, options);
  return 0;
}
