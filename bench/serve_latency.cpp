// serve_latency: serving-layer latency and throughput study for the online
// assignment engine (src/serve/).
//
// Per-event phases (the latency SLO study) drive an AssignmentEngine one
// event per `apply_batch` call (the paper's one-at-a-time model) through
// three phases per strategy and report the per-event-type latency
// distribution the way a service SLO is written:
//
//   1. ramp    — joins up to --target-live nodes (not measured);
//   2. steady  — --events of mixed churn (join/leave/move/power weighted to
//                hold the population near the target), per-type
//                p50/p99/p99.9 plus sustained events/sec;
//   3. storm   — --storm-rounds of large power raises (range tripled, then
//                restored), the recolor-storm tail study: each raise drags
//                a whole neighborhood through recoloring, so its p99.9 is
//                the latency class a bounded strategy exists to cap.
//
// The batch sweep (the batching tentpole's committed evidence) replays the
// IDENTICAL steady and storm workloads through `apply_batch` at each
// --batch-sizes size: one coalesced repair per batch for batch-capable
// strategies, so events/s rises with the batch size until the per-batch
// propagation cost dominates.  Batch size 1 is the pipelining-free control.
//
// The event sequence is generated from --seed alone (never from engine
// state), so every strategy and batch size serves the identical workload.
//
// Flags:
//   --strategies=...    default minim,bbb-bounded
//   --events=N          steady-churn events (default 20000; 2000 with --smoke)
//   --target-live=N     steady-state population (default 300; 80 with --smoke)
//   --storm-rounds=N    power-raise storms (default 200; 20 with --smoke)
//   --batch-sizes=...   batch sweep sizes (default 1,8,64,512)
//   --seed=S            workload seed (default 2001)
//   --smoke             CI-sized defaults for everything above
//   --append            append a labeled entry to the trajectory
//   --label=NAME        entry label for --append (default "serve-latency")
//   --out=FILE          trajectory path (default BENCH_sweep.json)
//   --check[=FILE]      regression-gate mode: compare this run's
//                       measurements against the most recent covering
//                       entries (default file: --out) and exit 1 on
//                       regression; nothing is written.  Throughput
//                       (events_per_s) gates at baseline/factor, wall
//                       clocks at baseline*factor (bench/trajectory.hpp).
//   --check-factor=X    allowed degradation factor (default 1.5)
//
// Appended measurements (bench.serve.*) carry the optional latency fields
// of trajectory.hpp: p50_us/p99_us/p999_us per event type, events_per_s on
// the throughput and batch-sweep records.

#include <array>
#include <chrono>
#include <fstream>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "../bench/bench_util.hpp"
#include "../bench/trajectory.hpp"
#include "serve/engine.hpp"
#include "sim/trace.hpp"
#include "util/latency_histogram.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace minim;
using Kind = sim::TraceEvent::Kind;
using Clock = std::chrono::steady_clock;

/// Deterministic churn-trace generator.  Draws only on its own state (RNG +
/// live set + per-node ranges), so the same seed yields the same event
/// sequence for every strategy under test.
class ChurnTraceGen {
 public:
  ChurnTraceGen(std::uint64_t seed, std::size_t target_live)
      : rng_(util::Rng::for_stream(seed, 0)), target_(target_live) {}

  sim::TraceEvent join_event() {
    sim::TraceEvent e;
    e.kind = Kind::kJoin;
    e.position = {rng_.uniform(0.0, 100.0), rng_.uniform(0.0, 100.0)};
    e.range = rng_.uniform(10.0, 25.0);
    live_.push_back(range_of_.size());
    range_of_.push_back(e.range);
    return e;
  }

  /// One steady-churn event: joins/leaves biased to hold the population
  /// near the target, moves and power tweaks on random live nodes.
  sim::TraceEvent next_steady() {
    const double occupancy =
        static_cast<double>(live_.size()) / static_cast<double>(target_);
    const double u = rng_.uniform(0.0, 1.0);
    if (live_.empty() || occupancy < 0.8 || (occupancy <= 1.2 && u < 0.25))
      return join_event();
    if (occupancy > 1.2 || u < 0.5) {
      sim::TraceEvent e;
      e.kind = Kind::kLeave;
      e.node = take_random_live();
      return e;
    }
    if (u < 0.8) {
      sim::TraceEvent e;
      e.kind = Kind::kMove;
      e.node = random_live();
      e.position = {rng_.uniform(0.0, 100.0), rng_.uniform(0.0, 100.0)};
      return e;
    }
    sim::TraceEvent e;
    e.kind = Kind::kPower;
    e.node = random_live();
    e.range = rng_.uniform(10.0, 25.0);
    range_of_[e.node] = e.range;
    return e;
  }

  /// The storm pair: a 3x range raise on a random live node, then the
  /// restoring power event.  Both belong to the tail study.
  std::pair<sim::TraceEvent, sim::TraceEvent> storm_pair() {
    const std::size_t node = random_live();
    const double before = range_of_[node];
    sim::TraceEvent raise;
    raise.kind = Kind::kPower;
    raise.node = node;
    raise.range = before * 3.0;
    sim::TraceEvent restore = raise;
    restore.range = before;
    return {raise, restore};
  }

  std::size_t live_count() const { return live_.size(); }

 private:
  std::size_t random_live() {
    return live_[rng_.below(live_.size())];
  }
  std::size_t take_random_live() {
    const std::size_t slot = rng_.below(live_.size());
    const std::size_t node = live_[slot];
    live_[slot] = live_.back();
    live_.pop_back();
    return node;
  }

  util::Rng rng_;
  std::size_t target_;
  std::vector<std::size_t> live_;      ///< join indices currently live
  std::vector<double> range_of_;       ///< by join index (stale after leave)
};

/// The full study workload, pre-generated so the per-event phases and every
/// batch size of the sweep replay literally the same trace.
struct Workload {
  sim::Trace ramp;    ///< target_live joins (never measured)
  sim::Trace steady;  ///< mixed churn
  sim::Trace storm;   ///< raise/restore pairs, flattened in order
};

Workload generate_workload(std::uint64_t seed, std::size_t target_live,
                           std::size_t events, std::size_t storm_rounds) {
  ChurnTraceGen gen(seed, target_live);
  Workload w;
  for (std::size_t i = 0; i < target_live; ++i)
    w.ramp.push_back(gen.join_event());
  for (std::size_t i = 0; i < events; ++i)
    w.steady.push_back(gen.next_steady());
  for (std::size_t i = 0; i < storm_rounds; ++i) {
    const auto [raise, restore] = gen.storm_pair();
    w.storm.push_back(raise);
    w.storm.push_back(restore);
  }
  return w;
}

struct StrategyRun {
  std::string strategy;
  std::array<util::LatencyHistogram, 4> steady;  ///< by Kind
  util::LatencyHistogram storm;
  double steady_wall_s = 0.0;
  std::size_t steady_events = 0;
};

StrategyRun run_strategy(const std::string& strategy, const Workload& w) {
  StrategyRun run;
  run.strategy = strategy;

  serve::AssignmentEngine engine(strategy);
  for (const sim::TraceEvent& event : w.ramp) engine.apply_batch({&event, 1});

  const auto steady_start = Clock::now();
  for (const sim::TraceEvent& event : w.steady)
    run.steady[static_cast<std::size_t>(event.kind)].record(
        engine.apply_batch({&event, 1}).latency_ns);
  run.steady_wall_s =
      std::chrono::duration<double>(Clock::now() - steady_start).count();
  run.steady_events = w.steady.size();

  for (const sim::TraceEvent& event : w.storm)
    run.storm.record(engine.apply_batch({&event, 1}).latency_ns);
  return run;
}

/// One (strategy, batch size) cell of the sweep.
struct BatchRun {
  std::string strategy;
  std::size_t batch = 1;
  double steady_wall_s = 0.0;
  std::size_t steady_events = 0;
  double storm_wall_s = 0.0;
  std::size_t storm_events = 0;
  std::size_t coalesced_batches = 0;  ///< batches repaired in one pass
};

/// Applies `trace` in `batch`-sized chunks; returns the wall clock.
double apply_chunked(serve::AssignmentEngine& engine, const sim::Trace& trace,
                     std::size_t batch, std::size_t* coalesced) {
  const auto start = Clock::now();
  for (std::size_t at = 0; at < trace.size(); at += batch) {
    const std::size_t take = std::min(batch, trace.size() - at);
    const serve::BatchReceipt receipt =
        engine.apply_batch(std::span<const sim::TraceEvent>(
            trace.data() + at, take));
    if (coalesced != nullptr && receipt.coalesced) ++*coalesced;
  }
  return std::chrono::duration<double>(Clock::now() - start).count();
}

BatchRun run_batched(const std::string& strategy, const Workload& w,
                     std::size_t batch) {
  BatchRun run;
  run.strategy = strategy;
  run.batch = batch;

  serve::AssignmentEngine engine(strategy);
  apply_chunked(engine, w.ramp, batch, nullptr);  // ramp: not measured
  run.steady_wall_s =
      apply_chunked(engine, w.steady, batch, &run.coalesced_batches);
  run.steady_events = w.steady.size();
  run.storm_wall_s =
      apply_chunked(engine, w.storm, batch, &run.coalesced_batches);
  run.storm_events = w.storm.size();
  return run;
}

std::string quantile_cell(const util::LatencyHistogram& h, double q) {
  return util::fmt_fixed(h.quantile(q) * 1e-3, 1);
}

double events_per_s(std::size_t events, double wall_s) {
  return wall_s > 0.0 ? static_cast<double>(events) / wall_s : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Options options(argc, argv);
  bench::exit_on_unread_flags(
      options, "serve_latency",
      {"strategies", "events", "target-live", "storm-rounds", "batch-sizes",
       "seed", "smoke", "append", "label", "out", "check", "check-factor"});
  const bool smoke = options.get_bool("smoke", false);
  const auto seed = static_cast<std::uint64_t>(options.get_int("seed", 2001));
  const auto events = options.get_count("events", smoke ? 2000 : 20000);
  const auto target_live = options.get_count("target-live", smoke ? 80 : 300);
  const auto storm_rounds = options.get_count("storm-rounds", smoke ? 20 : 200);
  const std::vector<std::string> strategies =
      bench::string_list_from(options, "strategies", {"minim", "bbb-bounded"});
  const std::vector<double> batch_size_list =
      bench::double_list_from(options, "batch-sizes", {1, 8, 64, 512});
  std::vector<std::size_t> batch_sizes;
  for (const double b : batch_size_list)
    batch_sizes.push_back(std::max<std::size_t>(1, static_cast<std::size_t>(b)));

  const bool check = options.has("check");
  const std::string out_path = options.get("out", "BENCH_sweep.json");
  const std::string check_path =
      options.get("check", "") == "true" || options.get("check", "").empty()
          ? out_path
          : options.get("check", out_path);
  const double check_factor = options.get_double("check-factor", 1.5);

  // Resolve the trajectory up front: a missing baseline in check mode (or
  // an unparseable --out in append mode) must fail before minutes of
  // measurement.
  std::vector<bench::TrajectoryEntry> trajectory =
      bench::load_trajectory(check ? check_path : out_path);
  if (check && trajectory.empty()) {
    std::cerr << "--check: no baseline entries in " << check_path << "\n";
    return 1;
  }

  std::cout << "=== serve_latency: online engine latency study ===\n"
            << "target_live " << target_live << ", steady events " << events
            << ", storm rounds " << storm_rounds << ", seed " << seed
            << "\n\n";

  const Workload workload =
      generate_workload(seed, target_live, events, storm_rounds);

  std::vector<StrategyRun> runs;
  for (const std::string& strategy : strategies)
    runs.push_back(run_strategy(strategy, workload));

  util::TextTable table("per-event-type latency (us)");
  table.set_header({"strategy", "phase", "type", "n", "p50", "p99", "p99.9",
                    "max"});
  for (const StrategyRun& run : runs) {
    for (Kind kind : {Kind::kJoin, Kind::kLeave, Kind::kMove, Kind::kPower}) {
      const util::LatencyHistogram& h =
          run.steady[static_cast<std::size_t>(kind)];
      if (h.count() == 0) continue;
      table.add_row({run.strategy, "steady", sim::to_string(kind),
                     std::to_string(h.count()), quantile_cell(h, 0.50),
                     quantile_cell(h, 0.99), quantile_cell(h, 0.999),
                     util::fmt_fixed(static_cast<double>(h.max()) * 1e-3, 1)});
    }
    const util::LatencyHistogram& storm = run.storm;
    table.add_row({run.strategy, "storm", "power",
                   std::to_string(storm.count()), quantile_cell(storm, 0.50),
                   quantile_cell(storm, 0.99), quantile_cell(storm, 0.999),
                   util::fmt_fixed(static_cast<double>(storm.max()) * 1e-3,
                                   1)});
  }
  std::cout << table.render() << "\n";

  for (const StrategyRun& run : runs)
    std::cout << "[throughput] " << run.strategy << ": "
              << util::fmt_fixed(
                     events_per_s(run.steady_events, run.steady_wall_s), 0)
              << " events/s sustained over "
              << util::fmt_fixed(run.steady_wall_s, 3) << " s\n";
  std::cout << "\n";

  // ------------------------------------------------------- batch sweep
  std::vector<BatchRun> batch_runs;
  util::TextTable sweep("batched application sweep (same workload)");
  sweep.set_header({"strategy", "batch", "steady ev/s", "speedup",
                    "storm ev/s", "coalesced"});
  for (const std::string& strategy : strategies) {
    double base_rate = 0.0;
    for (const std::size_t batch : batch_sizes) {
      const BatchRun run = run_batched(strategy, workload, batch);
      const double steady_rate =
          events_per_s(run.steady_events, run.steady_wall_s);
      if (batch == batch_sizes.front()) base_rate = steady_rate;
      sweep.add_row(
          {run.strategy, std::to_string(run.batch),
           util::fmt_fixed(steady_rate, 0),
           base_rate > 0.0 ? util::fmt_fixed(steady_rate / base_rate, 2) + "x"
                           : "-",
           util::fmt_fixed(events_per_s(run.storm_events, run.storm_wall_s),
                           0),
           std::to_string(run.coalesced_batches)});
      batch_runs.push_back(run);
    }
  }
  std::cout << sweep.render() << "\n";

  // --------------------------------------------- measurements (check/append)
  std::vector<bench::Measurement> measurements;
  for (const StrategyRun& run : runs) {
    for (Kind kind : {Kind::kJoin, Kind::kLeave, Kind::kMove, Kind::kPower}) {
      const util::LatencyHistogram& h =
          run.steady[static_cast<std::size_t>(kind)];
      if (h.count() == 0) continue;
      bench::Measurement m;
      m.name = std::string("bench.serve.steady.") + sim::to_string(kind) +
               "." + run.strategy;
      m.wall_s = h.mean() * static_cast<double>(h.count()) * 1e-9;
      m.p50_us = h.quantile(0.50) * 1e-3;
      m.p99_us = h.quantile(0.99) * 1e-3;
      m.p999_us = h.quantile(0.999) * 1e-3;
      measurements.push_back(std::move(m));
    }
    bench::Measurement throughput;
    throughput.name = "bench.serve.steady.throughput." + run.strategy;
    throughput.wall_s = run.steady_wall_s;
    throughput.events_per_s =
        events_per_s(run.steady_events, run.steady_wall_s);
    measurements.push_back(std::move(throughput));

    bench::Measurement storm;
    storm.name = "bench.serve.storm.power." + run.strategy;
    storm.wall_s =
        run.storm.mean() * static_cast<double>(run.storm.count()) * 1e-9;
    storm.p50_us = run.storm.quantile(0.50) * 1e-3;
    storm.p99_us = run.storm.quantile(0.99) * 1e-3;
    storm.p999_us = run.storm.quantile(0.999) * 1e-3;
    measurements.push_back(std::move(storm));
  }
  for (const BatchRun& run : batch_runs) {
    bench::Measurement steady;
    steady.name = "bench.serve.batch.steady.b" + std::to_string(run.batch) +
                  "." + run.strategy;
    steady.wall_s = run.steady_wall_s;
    steady.events_per_s = events_per_s(run.steady_events, run.steady_wall_s);
    measurements.push_back(std::move(steady));

    bench::Measurement storm;
    storm.name = "bench.serve.batch.storm.b" + std::to_string(run.batch) +
                 "." + run.strategy;
    storm.wall_s = run.storm_wall_s;
    storm.events_per_s = events_per_s(run.storm_events, run.storm_wall_s);
    measurements.push_back(std::move(storm));
  }

  if (check) {
    std::cout << "checking against " << check_path << " (factor "
              << util::fmt_fixed(check_factor, 2) << ")\n";
    const bench::CheckResult outcome =
        bench::check_measurements(trajectory, measurements, check_factor);
    if (outcome.compared == 0 && outcome.skipped == 0)
      std::cout << "serve check: FAIL (no measurement had a baseline)\n";
    else
      std::cout << (outcome.pass() ? "serve check: PASS\n"
                                   : "serve check: FAIL\n");
    return outcome.pass() ? 0 : 1;
  }

  if (!options.get_bool("append", false)) return 0;

  if (trajectory.empty() && !bench::read_file(out_path).empty()) {
    std::cerr << out_path
              << " exists but is not a recognizable trajectory; refusing to "
                 "overwrite\n";
    return 1;
  }

  bench::TrajectoryEntry entry;
  entry.label = options.get("label", "serve-latency");
  std::ostringstream config;
  config << "{\"events\": " << events << ", \"target_live\": " << target_live
         << ", \"storm_rounds\": " << storm_rounds << ", \"seed\": " << seed
         << ", \"batch_sizes\": [";
  for (std::size_t i = 0; i < batch_sizes.size(); ++i)
    config << (i ? ", " : "") << batch_sizes[i];
  config << "]";
  // Mark single-core recordings so throughput gates on differently-sized
  // machines skip them (bench::check_measurements).
  if (std::thread::hardware_concurrency() <= 1)
    config << ", \"single_core\": true";
  config << "}";
  entry.config_json = config.str();
  entry.benchmarks = measurements;
  trajectory.push_back(std::move(entry));

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << " for writing\n";
    return 1;
  }
  bench::write_trajectory(out, trajectory);
  std::cout << "[json] wrote " << out_path << " (" << trajectory.size()
            << " entries)\n";
  return 0;
}
