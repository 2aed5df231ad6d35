// Large-N harness: proves the per-event hot path at 10³→10⁶ nodes.
//
// Each stage builds an n-node network by replaying a constant-density join
// workload (field scaled so the mean degree stays fixed; placement uniform,
// clustered, or poisson-disk — see sim::make_large_n_params) through a
// *local* strategy, and records
//   * wall-clock and events/s for the join phase,
//   * the engine's heap footprint in bytes/node (bench::memory_profile),
//   * the process peak RSS (VmHWM) after the stage.
// Stages run in ascending n, so the monotone RSS high-water mark after each
// stage is attributable to it.
//
// Modes:
//   default            run --ns stages and print the table
//   --append           also append a labeled entry (one measurement per
//                      stage, "bench.large_n.<placement>.<n>") to --out
//   --smoke            single capped stage (--smoke-n, default 10000) — the
//                      CI-sized run
//   --check-rss[=F]    compare each stage's peak RSS against the most
//                      recent entry of F (default --out) covering it; exit 1
//                      when any exceeds baseline * --rss-factor, or when no
//                      stage had an RSS baseline (bench::check_measurements).
//                      The CI memory gate, which blocks.
//   --check[=F]        the same gate on wall clocks (churn stages included),
//                      at --check-factor.  Advisory in CI, like
//                      perf_trajectory --check.
//   --churn            after each join stage, run a continuous-time
//                      leave/move/power churn phase *on* the n-node network
//                      (sim::run_churn seeded with `initial_nodes = n`,
//                      arrival rate balancing the mean lifetime so the
//                      population holds near n) — the scenario family beyond
//                      join-only, at the same constant-density placement.
//                      Churn measurements append as
//                      "bench.large_n.<placement>.<n>.churn".  The churn
//                      table's prop/evt column reports BBB's per-event
//                      propagation work (processed + full ranks over
//                      events) — the number that must stay flat in n for
//                      rank-bounded recoloring ("-" for other strategies).
//   --check-population[=T]  after churn stages, require every stage's final
//                      population within T·n of n (default 0.25) and its
//                      final assignment valid; exit 1 otherwise.  T must
//                      parse whole, like every number option.  The CTest
//                      churn smoke runs this.
//
// Options:
//   --ns=...           stage sizes (default 1000,10000,100000)
//   --strategy=LIST    comma-separated recoding strategies (default minim;
//                      "bbb-bounded" is the rank-bounded BBB — plain "bbb"
//                      recolors O(V+E) per event and is not a large-N
//                      citizen).  "minim" keeps the historical unsuffixed
//                      measurement names; every other strategy suffixes
//                      ".<strategy>", so baselines never mix strategies.
//   --placement=P      uniform | clustered | poisson-disk (default clustered)
//   --mean-degree=D    target mean out-degree (default 12)
//   --seed=S           master seed (default 2001)
//   --label=NAME       entry label for --append (default "large-n")
//   --out=FILE         trajectory path (default BENCH_sweep.json)
//   --rss-factor=X     allowed RSS growth factor for --check-rss (default 1.5)
//   --churn-duration=D churn horizon (default 60 time units)
//   --churn-lifetime=L mean node lifetime (default 600; ~D/L of the
//                      population leaves and is replaced during the phase)
//   --churn-move-rate=M    per-node movement rate (default 0.004)
//   --churn-power-rate=P   per-node power-toggle rate (default 0.002)

#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "../bench/bench_util.hpp"
#include "../bench/trajectory.hpp"
#include "sim/churn.hpp"
#include "sim/replay.hpp"
#include "sim/simulation.hpp"
#include "sim/workload.hpp"
#include "strategies/bbb.hpp"
#include "strategies/factory.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace minim;

/// Measurement-name suffix for a strategy.  "minim" owns the historical
/// unsuffixed names; everyone else appends ".<strategy>" so baselines for
/// different strategies never collide.
std::string strategy_suffix(const std::string& strategy) {
  return strategy == "minim" ? "" : "." + strategy;
}

sim::Placement placement_from(const std::string& name) {
  if (name == "uniform") return sim::Placement::kUniform;
  if (name == "clustered") return sim::Placement::kClustered;
  if (name == "poisson-disk") return sim::Placement::kPoissonDisk;
  std::cerr << "unknown placement \"" << name
            << "\" (expected uniform|clustered|poisson-disk)\n";
  std::exit(2);
}

struct StageResult {
  std::size_t n = 0;
  double gen_s = 0.0;     ///< workload generation
  double join_s = 0.0;    ///< event replay (the hot path under test)
  double events_per_s = 0.0;
  double bytes_per_node = 0.0;
  double peak_rss_mb = 0.0;
  net::Color max_color = 0;
};

StageResult run_stage(std::size_t n, sim::Placement placement, double mean_degree,
                      const std::string& strategy_name, std::uint64_t seed) {
  using clock = std::chrono::steady_clock;
  StageResult result;
  result.n = n;

  const sim::WorkloadParams params =
      sim::make_large_n_params(n, mean_degree, placement);
  // Stream keyed by n (not stage index): a --smoke run of one stage
  // reproduces exactly the workload the full run used for that n, so RSS
  // baselines compare like for like.
  util::Rng rng = util::Rng::for_stream(seed, n);
  const auto gen_start = clock::now();
  const sim::Workload workload = sim::make_join_workload(params, rng);
  result.gen_s =
      std::chrono::duration<double>(clock::now() - gen_start).count();

  const auto strategy = strategies::make_strategy(strategy_name);
  sim::Simulation::Params sim_params;
  sim_params.width = workload.width;
  sim_params.height = workload.height;
  sim::Simulation simulation(*strategy, sim_params);

  const auto join_start = clock::now();
  for (const auto& config : workload.joins) simulation.join(config);
  result.join_s =
      std::chrono::duration<double>(clock::now() - join_start).count();
  result.events_per_s =
      result.join_s > 0 ? static_cast<double>(n) / result.join_s : 0.0;

  const bench::MemoryProfile memory = bench::memory_profile(simulation.network());
  result.bytes_per_node = memory.bytes_per_node;
  result.peak_rss_mb =
      static_cast<double>(bench::peak_rss_bytes()) / (1024.0 * 1024.0);
  result.max_color = simulation.max_color();
  return result;
}

// ------------------------------------------------------------- churn stage

struct ChurnStageConfig {
  bool enabled = false;
  double duration = 60.0;
  double mean_lifetime = 600.0;
  double move_rate = 0.004;
  double power_rate = 0.002;
};

struct ChurnStageResult {
  std::size_t n = 0;
  double wall_s = 0.0;          ///< build (n joins) + churn phase
  double events_per_s = 0.0;    ///< all events over the whole stage
  std::size_t churn_events = 0; ///< events beyond the n seed joins
  std::size_t peak_nodes = 0;
  std::size_t final_nodes = 0;
  double peak_rss_mb = 0.0;
  net::Color max_color = 0;
  /// BBB only: mean per-event propagation work, (processed + full ranks) /
  /// events.  Flat in n ⇔ rank-bounded recoloring is doing its job.
  /// Negative when the strategy exposes no such counter.
  double prop_per_event = -1.0;
  bool final_valid = false;
};

/// Runs leave/move/power churn on an n-node constant-density network: the
/// network is seeded to n nodes (same placement family as the join stage),
/// then arrivals at rate n/lifetime keep the population near n while nodes
/// leave, move, and duty-cycle their transmitters.
ChurnStageResult run_churn_stage(std::size_t n, sim::Placement placement,
                                 double mean_degree,
                                 const std::string& strategy_name,
                                 std::uint64_t seed,
                                 const ChurnStageConfig& config) {
  using clock = std::chrono::steady_clock;
  const sim::WorkloadParams params =
      sim::make_large_n_params(n, mean_degree, placement);

  sim::ChurnParams churn;
  churn.duration = config.duration;
  churn.mean_lifetime = config.mean_lifetime;
  churn.arrival_rate = static_cast<double>(n) / config.mean_lifetime;
  churn.move_rate = config.move_rate;
  churn.power_rate = config.power_rate;
  churn.min_range = params.min_range;
  churn.max_range = params.max_range;
  churn.width = params.width;
  churn.height = params.height;
  churn.sample_interval = config.duration / 4.0;
  churn.max_nodes = n + n / 4 + 16;
  churn.initial_nodes = n;
  churn.initial_placement = placement;
  churn.initial_cluster_count = params.cluster_count;
  churn.initial_cluster_sigma = params.cluster_sigma;
  churn.initial_min_separation = params.min_separation;

  const auto strategy = strategies::make_strategy(strategy_name);
  // A stream namespace disjoint from the join stages' (keyed by n).
  util::Rng rng = util::Rng::for_stream(
      seed, static_cast<std::uint64_t>(n) + (std::uint64_t{1} << 32));

  ChurnStageResult result;
  result.n = n;
  const auto start = clock::now();
  const sim::ChurnResult outcome = sim::run_churn(churn, *strategy, rng);
  result.wall_s = std::chrono::duration<double>(clock::now() - start).count();
  result.events_per_s =
      result.wall_s > 0
          ? static_cast<double>(outcome.totals.events) / result.wall_s
          : 0.0;
  result.churn_events = outcome.totals.events > n ? outcome.totals.events - n : 0;
  result.peak_nodes = outcome.peak_nodes;
  result.final_nodes =
      outcome.samples.empty() ? outcome.peak_nodes : outcome.samples.back().nodes;
  result.peak_rss_mb =
      static_cast<double>(bench::peak_rss_bytes()) / (1024.0 * 1024.0);
  result.max_color = outcome.final_max_color;
  result.final_valid = outcome.final_valid;
  if (const auto* bbb =
          dynamic_cast<const strategies::BbbStrategy*>(strategy.get())) {
    const auto& counters = bbb->counters();
    if (counters.events > 0)
      result.prop_per_event =
          static_cast<double>(counters.processed_ranks + counters.full_ranks) /
          static_cast<double>(counters.events);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Options options(argc, argv);
  bench::exit_on_unread_flags(
      options, "large_n",
      {"smoke", "smoke-n", "ns", "strategy", "placement", "mean-degree",
       "seed", "out", "append", "label", "check", "check-factor",
       "check-rss", "rss-factor", "check-population", "churn",
       "churn-duration", "churn-lifetime", "churn-move-rate",
       "churn-power-rate"});
  const bool smoke = options.get_bool("smoke", false);
  std::vector<double> ns =
      bench::double_list_from(options, "ns", {1000, 10000, 100000});
  if (smoke)
    ns = {static_cast<double>(options.get_int("smoke-n", 10000))};
  const std::vector<std::string> strategy_list =
      bench::split_list(options.get("strategy", "minim"));
  if (strategy_list.empty()) {
    std::cerr << "--strategy: empty strategy list\n";
    return 2;
  }
  const sim::Placement placement =
      placement_from(options.get("placement", "clustered"));
  const double mean_degree = options.get_double("mean-degree", 12.0);
  const auto seed = static_cast<std::uint64_t>(options.get_int("seed", 2001));
  const std::string out_path = options.get("out", "BENCH_sweep.json");
  const bool append = options.get_bool("append", false);
  const bool check_rss = options.has("check-rss");
  const double rss_factor = options.get_double("rss-factor", 1.5);
  const bool check_wall = options.has("check");
  const double check_factor = options.get_double("check-factor", 1.5);
  // --check-rss[=F] (which wins over --check) or --check[=F] gates against F,
  // by default the --out file.
  const std::string gate_raw = options.get(check_rss ? "check-rss" : "check", "");
  const std::string gate_path =
      gate_raw == "true" || gate_raw.empty() ? out_path : gate_raw;
  const bool check_population = options.has("check-population");
  const std::string population_raw = options.get("check-population", "");
  const double population_tolerance =
      population_raw == "true" || population_raw.empty()
          ? 0.25
          : options.get_double("check-population", 0.25);
  ChurnStageConfig churn_config;
  churn_config.enabled = options.get_bool("churn", false);
  churn_config.duration = options.get_double("churn-duration", 60.0);
  churn_config.mean_lifetime = options.get_double("churn-lifetime", 600.0);
  churn_config.move_rate = options.get_double("churn-move-rate", 0.004);
  churn_config.power_rate = options.get_double("churn-power-rate", 0.002);

  std::vector<bench::TrajectoryEntry> trajectory = bench::load_trajectory(
      check_rss || check_wall ? gate_path : out_path);
  if ((check_rss || check_wall) && trajectory.empty()) {
    std::cerr << (check_rss ? "--check-rss" : "--check")
              << ": no baseline entries in " << gate_path << "\n";
    return 1;
  }
  if (append && trajectory.empty() && !bench::read_file(out_path).empty()) {
    std::cerr << out_path
              << " exists but is not a recognizable trajectory; refusing to "
                 "overwrite it\n";
    return 1;
  }

  std::cout << "=== Large-N join hot path (strategies=";
  for (std::size_t i = 0; i < strategy_list.size(); ++i)
    std::cout << (i ? "," : "") << strategy_list[i];
  std::cout << ", placement=" << sim::to_string(placement)
            << ", mean degree ~" << util::fmt_fixed(mean_degree, 1) << ") ===\n";

  util::TextTable table("stages");
  table.set_header({"strategy", "n", "gen s", "join s", "events/s",
                    "bytes/node", "peak RSS MB", "max color"});
  std::vector<bench::Measurement> measurements;
  for (const std::string& strategy : strategy_list) {
    for (const double stage_n : ns) {
      const auto n = static_cast<std::size_t>(stage_n);
      const StageResult stage =
          run_stage(n, placement, mean_degree, strategy, seed);
      table.add_row({strategy, std::to_string(stage.n),
                     util::fmt_fixed(stage.gen_s, 2),
                     util::fmt_fixed(stage.join_s, 2),
                     util::fmt_fixed(stage.events_per_s, 0),
                     util::fmt_fixed(stage.bytes_per_node, 1),
                     util::fmt_fixed(stage.peak_rss_mb, 1),
                     std::to_string(stage.max_color)});
      bench::Measurement m;
      m.name = "bench.large_n." + std::string(sim::to_string(placement)) +
               "." + std::to_string(stage.n) + strategy_suffix(strategy);
      m.wall_s = stage.join_s;
      m.peak_rss_mb = stage.peak_rss_mb;
      m.bytes_per_node = stage.bytes_per_node;
      measurements.push_back(std::move(m));
    }
  }
  std::cout << table.render() << "\n";

  bool population_ok = true;
  if (churn_config.enabled) {
    std::cout << "=== Churn phase (duration "
              << util::fmt_fixed(churn_config.duration, 0) << ", lifetime "
              << util::fmt_fixed(churn_config.mean_lifetime, 0)
              << ": leaves/arrivals hold the population near n) ===\n";
    util::TextTable churn_table("churn stages");
    churn_table.set_header({"strategy", "n", "wall s", "events/s",
                            "churn events", "peak n", "final n", "prop/evt",
                            "peak RSS MB", "max color"});
    for (const std::string& strategy : strategy_list) {
      for (const double stage_n : ns) {
        const auto n = static_cast<std::size_t>(stage_n);
        const ChurnStageResult stage = run_churn_stage(
            n, placement, mean_degree, strategy, seed, churn_config);
        churn_table.add_row(
            {strategy, std::to_string(stage.n),
             util::fmt_fixed(stage.wall_s, 2),
             util::fmt_fixed(stage.events_per_s, 0),
             std::to_string(stage.churn_events),
             std::to_string(stage.peak_nodes),
             std::to_string(stage.final_nodes),
             stage.prop_per_event < 0.0
                 ? std::string("-")
                 : util::fmt_fixed(stage.prop_per_event, 1),
             util::fmt_fixed(stage.peak_rss_mb, 1),
             std::to_string(stage.max_color)});
        if (check_population) {
          const auto drift = static_cast<double>(
              stage.final_nodes > n ? stage.final_nodes - n
                                    : n - stage.final_nodes);
          const bool in_band =
              drift <= population_tolerance * static_cast<double>(n);
          if (!in_band || !stage.final_valid) {
            population_ok = false;
            std::cout << "  population check FAIL: " << strategy << " n="
                      << n << " final=" << stage.final_nodes
                      << (stage.final_valid ? "" : " (invalid assignment)")
                      << "\n";
          }
        }
        bench::Measurement m;
        m.name = "bench.large_n." + std::string(sim::to_string(placement)) +
                 "." + std::to_string(stage.n) + ".churn" +
                 strategy_suffix(strategy);
        m.wall_s = stage.wall_s;
        m.peak_rss_mb = stage.peak_rss_mb;
        measurements.push_back(std::move(m));
      }
    }
    std::cout << churn_table.render() << "\n";
  }
  if (check_population) {
    std::cout << "population check: " << (population_ok ? "PASS" : "FAIL")
              << "\n";
    if (!population_ok) return 1;
  }

  if (check_rss || check_wall) {
    const bench::GatedField& field =
        check_rss ? bench::kPeakRss : bench::kWallClock;
    const double factor = check_rss ? rss_factor : check_factor;
    std::cout << "checking " << field.key << " against " << gate_path
              << " (factor " << util::fmt_fixed(factor, 2) << ")\n";
    const bench::CheckResult outcome = bench::check_measurements(
        trajectory, measurements, field, factor,
        check_rss ? "rss check" : "wall check");
    return outcome.pass() ? 0 : 1;
  }

  if (append) {
    std::ostringstream config;
    config << "{\"strategy\": \"";
    for (std::size_t i = 0; i < strategy_list.size(); ++i)
      config << (i ? "," : "") << strategy_list[i];
    config << "\", \"placement\": \"" << sim::to_string(placement)
           << "\", \"mean_degree\": " << util::fmt_fixed(mean_degree, 1)
           << ", \"seed\": " << seed << "}";
    bench::TrajectoryEntry entry;
    entry.label = options.get("label", "large-n");
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
  }
  return 0;
}
