// Batched scenario sweeps on the unified experiment API: every scenario kind
// (join / power / move / churn) as one sim::Experiment across the strategy
// list, N Monte-Carlo trials fanned over the thread pool, with per-counter
// mean +- stddev summaries and the parallel-vs-serial wall-clock speedup.
// Each (kind, trial) workload is generated once and replayed across all
// strategies (paired comparison, no per-strategy regeneration).
//
// Options (all optional):
//   --trials=N          trials per scenario kind (default 100)
//   --seed=S            master seed (default 2001)
//   --threads=T         pool size (default 0 = hardware concurrency)
//   --n=N               nodes joined per trial (default 100; churn ignores it)
//   --churn-duration=D  churn horizon (default 400)
//   --strategies=...    strategy names (default minim,cp,bbb)
//   --serial-check      re-run every kind on 1 thread and verify the result
//                       is bit-identical (the experiment engine's contract)

#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "../bench/bench_util.hpp"
#include "sim/experiment.hpp"
#include "util/options.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace minim;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

std::string fmt_stat(const util::RunningStats& stat) {
  return util::fmt_fixed(stat.mean(), 2) + " +- " + util::fmt_fixed(stat.stddev(), 2);
}

bool summaries_equal(const sim::TotalsSummary& a, const sim::TotalsSummary& b) {
  auto same = [](const util::RunningStats& x, const util::RunningStats& y) {
    return x.count() == y.count() && x.mean() == y.mean() &&
           x.variance() == y.variance() && x.min() == y.min() && x.max() == y.max();
  };
  if (!same(a.events, b.events) || !same(a.recodings, b.recodings) ||
      !same(a.messages, b.messages) || !same(a.max_color, b.max_color))
    return false;
  for (std::size_t t = 0; t < a.recodings_by_type.size(); ++t)
    if (!same(a.events_by_type[t], b.events_by_type[t]) ||
        !same(a.recodings_by_type[t], b.recodings_by_type[t]))
      return false;
  return true;
}

const char* kind_name(sim::ScenarioKind kind) {
  switch (kind) {
    case sim::ScenarioKind::kJoin: return "join";
    case sim::ScenarioKind::kPower: return "power";
    case sim::ScenarioKind::kMove: return "move";
    case sim::ScenarioKind::kChurn: return "churn";
  }
  return "?";
}

constexpr sim::ScenarioKind kKinds[] = {
    sim::ScenarioKind::kJoin, sim::ScenarioKind::kPower,
    sim::ScenarioKind::kMove, sim::ScenarioKind::kChurn};

sim::Experiment make_kind_experiment(sim::ScenarioKind kind, std::size_t n,
                                     double churn_duration,
                                     const std::vector<std::string>& strategies) {
  sim::ExperimentGrid grid;
  grid.base.kind = kind;
  grid.base.workload.n = n;
  grid.base.move_rounds = 3;
  grid.base.churn.duration = churn_duration;
  grid.strategies = strategies;
  return sim::Experiment(std::move(grid));
}

}  // namespace

int main(int argc, char** argv) {
  const util::Options options(argc, argv);
  sim::ExperimentOptions run;
  run.trials = options.get_count("trials", 100);
  run.seed = static_cast<std::uint64_t>(options.get_int("seed", 2001));
  run.threads = options.get_count("threads", 0);
  const auto n = options.get_count("n", 100);
  const double churn_duration = options.get_double("churn-duration", 400.0);
  const bool serial_check = options.get_bool("serial-check", false);
  const std::vector<std::string> strategies =
      bench::string_list_from(options, "strategies", {"minim", "cp", "bbb"});

  std::cout << "=== Scenario sweep engine ===\n"
            << run.trials << " trials per scenario, seed " << run.seed << "\n\n";

  util::TextTable table("Per-scenario totals (mean +- stddev over trials)");
  table.set_header({"scenario", "strategy", "events", "recodings", "max color"});
  util::TextTable timing("Per-scenario wall clock (all strategies, one engine run)");
  timing.set_header({"scenario", "wall s", "serial s"});

  double parallel_total = 0.0;
  double serial_total = 0.0;
  bool all_match = true;

  for (const sim::ScenarioKind kind : kKinds) {
    const sim::Experiment experiment =
        make_kind_experiment(kind, n, churn_duration, strategies);

    const auto start = std::chrono::steady_clock::now();
    const sim::ExperimentResult result = experiment.run(run);
    const double elapsed = seconds_since(start);
    parallel_total += elapsed;

    std::string serial_cell = "-";
    if (serial_check) {
      sim::ExperimentOptions serial = run;
      serial.threads = 1;
      const auto serial_start = std::chrono::steady_clock::now();
      const sim::ExperimentResult reference = experiment.run(serial);
      const double serial_elapsed = seconds_since(serial_start);
      serial_total += serial_elapsed;
      serial_cell = util::fmt_fixed(serial_elapsed, 2);
      for (std::size_t s = 0; s < strategies.size(); ++s)
        if (!summaries_equal(summarize(result.cell(0, s)),
                             summarize(reference.cell(0, s)))) {
          all_match = false;
          std::cerr << "MISMATCH: " << kind_name(kind) << "/" << strategies[s]
                    << " parallel summary differs from serial\n";
        }
    }

    for (std::size_t s = 0; s < strategies.size(); ++s) {
      const sim::TotalsSummary summary = summarize(result.cell(0, s));
      table.add_row({kind_name(kind), strategies[s], fmt_stat(summary.events),
                     fmt_stat(summary.recodings), fmt_stat(summary.max_color)});
    }
    timing.add_row({kind_name(kind), util::fmt_fixed(elapsed, 2), serial_cell});
  }

  std::cout << table.render() << "\n" << timing.render() << "\n"
            << "parallel wall time: " << util::fmt_fixed(parallel_total, 2) << " s\n";
  if (serial_check) {
    std::cout << "serial wall time:   " << util::fmt_fixed(serial_total, 2)
              << " s (speedup "
              << util::fmt_fixed(serial_total / std::max(parallel_total, 1e-9), 2)
              << "x)\n"
              << (all_match ? "determinism check: PASS (bit-identical summaries)\n"
                            : "determinism check: FAIL\n");
  }
  return all_match ? 0 : 1;
}
