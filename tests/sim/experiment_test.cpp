// Tests for the unified experiment API (sim/experiment.hpp):
//  * grid enumeration (axis-0-major), the named axes' spec fields, and the
//    rejection of an empty axis, an empty strategy list or an unknown axis;
//  * the validate flag running the CA1/CA2 checks on every lane;
//  * the two headline determinism contracts — (a) grid results bit-identical
//    for any thread count, (b) trial ranges run as k shards and merged are
//    bit-identical to the unsharded run, including through the CSV
//    persistence round-trip;
//  * paired workloads across strategies;
//  * merge validation (gaps, overlaps, mismatched experiments).

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/recode_report.hpp"
#include "sim/experiment.hpp"
#include "sim/experiment_io.hpp"
#include "strategies/factory.hpp"

namespace {

using namespace minim;

sim::ExperimentGrid small_power_grid() {
  sim::ExperimentGrid grid;
  grid.base.kind = sim::ScenarioKind::kPower;
  grid.axes.push_back({"n", {12, 20}});
  grid.axes.push_back({"raise_factor", {2.0, 3.5}});
  grid.strategies = {"minim", "cp"};
  return grid;
}

void expect_identical(const sim::ExperimentResult& a,
                      const sim::ExperimentResult& b) {
  ASSERT_EQ(a.axis_names, b.axis_names);
  ASSERT_EQ(a.points, b.points);
  ASSERT_EQ(a.strategies, b.strategies);
  EXPECT_EQ(a.total_trials, b.total_trials);
  EXPECT_EQ(a.total_points, b.total_points);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.trial_begin, b.trial_begin);
  EXPECT_EQ(a.trial_count, b.trial_count);
  EXPECT_EQ(a.point_begin, b.point_begin);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t c = 0; c < a.cells.size(); ++c) {
    const auto& ca = a.cells[c];
    const auto& cb = b.cells[c];
    EXPECT_EQ(ca.point_index, cb.point_index);
    EXPECT_EQ(ca.strategy_index, cb.strategy_index);
    ASSERT_EQ(ca.trials.size(), cb.trials.size()) << "cell " << c;
    for (std::size_t i = 0; i < ca.trials.size(); ++i) {
      const auto& ta = ca.trials[i];
      const auto& tb = cb.trials[i];
      EXPECT_EQ(ta.trial, tb.trial);
      EXPECT_EQ(ta.totals.events, tb.totals.events);
      EXPECT_EQ(ta.totals.recodings, tb.totals.recodings);
      EXPECT_EQ(ta.totals.messages, tb.totals.messages);
      EXPECT_EQ(ta.totals.events_by_type, tb.totals.events_by_type);
      EXPECT_EQ(ta.totals.recodings_by_type, tb.totals.recodings_by_type);
      EXPECT_EQ(ta.max_color, tb.max_color);
      EXPECT_EQ(ta.setup_max_color, tb.setup_max_color);  // EQ: bit-identical
      EXPECT_EQ(ta.setup_recodings, tb.setup_recodings);
    }
    // Summaries accumulate in trial order, so they must match bitwise too.
    const sim::TotalsSummary sa = sim::summarize(ca);
    const sim::TotalsSummary sb = sim::summarize(cb);
    EXPECT_EQ(sa.events.mean(), sb.events.mean());
    EXPECT_EQ(sa.events.variance(), sb.events.variance());
    EXPECT_EQ(sa.recodings.mean(), sb.recodings.mean());
    EXPECT_EQ(sa.recodings.variance(), sb.recodings.variance());
    EXPECT_EQ(sa.max_color.mean(), sb.max_color.mean());
    EXPECT_EQ(sa.max_color.min(), sb.max_color.min());
    EXPECT_EQ(sa.max_color.max(), sb.max_color.max());
  }
}

TEST(Experiment, EnumeratesGridAxis0Major) {
  const sim::Experiment experiment(small_power_grid());
  const std::vector<std::vector<double>> expected{
      {12, 2.0}, {12, 3.5}, {20, 2.0}, {20, 3.5}};
  EXPECT_EQ(experiment.points(), expected);

  const sim::ScenarioSpec spec = experiment.spec_for_point(2);
  EXPECT_EQ(spec.workload.n, 20u);
  EXPECT_DOUBLE_EQ(spec.raise_factor, 2.0);
}

TEST(Experiment, NoAxesMeansOneGridPoint) {
  sim::ExperimentGrid grid;
  grid.strategies = {"minim"};
  const sim::Experiment experiment(grid);
  ASSERT_EQ(experiment.points().size(), 1u);
  EXPECT_TRUE(experiment.points()[0].empty());

  sim::ExperimentOptions options;
  options.trials = 3;
  options.threads = 1;
  const sim::ExperimentResult result = experiment.run(options);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_EQ(result.cell(0, 0).trials.size(), 3u);
}

TEST(Experiment, EveryAxisNameSetsItsSpecField) {
  const auto spec_with = [](const std::string& name, double x) {
    sim::ExperimentGrid grid;
    grid.axes.push_back({name, {x}});
    return sim::Experiment(std::move(grid)).spec_for_point(0);
  };
  EXPECT_EQ(spec_with("n", 33).workload.n, 33u);
  EXPECT_EQ(spec_with("raise_factor", 2.5).raise_factor, 2.5);
  EXPECT_EQ(spec_with("max_displacement", 12).max_displacement, 12.0);
  EXPECT_EQ(spec_with("move_rounds", 4).move_rounds, 4u);
  EXPECT_EQ(spec_with("min_range", 9).workload.min_range, 9.0);
  EXPECT_EQ(spec_with("max_range", 19).workload.max_range, 19.0);
  const sim::ScenarioSpec avg = spec_with("avg_range", 27.5);
  EXPECT_EQ(avg.workload.min_range, 25.0);
  EXPECT_EQ(avg.workload.max_range, 30.0);
  const sim::ScenarioSpec clusters = spec_with("clusters", 3);
  EXPECT_EQ(clusters.workload.placement, sim::Placement::kClustered);
  EXPECT_EQ(clusters.workload.cluster_count, 3u);
  const sim::ScenarioSpec sigma = spec_with("cluster_sigma", 3);
  EXPECT_EQ(sigma.workload.placement, sim::Placement::kClustered);
  EXPECT_EQ(sigma.workload.cluster_sigma, 3.0);
  EXPECT_EQ(spec_with("churn_duration", 400).churn.duration, 400.0);
  EXPECT_EQ(spec_with("arrival_rate", 0.5).churn.arrival_rate, 0.5);
  EXPECT_EQ(spec_with("mean_lifetime", 90).churn.mean_lifetime, 90.0);
}

TEST(Experiment, RejectsCountAxisValuesThatAreNotWholeCounts) {
  // These used to reach static_cast<std::size_t>: a negative value threw
  // std::length_error from a reserve, 1e12 std::bad_alloc, 2.5 ran 2 nodes,
  // and clusters 0 ran one cluster.
  const std::pair<const char*, double> cases[] = {
      {"n", -5},           {"n", 2.5},
      {"n", 1e12},         {"n", 4294967295.0},
      {"move_rounds", -1}, {"clusters", -3},
      {"clusters", 0},     {"clusters", 0.5},
      {"n", std::nan("")}};
  for (const auto& [name, value] : cases) {
    sim::ExperimentGrid grid;
    grid.axes.push_back({name, {value}});
    try {
      sim::Experiment{grid};
      ADD_FAILURE() << name << " " << value << " must throw";
    } catch (const std::invalid_argument& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find(std::string("axis ") + name + " wants a whole number"),
                std::string::npos)
          << what;
    }
  }
  sim::ExperimentGrid largest;
  largest.axes.push_back({"move_rounds", {0, 4294967294.0}});
  const sim::Experiment accepted(largest);
  EXPECT_EQ(accepted.spec_for_point(1).move_rounds, 4294967294u);
}

TEST(Experiment, RejectsAnEmptyAxisNoStrategiesAndAnUnknownAxis) {
  sim::ExperimentGrid empty_axis;
  empty_axis.axes.push_back({"n", {}});
  EXPECT_THROW(sim::Experiment{empty_axis}, std::invalid_argument);

  sim::ExperimentGrid no_strategies;
  no_strategies.strategies.clear();
  EXPECT_THROW(sim::Experiment{no_strategies}, std::invalid_argument);

  // "rounds" is close to, but not, the move_rounds axis.
  sim::ExperimentGrid unknown;
  unknown.axes.push_back({"rounds", {2}});
  try {
    sim::Experiment{unknown};
    ADD_FAILURE() << "an unknown axis name must throw";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("unknown axis \"rounds\""), std::string::npos) << what;
    EXPECT_NE(what.find("|move_rounds|"), std::string::npos) << what;
  }
}

TEST(Experiment, RejectsAnUnknownStrategyAndABadChurnPointBeforeRunning) {
  // Both used to throw only inside a trial, on a worker thread, after the
  // caller had started the run.
  sim::ExperimentGrid unknown;
  unknown.strategies = {"minim", "nosuch"};
  try {
    sim::Experiment{unknown};
    ADD_FAILURE() << "an unknown strategy name must throw";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("unknown strategy 'nosuch'"), std::string::npos) << what;
  }

  sim::ExperimentGrid churn;
  churn.base.kind = sim::ScenarioKind::kChurn;
  churn.axes.push_back({"arrival_rate", {0.25, -1.0}});
  EXPECT_THROW(sim::Experiment{churn}, std::invalid_argument);
  churn.axes[0] = {"churn_duration", {0.0}};
  EXPECT_THROW(sim::Experiment{churn}, std::invalid_argument);
  churn.axes[0] = {"arrival_rate", {0.0, 0.25}};  // 0 means "never"
  EXPECT_NO_THROW(sim::Experiment{churn});
}

// A deliberately invalid strategy: every node gets color 1, so any two
// constrained nodes conflict as soon as the network has an edge.
class EveryoneColorOne final : public core::RecodingStrategy {
 public:
  std::string name() const override { return "broken"; }

  core::RecodeReport on_join(const net::AdhocNetwork& net,
                             net::CodeAssignment& assignment,
                             net::NodeId n) override {
    assignment.set_color(n, 1);
    core::RecodeReport report;
    report.event = core::EventType::kJoin;
    report.subject = n;
    report.changes.push_back(core::Recode{n, net::kNoColor, 1});
    core::finalize_report(net, assignment, report);
    return report;
  }
  core::RecodeReport on_leave(const net::AdhocNetwork&, net::CodeAssignment&,
                              net::NodeId) override {
    return {};
  }
  core::RecodeReport on_move(const net::AdhocNetwork&, net::CodeAssignment&,
                             net::NodeId) override {
    return {};
  }
  core::RecodeReport on_power_change(const net::AdhocNetwork&,
                                     net::CodeAssignment&, net::NodeId,
                                     double) override {
    return {};
  }
};

TEST(Experiment, ValidateFlagRunsTheChecks) {
  // With enough nodes on the default 100x100 field the all-ones coloring is
  // invalid, so a validating grid must throw — and a non-validating grid
  // must sail through, proving the flag is what arms the check.
  sim::ExperimentGrid grid;
  grid.axes.push_back({"n", {16}});
  grid.strategies = {"minim", "broken"};
  grid.strategy_factory = [](const std::string& name) -> core::StrategyPtr {
    if (name == "broken") return std::make_unique<EveryoneColorOne>();
    return strategies::make_strategy(name);
  };
  sim::ExperimentOptions options;
  options.trials = 2;
  options.threads = 1;
  grid.base.validate = true;
  EXPECT_THROW(sim::Experiment(grid).run(options), std::logic_error);
  grid.base.validate = false;
  EXPECT_NO_THROW(sim::Experiment(grid).run(options));
}

TEST(Experiment, GridResultsBitIdenticalForAnyThreadCount) {
  // Acceptance criterion (a): the full grid, run serially and with a pool,
  // must agree on every per-trial counter and every summary bit.
  for (const auto kind :
       {sim::ScenarioKind::kPower, sim::ScenarioKind::kChurn}) {
    sim::ExperimentGrid grid = small_power_grid();
    grid.base.kind = kind;
    grid.base.churn.duration = 80.0;
    grid.base.churn.max_nodes = 40;
    const sim::Experiment experiment(std::move(grid));

    sim::ExperimentOptions serial;
    serial.trials = 6;
    serial.seed = 42;
    serial.threads = 1;
    sim::ExperimentOptions parallel = serial;
    parallel.threads = 4;

    expect_identical(experiment.run(serial), experiment.run(parallel));
  }
}

TEST(Experiment, ShardedTrialRangesMergeBitIdenticalToUnsharded) {
  // Acceptance criterion (b): trials [0,3), [3,5), [5,7) run as separate
  // shards (uneven on purpose) and merged equal the unsharded run.
  const sim::Experiment experiment(small_power_grid());
  sim::ExperimentOptions options;
  options.trials = 7;
  options.seed = 2001;
  options.threads = 2;
  const sim::ExperimentResult full = experiment.run(options);

  std::vector<sim::ExperimentResult> shards;
  for (const auto& [begin, count] :
       std::vector<std::pair<std::size_t, std::size_t>>{{0, 3}, {3, 2}, {5, 2}}) {
    sim::ExperimentOptions slice = options;
    slice.trial_begin = begin;
    slice.trial_count = count;
    shards.push_back(experiment.run(slice));
    EXPECT_EQ(shards.back().trial_begin, begin);
    EXPECT_EQ(shards.back().trial_count, count);
  }
  // Shards may arrive in any order.
  std::swap(shards[0], shards[2]);
  const sim::ExperimentResult merged = sim::merge_shards(std::move(shards));
  expect_identical(full, merged);
}

TEST(Experiment, PointRangeShardsMergeBitIdenticalToUnsharded) {
  // Axis-space sharding: the 4 grid points run as [0,1) + [1,3) + [3,4)
  // in separate shards (each over all trials) and merge bit-identically.
  const sim::Experiment experiment(small_power_grid());
  sim::ExperimentOptions options;
  options.trials = 5;
  options.threads = 2;
  const sim::ExperimentResult full = experiment.run(options);
  EXPECT_EQ(full.total_points, 4u);
  EXPECT_EQ(full.point_begin, 0u);

  std::vector<sim::ExperimentResult> shards;
  for (const auto& [begin, count] :
       std::vector<std::pair<std::size_t, std::size_t>>{{0, 1}, {1, 2}, {3, 1}}) {
    sim::ExperimentOptions slice = options;
    slice.point_begin = begin;
    slice.point_count = count;
    shards.push_back(experiment.run(slice));
    EXPECT_EQ(shards.back().point_begin, begin);
    EXPECT_EQ(shards.back().points.size(), count);
    EXPECT_EQ(shards.back().cells.size(), count * 2);
  }
  std::swap(shards[0], shards[2]);  // any arrival order
  expect_identical(full, sim::merge_shards(std::move(shards)));
}

TEST(Experiment, TwoAxisRectangleTilingMergesBitIdentical) {
  // Both axes cut at once: 2 point slices x 2 trial slices = 4 work units.
  const sim::Experiment experiment(small_power_grid());
  sim::ExperimentOptions options;
  options.trials = 6;
  options.threads = 1;
  const sim::ExperimentResult full = experiment.run(options);

  std::vector<sim::ExperimentResult> shards;
  for (const std::size_t point_begin : {0u, 2u})
    for (const std::size_t trial_begin : {0u, 3u}) {
      sim::ExperimentOptions slice = options;
      slice.point_begin = point_begin;
      slice.point_count = 2;
      slice.trial_begin = trial_begin;
      slice.trial_count = 3;
      shards.push_back(experiment.run(slice));
    }
  expect_identical(full, sim::merge_shards(std::move(shards)));
}

TEST(OrchestrationDeterminism, IrregularRectangleTilingsAlsoMerge) {
  // Point groups may shard their trial axis differently; merge_shards must
  // still assemble the exact result.  Every shard is round-tripped through
  // the CSV format, the way a --shard run hands it to --merge, and the
  // merge must write the unsharded run's CSV byte for byte.
  sim::ExperimentGrid grid;
  grid.base.kind = sim::ScenarioKind::kJoin;
  grid.axes.push_back({"n", {10, 14, 18}});
  grid.strategies = {"minim", "cp"};
  const sim::Experiment experiment(grid);
  sim::ExperimentOptions options;
  options.trials = 5;
  options.seed = 99;
  options.threads = 1;
  const auto csv_text = [](const sim::ExperimentResult& result) {
    std::stringstream out;
    sim::write_experiment_csv(result, out);
    return out.str();
  };
  const std::string full = csv_text(experiment.run(options));

  struct Rectangle {
    std::size_t point_begin, point_count, trial_begin, trial_count;
  };
  std::vector<sim::ExperimentResult> shards;
  for (const Rectangle& shard : {Rectangle{0, 1, 0, 2},    // point 0, trials [0,2)
                                 Rectangle{0, 1, 2, 3},    // point 0, trials [2,5)
                                 Rectangle{1, 2, 0, 5}}) {  // points 1-2, all trials
    sim::ExperimentOptions slice = options;
    slice.point_begin = shard.point_begin;
    slice.point_count = shard.point_count;
    slice.trial_begin = shard.trial_begin;
    slice.trial_count = shard.trial_count;
    std::stringstream io(csv_text(experiment.run(slice)));
    shards.push_back(sim::read_experiment_csv(io));
  }
  EXPECT_EQ(csv_text(sim::merge_shards(std::move(shards))), full);
}

TEST(Experiment, PointShardStreamsMatchTheFullRun) {
  // The same grid point computed from a point shard and from the full run
  // must agree bit-for-bit — the global-stream invariant on the point axis.
  const sim::Experiment experiment(small_power_grid());
  sim::ExperimentOptions options;
  options.trials = 3;
  options.threads = 1;
  const sim::ExperimentResult full = experiment.run(options);

  sim::ExperimentOptions slice = options;
  slice.point_begin = 2;
  slice.point_count = 1;
  const sim::ExperimentResult shard = experiment.run(slice);
  for (std::size_t s = 0; s < shard.strategy_count(); ++s) {
    const auto& lone = shard.cell(0, s).trials;
    const auto& same = full.cell(2, s).trials;
    ASSERT_EQ(lone.size(), same.size());
    for (std::size_t i = 0; i < lone.size(); ++i) {
      EXPECT_EQ(lone[i].totals.recodings, same[i].totals.recodings);
      EXPECT_EQ(lone[i].max_color, same[i].max_color);
    }
  }
}

TEST(Experiment, MergeRejectsPointGapsOverlapsAndPartialTrials) {
  const sim::Experiment experiment(small_power_grid());
  sim::ExperimentOptions options;
  options.trials = 4;
  options.threads = 1;

  auto slice = [&](std::size_t point_begin, std::size_t point_count,
                   std::size_t trial_begin, std::size_t trial_count) {
    sim::ExperimentOptions s = options;
    s.point_begin = point_begin;
    s.point_count = point_count;
    s.trial_begin = trial_begin;
    s.trial_count = trial_count;
    return experiment.run(s);
  };

  // Point gap: [0,1) + [2,4).
  EXPECT_THROW(sim::merge_shards({slice(0, 1, 0, 4), slice(2, 2, 0, 4)}),
               std::invalid_argument);
  // Point overlap: [0,3) + [2,2).
  EXPECT_THROW(sim::merge_shards({slice(0, 3, 0, 4), slice(2, 2, 0, 4)}),
               std::invalid_argument);
  // One point group covers only part of the trial space.
  EXPECT_THROW(sim::merge_shards({slice(0, 2, 0, 4), slice(2, 2, 0, 2)}),
               std::invalid_argument);
  // The happy 2D path.
  const sim::ExperimentResult merged = sim::merge_shards(
      {slice(0, 2, 0, 2), slice(0, 2, 2, 2), slice(2, 2, 0, 4)});
  EXPECT_EQ(merged.point_begin, 0u);
  EXPECT_EQ(merged.points.size(), 4u);
  EXPECT_EQ(merged.trial_count, 4u);
}

TEST(Experiment, PointShardCsvRoundTripIsExact) {
  const sim::Experiment experiment(small_power_grid());
  sim::ExperimentOptions options;
  options.trials = 3;
  options.threads = 1;
  options.point_begin = 1;
  options.point_count = 2;
  options.trial_begin = 1;
  options.trial_count = 2;
  const sim::ExperimentResult shard = experiment.run(options);
  EXPECT_EQ(shard.point_begin, 1u);
  EXPECT_EQ(shard.total_points, 4u);

  std::stringstream io;
  sim::write_experiment_csv(shard, io);
  expect_identical(shard, sim::read_experiment_csv(io));
}

TEST(Experiment, CsvRoundTripIsExact) {
  const sim::Experiment experiment(small_power_grid());
  sim::ExperimentOptions options;
  options.trials = 4;
  options.threads = 2;
  options.trial_begin = 1;
  options.trial_count = 2;
  const sim::ExperimentResult shard = experiment.run(options);

  std::stringstream io;
  sim::write_experiment_csv(shard, io);
  const sim::ExperimentResult parsed = sim::read_experiment_csv(io);
  expect_identical(shard, parsed);
}

TEST(Experiment, CsvReaderRejectsTruncatedShards) {
  const sim::Experiment experiment(small_power_grid());
  sim::ExperimentOptions options;
  options.trials = 4;
  options.threads = 1;
  std::stringstream io;
  sim::write_experiment_csv(experiment.run(options), io);

  // Drop the last data row, keeping the metadata intact — the exact failure
  // a cut-short file transfer produces.
  std::string text = io.str();
  text.erase(text.find_last_of('\n', text.size() - 2) + 1);
  std::stringstream truncated(text);
  EXPECT_THROW(sim::read_experiment_csv(truncated), std::runtime_error);

  // Malformed metadata must also surface as runtime_error, per the header.
  std::stringstream corrupt("#minim-experiment v1\n#seed\n");
  EXPECT_THROW(sim::read_experiment_csv(corrupt), std::runtime_error);
}

TEST(Experiment, StrategiesShareTheTrialWorkload) {
  // Paired comparison: two copies of the same strategy in one grid must
  // produce identical cells, because the workload is generated once per
  // (point, trial) and replayed.
  sim::ExperimentGrid grid = small_power_grid();
  grid.strategies = {"minim", "minim"};
  const sim::Experiment experiment(std::move(grid));
  sim::ExperimentOptions options;
  options.trials = 4;
  options.threads = 2;
  const sim::ExperimentResult result = experiment.run(options);
  for (std::size_t p = 0; p < result.point_count(); ++p) {
    const auto& a = result.cell(p, 0).trials;
    const auto& b = result.cell(p, 1).trials;
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].totals.recodings, b[i].totals.recodings);
      EXPECT_EQ(a[i].max_color, b[i].max_color);
    }
  }
}

TEST(Experiment, StreamsDependOnGlobalTrialNotShardPosition) {
  // The same global trial run from two different shard framings must agree.
  const sim::Experiment experiment(small_power_grid());
  sim::ExperimentOptions narrow;
  narrow.trials = 6;
  narrow.threads = 1;
  narrow.trial_begin = 4;
  narrow.trial_count = 1;
  sim::ExperimentOptions wide = narrow;
  wide.trial_begin = 3;
  wide.trial_count = 3;

  const sim::ExperimentResult a = experiment.run(narrow);
  const sim::ExperimentResult b = experiment.run(wide);
  for (std::size_t c = 0; c < a.cells.size(); ++c) {
    const sim::RunOutcome& lone = a.cells[c].trials.at(0);
    const sim::RunOutcome& same = b.cells[c].trials.at(1);  // global 4
    EXPECT_EQ(lone.trial, 4u);
    EXPECT_EQ(same.trial, 4u);
    EXPECT_EQ(lone.totals.recodings, same.totals.recodings);
    EXPECT_EQ(lone.max_color, same.max_color);
  }
}

TEST(Experiment, MergeRejectsGapsOverlapsAndMismatches) {
  const sim::Experiment experiment(small_power_grid());
  sim::ExperimentOptions options;
  options.trials = 6;
  options.threads = 1;

  auto slice = [&](std::size_t begin, std::size_t count) {
    sim::ExperimentOptions s = options;
    s.trial_begin = begin;
    s.trial_count = count;
    return experiment.run(s);
  };

  EXPECT_THROW(sim::merge_shards({}), std::invalid_argument);
  // Gap: [0,2) + [4,6).
  EXPECT_THROW(sim::merge_shards({slice(0, 2), slice(4, 2)}),
               std::invalid_argument);
  // Overlap: [0,4) + [2,4).
  EXPECT_THROW(sim::merge_shards({slice(0, 4), slice(2, 4)}),
               std::invalid_argument);
  // Incomplete coverage: [0,4) alone.
  EXPECT_THROW(sim::merge_shards({slice(0, 4)}), std::invalid_argument);
  // Different seed = a different experiment.
  sim::ExperimentOptions other = options;
  other.seed = 999;
  other.trial_begin = 3;
  other.trial_count = 3;
  EXPECT_THROW(sim::merge_shards({slice(0, 3), experiment.run(other)}),
               std::invalid_argument);
  // And the happy path still works.
  const sim::ExperimentResult merged =
      sim::merge_shards({slice(0, 3), slice(3, 3)});
  EXPECT_EQ(merged.trial_begin, 0u);
  EXPECT_EQ(merged.trial_count, 6u);
}

}  // namespace
