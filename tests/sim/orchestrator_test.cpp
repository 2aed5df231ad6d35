// Orchestration determinism: any tiling of the (point x trial) rectangle —
// trial-split, axis-split, or both — merges bit-identically to the
// unsharded run, through the CSV persistence round-trip and through the
// real process-pool driver with an injected worker failure (a crash, or a
// hang past the deadline); plus the shard manifest's round-trip and resume
// semantics.

#include "sim/orchestrator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "../helpers/process_probe.hpp"
#include "sim/experiment.hpp"
#include "sim/experiment_io.hpp"
#include "sim/work_plan.hpp"

namespace {

namespace fs = std::filesystem;
using namespace minim;

sim::ExperimentGrid small_grid() {
  sim::ExperimentGrid grid;
  grid.base.kind = sim::ScenarioKind::kJoin;
  grid.axes.push_back(sim::GridAxis{
      "n", {10, 14, 18}, [](sim::ScenarioSpec& spec, double x) {
        spec.workload.n = static_cast<std::size_t>(x);
      }});
  grid.strategies = {"minim", "cp"};
  return grid;
}

sim::ExperimentOptions small_run() {
  sim::ExperimentOptions run;
  run.trials = 5;
  run.seed = 99;
  run.threads = 1;
  return run;
}

std::string csv_text(const sim::ExperimentResult& result) {
  std::stringstream out;
  sim::write_experiment_csv(result, out);
  return out.str();
}

/// Runs every unit of `plan` as its own rectangle (CSV round-tripped, the
/// way a worker process would ship it) and merges.
sim::ExperimentResult run_plan(const sim::Experiment& experiment,
                               const sim::ExperimentOptions& run,
                               const std::vector<sim::WorkUnit>& plan) {
  std::vector<sim::ExperimentResult> shards;
  for (const sim::WorkUnit& unit : plan) {
    sim::ExperimentOptions slice = run;
    slice.point_begin = unit.point_begin;
    slice.point_count = unit.point_count;
    slice.trial_begin = unit.trial_begin;
    slice.trial_count = unit.trial_count;
    std::stringstream io;
    sim::write_experiment_csv(experiment.run(slice), io);
    shards.push_back(sim::read_experiment_csv(io));
  }
  return sim::merge_shards(std::move(shards));
}

TEST(OrchestrationDeterminism, EverySplitModeMergesByteIdenticalToUnsharded) {
  const sim::Experiment experiment(small_grid());
  const sim::ExperimentOptions run = small_run();
  const std::string full = csv_text(experiment.run(run));

  for (const sim::WorkSplit split :
       {sim::WorkSplit::kTrials, sim::WorkSplit::kPoints, sim::WorkSplit::kAuto})
    for (const std::size_t units : {2u, 3u, 6u}) {
      const auto plan = sim::plan_work_units(
          units, experiment.points().size(), run.trials, split);
      const sim::ExperimentResult merged = run_plan(experiment, run, plan);
      EXPECT_EQ(csv_text(merged), full)
          << "split " << to_string(split) << ", " << units << " units";
    }
}

TEST(OrchestrationDeterminism, IrregularRectangleTilingsAlsoMerge) {
  // Point groups may shard their trial axis differently; merge_shards must
  // still assemble the exact result.
  const sim::Experiment experiment(small_grid());
  const sim::ExperimentOptions run = small_run();
  const std::string full = csv_text(experiment.run(run));

  std::vector<sim::WorkUnit> plan;
  plan.push_back({0, 0, 1, 0, 2});  // point 0, trials [0,2)
  plan.push_back({1, 0, 1, 2, 3});  // point 0, trials [2,5)
  plan.push_back({2, 1, 2, 0, 5});  // points 1-2, all trials
  EXPECT_EQ(csv_text(run_plan(experiment, run, plan)), full);
}

// ------------------------------------------------------------ process level

/// How a failing unit's first attempt goes wrong.
enum class Failure {
  kExit,  ///< exits 1 before producing output
  kHang,  ///< forks a child, then sleeps until the deadline kills it
};

/// A worker command that "computes" its unit by copying a pre-staged shard
/// CSV — the orchestrator cannot tell the difference, and the test stays
/// independent of any bench binary.  `fail_units` fail their first attempt
/// (before producing output), exercising the bounded retry.  Every worker
/// records its pid, and a hanging one its child's too (`pids()`).
class StagedWorkers {
 public:
  explicit StagedWorkers(const fs::path& dir) : dir_(dir) {
    fs::create_directories(dir_);
  }

  sim::Orchestrator::WorkerCommand command(
      const sim::Experiment& experiment, const sim::ExperimentOptions& run,
      const std::vector<std::size_t>& fail_units = {},
      Failure failure = Failure::kExit) {
    return [this, &experiment, run, fail_units, failure](
               const sim::WorkUnit& unit, const std::string& out_path) {
      sim::ExperimentOptions slice = run;
      slice.point_begin = unit.point_begin;
      slice.point_count = unit.point_count;
      slice.trial_begin = unit.trial_begin;
      slice.trial_count = unit.trial_count;
      const fs::path staged =
          dir_ / ("staged_" + std::to_string(unit.id) + ".csv");
      sim::write_experiment_csv_file(experiment.run(slice), staged.string());

      const std::string pids = pid_log().string();
      std::string script = "echo $$ >> " + pids + "; ";
      const bool fails = std::find(fail_units.begin(), fail_units.end(),
                                   unit.id) != fail_units.end();
      if (fails) {
        const fs::path marker =
            dir_ / ("crashed_" + std::to_string(unit.id));
        script += "if [ ! -e " + marker.string() + " ]; then touch " +
                  marker.string() + "; " +
                  (failure == Failure::kExit
                       ? "exit 1"
                       : "sleep 30 & echo $! >> " + pids + "; sleep 30") +
                  "; fi; ";
      }
      script += "cp " + staged.string() + " " + out_path;
      return std::vector<std::string>{"/bin/sh", "-c", script};
    };
  }

  /// Every pid a worker recorded so far.
  std::vector<pid_t> pids() const {
    return test::read_pids(pid_log().string());
  }

 private:
  fs::path pid_log() const { return dir_ / "pids"; }

  fs::path dir_;
};

fs::path scratch_root() {
  return fs::temp_directory_path() / "minim_orchestrator_test";
}

TEST(Orchestrator, InjectedWorkerFailureRetriesAndMergesByteIdentical) {
  // Unit 0's first attempt fails, once by crashing and once by hanging past
  // the deadline; either way the retry completes the merge and no worker
  // process (or anything a worker forked) outlives the run.
  const sim::Experiment experiment(small_grid());
  const sim::ExperimentOptions run = small_run();
  const std::string full = csv_text(experiment.run(run));

  for (const Failure failure : {Failure::kExit, Failure::kHang}) {
    const bool hang = failure == Failure::kHang;
    SCOPED_TRACE(hang ? "hang past the deadline" : "exit 1");
    const fs::path root = scratch_root() / (hang ? "retry_hang" : "retry");
    fs::remove_all(root);

    sim::OrchestratorOptions options;
    options.workers = 2;
    options.units = 4;
    options.split = sim::WorkSplit::kAuto;
    options.max_attempts = 2;
    options.worker_timeout_s = hang ? 0.5 : 0.0;
    options.scratch_dir = (root / "scratch").string();
    options.keep_scratch = true;

    StagedWorkers workers(root / "staged");
    sim::Orchestrator orchestrator(experiment.points().size(), run.trials,
                                   run.seed, options);
    const sim::ExperimentResult merged = orchestrator.run(
        workers.command(experiment, run, /*fail_units=*/{0}, failure));
    EXPECT_EQ(csv_text(merged), full);

    // The ledger records the unit geometry and the retried unit's attempts.
    const sim::ShardManifest manifest =
        sim::read_shard_manifest_file(orchestrator.manifest_path());
    ASSERT_EQ(manifest.entries.size(), orchestrator.units().size());
    for (const sim::ShardManifestEntry& entry : manifest.entries)
      EXPECT_EQ(entry.status, "done");
    EXPECT_EQ(manifest.entries[0].attempts, 2u);
    EXPECT_EQ(manifest.entries[1].attempts, 1u);

    // One pid per attempt (5), plus the hanging attempt's child.
    const std::vector<pid_t> pids = workers.pids();
    EXPECT_EQ(pids.size(), hang ? 6u : 5u);
    for (const pid_t pid : pids)
      EXPECT_TRUE(test::wait_until_gone(pid))
          << "worker process " << pid << " outlived the run";
    fs::remove_all(root);
  }
}

TEST(Orchestrator, ExhaustedRetriesThrowAndLeaveAFailedManifest) {
  const fs::path root = scratch_root() / "fail";
  fs::remove_all(root);
  const sim::Experiment experiment(small_grid());
  const sim::ExperimentOptions run = small_run();

  sim::OrchestratorOptions options;
  options.workers = 2;
  options.units = 2;
  options.max_attempts = 2;
  options.scratch_dir = (root / "scratch").string();
  options.keep_scratch = true;

  sim::Orchestrator orchestrator(experiment.points().size(), run.trials,
                                 run.seed, options);
  EXPECT_THROW(
      orchestrator.run([](const sim::WorkUnit&, const std::string&) {
        return std::vector<std::string>{"/bin/sh", "-c", "exit 9"};
      }),
      std::runtime_error);
  const sim::ShardManifest manifest =
      sim::read_shard_manifest_file(orchestrator.manifest_path());
  EXPECT_EQ(manifest.entries[0].status, "failed");
  fs::remove_all(root);
}

TEST(Orchestrator, ResumeSkipsUnitsWithValidShards) {
  const fs::path root = scratch_root() / "resume";
  fs::remove_all(root);
  const sim::Experiment experiment(small_grid());
  const sim::ExperimentOptions run = small_run();
  const std::string full = csv_text(experiment.run(run));

  sim::OrchestratorOptions options;
  options.workers = 2;
  options.units = 3;
  options.split = sim::WorkSplit::kPoints;
  options.max_attempts = 1;
  options.scratch_dir = (root / "scratch").string();
  options.keep_scratch = true;

  // First pass completes everything and keeps its scratch.
  StagedWorkers workers(root / "staged");
  sim::Orchestrator first(experiment.points().size(), run.trials, run.seed,
                          options);
  first.run(workers.command(experiment, run));

  // Second pass resumes: every unit is already done, so a worker command
  // that would always fail must never be invoked.
  options.resume = true;
  sim::Orchestrator second(experiment.points().size(), run.trials, run.seed,
                           options);
  const sim::ExperimentResult merged =
      second.run([](const sim::WorkUnit&, const std::string&) {
        return std::vector<std::string>{"/bin/sh", "-c", "exit 1"};
      });
  EXPECT_EQ(csv_text(merged), full);
  fs::remove_all(root);
}

TEST(Orchestrator, ResumeRefusesAnotherExperimentsManifest) {
  // Two same-shaped studies (same seed, rectangle, unit plan) must not
  // resume off each other's shards: identity is part of the manifest.
  const fs::path root = scratch_root() / "identity";
  fs::remove_all(root);
  const sim::Experiment experiment(small_grid());
  const sim::ExperimentOptions run = small_run();

  sim::OrchestratorOptions options;
  options.experiment = "study-a#1111";
  options.workers = 2;
  options.units = 2;
  options.scratch_dir = (root / "scratch").string();
  options.keep_scratch = true;

  StagedWorkers workers(root / "staged");
  sim::Orchestrator first(experiment.points().size(), run.trials, run.seed,
                          options);
  first.run(workers.command(experiment, run));

  options.experiment = "study-b#2222";
  options.resume = true;
  sim::Orchestrator second(experiment.points().size(), run.trials, run.seed,
                           options);
  EXPECT_THROW(second.run(workers.command(experiment, run)),
               std::runtime_error);
  fs::remove_all(root);
}

TEST(ShardManifest, RoundTripsThroughItsCsv) {
  sim::ShardManifest manifest;
  manifest.experiment = "grid_study#00ffab1234567890";
  manifest.seed = 2001;
  manifest.total_points = 6;
  manifest.total_trials = 40;
  manifest.entries.push_back({0, 0, 3, 0, 20, 1, "done", "a/unit_0.csv"});
  manifest.entries.push_back({1, 3, 3, 0, 20, 2, "retrying", "a/unit_1.csv"});
  manifest.entries.push_back({2, 0, 6, 20, 20, 0, "pending", "dir,with,commas/u.csv"});

  std::stringstream io;
  sim::write_shard_manifest(manifest, io);
  const sim::ShardManifest parsed = sim::read_shard_manifest(io);
  ASSERT_EQ(parsed.entries.size(), manifest.entries.size());
  EXPECT_EQ(parsed.experiment, manifest.experiment);
  EXPECT_EQ(parsed.seed, manifest.seed);
  EXPECT_EQ(parsed.total_points, manifest.total_points);
  EXPECT_EQ(parsed.total_trials, manifest.total_trials);
  for (std::size_t i = 0; i < manifest.entries.size(); ++i) {
    const auto& a = manifest.entries[i];
    const auto& b = parsed.entries[i];
    EXPECT_EQ(a.unit, b.unit);
    EXPECT_EQ(a.point_begin, b.point_begin);
    EXPECT_EQ(a.point_count, b.point_count);
    EXPECT_EQ(a.trial_begin, b.trial_begin);
    EXPECT_EQ(a.trial_count, b.trial_count);
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.path, b.path);
  }

  std::stringstream corrupt("#minim-manifest v1\n#seed\n");
  EXPECT_THROW(sim::read_shard_manifest(corrupt), std::runtime_error);
  std::stringstream wrong_magic("#something-else\n");
  EXPECT_THROW(sim::read_shard_manifest(wrong_magic), std::runtime_error);
}

}  // namespace
