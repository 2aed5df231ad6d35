#include "sim/orchestrator.hpp"

#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "util/require.hpp"
#include "util/subprocess.hpp"

namespace minim::sim {

namespace fs = std::filesystem;

Orchestrator::Orchestrator(std::size_t total_points, std::size_t total_trials,
                           std::uint64_t seed, OrchestratorOptions options)
    : total_points_(total_points),
      total_trials_(total_trials),
      seed_(seed),
      options_(std::move(options)) {
  MINIM_REQUIRE(options_.workers > 0, "orchestrator needs at least one worker");
  MINIM_REQUIRE(options_.max_attempts > 0,
                "orchestrator needs at least one attempt per unit");
  const std::size_t unit_count =
      options_.units == 0 ? options_.workers : options_.units;
  units_ = plan_work_units(unit_count, total_points_, total_trials_,
                           options_.split);
  manifest_path_ =
      (fs::path(options_.scratch_dir) / "manifest.csv").string();
}

std::string Orchestrator::unit_csv_path(const WorkUnit& unit) const {
  return (fs::path(options_.scratch_dir) /
          ("unit_" + std::to_string(unit.id) + ".csv"))
      .string();
}

std::string Orchestrator::unit_log_path(const WorkUnit& unit) const {
  return (fs::path(options_.scratch_dir) /
          ("unit_" + std::to_string(unit.id) + ".log"))
      .string();
}

void Orchestrator::say(const std::string& line) const {
  if (options_.progress) options_.progress(line);
}

namespace {

/// True when `shard` is exactly the output the unit's rectangle promises.
bool shard_matches(const ExperimentResult& shard, const WorkUnit& unit,
                   std::uint64_t seed, std::size_t total_points,
                   std::size_t total_trials) {
  return shard.seed == seed && shard.total_points == total_points &&
         shard.total_trials == total_trials &&
         shard.point_begin == unit.point_begin &&
         shard.points.size() == unit.point_count &&
         shard.trial_begin == unit.trial_begin &&
         shard.trial_count == unit.trial_count;
}

std::string describe(const WorkUnit& unit) {
  std::ostringstream os;
  os << "unit " << unit.id << " (points [" << unit.point_begin << ", "
     << unit.point_begin + unit.point_count << ") x trials ["
     << unit.trial_begin << ", " << unit.trial_begin + unit.trial_count << "))";
  return os.str();
}

}  // namespace

ExperimentResult Orchestrator::run(const WorkerCommand& worker_command) {
  MINIM_REQUIRE(static_cast<bool>(worker_command),
                "orchestrator needs a worker command builder");
  fs::create_directories(options_.scratch_dir);

  // The ledger: one entry per unit, updated as workers finish.
  ShardManifest manifest;
  manifest.experiment = options_.experiment;
  manifest.seed = seed_;
  manifest.total_points = total_points_;
  manifest.total_trials = total_trials_;
  for (const WorkUnit& unit : units_) {
    ShardManifestEntry entry;
    entry.unit = unit.id;
    entry.point_begin = unit.point_begin;
    entry.point_count = unit.point_count;
    entry.trial_begin = unit.trial_begin;
    entry.trial_count = unit.trial_count;
    entry.status = "pending";
    entry.path = unit_csv_path(unit);
    manifest.entries.push_back(std::move(entry));
  }

  // Resume: a prior manifest with the same geometry marks units whose shard
  // CSV still parses as done; everything else re-runs.
  std::vector<ExperimentResult> shards(units_.size());
  std::vector<char> have_shard(units_.size(), 0);
  if (options_.resume && fs::exists(manifest_path_)) {
    const ShardManifest prior = read_shard_manifest_file(manifest_path_);
    // Identity first: geometry alone (seed + rectangle) cannot distinguish
    // two same-shaped studies, and adopting the wrong study's shards would
    // be a silent wrong answer.
    const bool same_identity = prior.experiment == manifest.experiment;
    const bool same_geometry = prior.seed == manifest.seed &&
                               prior.total_points == manifest.total_points &&
                               prior.total_trials == manifest.total_trials &&
                               prior.entries.size() == manifest.entries.size();
    if (!same_identity || !same_geometry)
      throw std::runtime_error(
          "orchestrator: cannot resume — the manifest at " + manifest_path_ +
          " describes a different experiment (clear the scratch directory)");
    for (std::size_t i = 0; i < prior.entries.size(); ++i) {
      const ShardManifestEntry& entry = prior.entries[i];
      const WorkUnit& unit = units_[i];
      const bool same_unit = entry.unit == unit.id &&
                             entry.point_begin == unit.point_begin &&
                             entry.point_count == unit.point_count &&
                             entry.trial_begin == unit.trial_begin &&
                             entry.trial_count == unit.trial_count;
      if (!same_unit)
        throw std::runtime_error(
            "orchestrator: cannot resume — the manifest at " + manifest_path_ +
            " plans different work units (clear the scratch directory)");
      if (entry.status != "done") continue;
      try {
        ExperimentResult shard = read_experiment_csv_file(entry.path);
        if (!shard_matches(shard, unit, seed_, total_points_, total_trials_))
          continue;
        shards[i] = std::move(shard);
        have_shard[i] = 1;
        manifest.entries[i].status = "done";
        manifest.entries[i].attempts = entry.attempts;
        manifest.entries[i].path = entry.path;
        say("[orchestrate] " + describe(unit) + " resumed from " + entry.path);
      } catch (const std::runtime_error&) {
        // Unreadable shard: fall through to a fresh run of this unit.
      }
    }
  }
  write_shard_manifest_file(manifest, manifest_path_);

  // Schedule the units that still need running.
  std::vector<util::ProcessSpec> specs;
  std::vector<std::size_t> spec_unit;  // spec index -> unit index
  for (std::size_t i = 0; i < units_.size(); ++i) {
    if (have_shard[i]) continue;
    util::ProcessSpec spec;
    spec.args = worker_command(units_[i], unit_csv_path(units_[i]));
    MINIM_REQUIRE(!spec.args.empty(), "worker command must not be empty");
    spec.stdout_path = unit_log_path(units_[i]);
    spec.timeout_s = options_.worker_timeout_s;
    spec.max_attempts = options_.max_attempts;
    specs.push_back(std::move(spec));
    spec_unit.push_back(i);
  }

  if (!specs.empty()) {
    say("[orchestrate] " + std::to_string(specs.size()) + " work units over " +
        std::to_string(options_.workers) + " worker processes (split " +
        std::string(to_string(options_.split)) + ", " +
        std::to_string(options_.max_attempts) + " attempts each)");
    util::ProcessPool pool(options_.workers);
    std::size_t finished = 0;
    const auto observer = [&](const util::ProcessEvent& event) {
      const std::size_t i = spec_unit[event.index];
      ShardManifestEntry& entry = manifest.entries[i];
      switch (event.kind) {
        case util::ProcessEvent::Kind::kStart:
          entry.status = "running";
          entry.attempts = event.attempt;
          say("[orchestrate] " + describe(units_[i]) + " attempt " +
              std::to_string(event.attempt) + " started");
          break;
        case util::ProcessEvent::Kind::kRetry:
          entry.status = "retrying";
          say("[orchestrate] " + describe(units_[i]) + " attempt " +
              std::to_string(event.attempt) + " failed (" +
              (event.outcome->timed_out
                   ? "timeout"
                   : "exit " + std::to_string(event.outcome->exit_code)) +
              "), retrying");
          break;
        case util::ProcessEvent::Kind::kFinish:
          entry.status = event.outcome->ok() ? "done" : "failed";
          ++finished;
          say("[orchestrate] " + describe(units_[i]) + " " + entry.status +
              " after " + std::to_string(event.attempt) + " attempt(s) [" +
              std::to_string(finished) + "/" + std::to_string(specs.size()) +
              "]");
          // Keep the on-disk ledger current so a driver crash mid-batch
          // still leaves a resumable manifest.
          write_shard_manifest_file(manifest, manifest_path_);
          break;
      }
    };
    const std::vector<util::ProcessOutcome> outcomes =
        pool.run_all(specs, observer);

    for (std::size_t s = 0; s < outcomes.size(); ++s) {
      const std::size_t i = spec_unit[s];
      if (!outcomes[s].ok()) {
        write_shard_manifest_file(manifest, manifest_path_);
        throw std::runtime_error(
            "orchestrator: " + describe(units_[i]) + " failed after " +
            std::to_string(outcomes[s].attempts) + " attempt(s) (" +
            (outcomes[s].timed_out
                 ? "timeout"
                 : "exit " + std::to_string(outcomes[s].exit_code)) +
            "); worker log: " + unit_log_path(units_[i]));
      }
      ExperimentResult shard = read_experiment_csv_file(unit_csv_path(units_[i]));
      if (!shard_matches(shard, units_[i], seed_, total_points_, total_trials_)) {
        manifest.entries[i].status = "failed";
        write_shard_manifest_file(manifest, manifest_path_);
        throw std::runtime_error("orchestrator: " + describe(units_[i]) +
                                 " produced a shard that does not match its "
                                 "rectangle: " +
                                 unit_csv_path(units_[i]));
      }
      shards[i] = std::move(shard);
      have_shard[i] = 1;
    }
    write_shard_manifest_file(manifest, manifest_path_);
  }

  ExperimentResult merged = merge_shards(std::move(shards));
  say("[orchestrate] merged " + std::to_string(units_.size()) +
      " shards: " + std::to_string(merged.point_count()) + " points x " +
      std::to_string(merged.total_trials) + " trials");

  if (!options_.keep_scratch) {
    // Remove only what this run created; the scratch dir may be shared.
    std::error_code ignored;
    for (const WorkUnit& unit : units_) {
      fs::remove(unit_csv_path(unit), ignored);
      fs::remove(unit_log_path(unit), ignored);
    }
    fs::remove(manifest_path_, ignored);
    fs::remove(options_.scratch_dir, ignored);  // only succeeds when empty
  }
  return merged;
}

}  // namespace minim::sim
