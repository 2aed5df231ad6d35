#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/experiment_io.hpp"
#include "sim/work_plan.hpp"

/// \file orchestrator.hpp
/// \brief The driver side of multi-process experiment scale-out.
///
/// `Orchestrator` turns "one process runs a grid" into a driver/worker
/// architecture: it plans the (point x trial) rectangle into `WorkUnit`s
/// (`work_plan.hpp`), schedules them over a `util::ProcessPool` of worker
/// processes — each worker is typically this very binary re-invoked with the
/// unit's rectangle on its command line — collects the per-unit shard CSVs,
/// retries failed workers within a bounded budget, and merges the shards
/// into a result bit-identical to a single-process run (`merge_shards`).
///
/// Every run keeps an on-disk ledger (`ShardManifest`) in the scratch
/// directory: unit rectangles, seed/stream provenance, attempt counts and
/// statuses.  A run that dies halfway — driver crash, machine reboot — can
/// be resumed (`OrchestratorOptions::resume`): units whose manifest entry is
/// `done` and whose shard CSV still parses and matches their rectangle are
/// not re-run.
///
/// The orchestrator does not know what experiment it is running — workers
/// do.  It only owns the rectangle geometry, the process lifecycle, and the
/// merge.  `bench/bench_util.hpp` wires it to the sweep harnesses (every
/// migrated harness gains `--orchestrate k`), and `bench/cdma_drive.cpp` is
/// the standalone front-end.

namespace minim::sim {

struct OrchestratorOptions {
  /// Identity of the experiment being sharded (the driver's tag, ideally
  /// plus a config fingerprint).  Recorded in the manifest; `resume`
  /// refuses a manifest whose identity differs, so same-shaped shards of a
  /// *different* study are never silently adopted as this one's results.
  std::string experiment;
  std::size_t workers = 2;  ///< concurrent worker processes
  std::size_t units = 0;    ///< work units to plan (0 = one per worker)
  WorkSplit split = WorkSplit::kAuto;
  std::size_t max_attempts = 3;   ///< per-unit tries (bounded shard retry)
  /// Per-attempt deadline (0 = none); an overrunning worker is killed
  /// together with its whole process group and counts as a failed attempt.
  double worker_timeout_s = 0.0;
  /// Shard CSVs, worker logs, and the manifest live here (created if
  /// missing).  On full success the per-unit files are removed unless
  /// `keep_scratch`; after a failure everything stays for post-mortem and
  /// resume.
  std::string scratch_dir = "orchestrate-scratch";
  bool resume = false;        ///< reuse `done` units from a prior manifest
  bool keep_scratch = false;  ///< keep shard CSVs/logs after a full merge
  /// Live progress sink (one human-readable line per lifecycle event);
  /// empty = silent.
  std::function<void(const std::string&)> progress;
};

class Orchestrator {
 public:
  /// Builds argv for the worker process that computes `unit` and writes its
  /// shard CSV to `out_path`.  The command must exit 0 exactly when the CSV
  /// was written completely.
  using WorkerCommand = std::function<std::vector<std::string>(
      const WorkUnit& unit, const std::string& out_path)>;

  /// `total_points`/`total_trials`/`seed` describe the global experiment the
  /// workers will run slices of; they are recorded in the manifest and
  /// checked against every returned shard.
  Orchestrator(std::size_t total_points, std::size_t total_trials,
               std::uint64_t seed, OrchestratorOptions options);

  /// Plans, schedules, retries, and merges.  Throws std::runtime_error when
  /// any unit exhausts its attempt budget or returns a shard that does not
  /// match its rectangle; the manifest on disk then reflects the partial
  /// state, so a later run with `resume` continues where this one stopped.
  ExperimentResult run(const WorkerCommand& worker_command);

  const std::vector<WorkUnit>& units() const { return units_; }
  const std::string& manifest_path() const { return manifest_path_; }

 private:
  std::string unit_csv_path(const WorkUnit& unit) const;
  std::string unit_log_path(const WorkUnit& unit) const;
  void say(const std::string& line) const;

  std::size_t total_points_;
  std::size_t total_trials_;
  std::uint64_t seed_;
  OrchestratorOptions options_;
  std::vector<WorkUnit> units_;
  std::string manifest_path_;
};

}  // namespace minim::sim
