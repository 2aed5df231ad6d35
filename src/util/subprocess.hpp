#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

/// \file subprocess.hpp
/// \brief Self-spawning worker processes for multi-process scale-out.
///
/// The experiment layer shards deterministically (`sim::Experiment` +
/// `merge_shards`), but launching and collecting the shards used to be a
/// by-hand shell loop.  `ProcessPool` is that loop written once: it runs a
/// batch of commands — typically this very binary re-invoked with
/// per-work-unit arguments (`self_exe_path`) — at a bounded parallelism,
/// captures each worker's stdout/stderr to a file, detects nonzero exits,
/// kills workers that overrun a wall-clock deadline, retries failed workers
/// a bounded number of times, and reports lifecycle events to an observer
/// for live progress display.
///
/// The pool runs on the calling thread (no helper threads): it spawns up to
/// `max_parallel` children, then alternates between reaping exits and
/// enforcing deadlines until every spec has either succeeded or exhausted
/// its attempts.  Failure of one worker never aborts the batch — the caller
/// decides what a failed outcome means (`sim::Orchestrator` raises after
/// the retry budget is spent).
///
/// Each worker leads its own process group, and every kill targets the
/// group: a worker past its deadline dies together with anything it forked.
/// Because the workers are not in the terminal's foreground group, the pool
/// forwards the stop signals itself: a SIGINT, SIGTERM or SIGHUP that
/// reaches the driver during `run_all` kills every live worker group, then
/// acts on the driver as it would have without the pool.
///
/// POSIX only (fork/exec/waitpid); on other platforms `run_all` throws.

namespace minim::util {

/// Absolute path of the running executable (Linux: /proc/self/exe), so a
/// driver can re-invoke itself as a worker.  Empty when undiscoverable.
std::string self_exe_path();

/// One worker to run.
struct ProcessSpec {
  std::vector<std::string> args;  ///< argv; args[0] is the program path
  /// File receiving the worker's stdout+stderr (created/truncated on every
  /// attempt).  Empty = inherit the parent's streams.
  std::string stdout_path;
  double timeout_s = 0.0;        ///< wall-clock kill deadline; 0 = none
  std::size_t max_attempts = 1;  ///< total tries (1 = no retry)
};

/// Final state of one spec after its last attempt.
struct ProcessOutcome {
  int exit_code = -1;      ///< last attempt's exit status (-1: killed/never ran)
  int term_signal = 0;     ///< signal that killed the last attempt; 0 if exited
  bool timed_out = false;  ///< last attempt hit its deadline and was killed
  std::size_t attempts = 0;
  double wall_s = 0.0;     ///< wall clock of the last attempt

  bool ok() const {
    return attempts > 0 && !timed_out && term_signal == 0 && exit_code == 0;
  }
};

/// Lifecycle notification (live progress reporting).
struct ProcessEvent {
  enum class Kind {
    kStart,    ///< an attempt just spawned
    kFinish,   ///< the spec is done (see outcome.ok())
    kRetry,    ///< an attempt failed and another one will run
  };
  Kind kind = Kind::kStart;
  std::size_t index = 0;    ///< spec index in the batch
  std::size_t attempt = 0;  ///< 1-based attempt number
  /// Set for kFinish/kRetry: the outcome of the attempt that just ended.
  const ProcessOutcome* outcome = nullptr;
};

class ProcessPool {
 public:
  using Observer = std::function<void(const ProcessEvent&)>;

  /// `max_parallel` children run concurrently (0 = hardware concurrency).
  explicit ProcessPool(std::size_t max_parallel);

  /// Runs every spec to completion, retrying failures up to each spec's
  /// `max_attempts`.  Returns outcomes indexed like `specs`.  Never throws
  /// on worker failure — inspect `ProcessOutcome::ok()`.  Stop signals are
  /// routed to the pool for the duration of the call, so run one batch at a
  /// time per process; if the process survives a stop signal (its own
  /// handler returned), the call throws once the workers are dead.
  std::vector<ProcessOutcome> run_all(const std::vector<ProcessSpec>& specs,
                                      const Observer& observer = {});

  std::size_t max_parallel() const { return max_parallel_; }

 private:
  std::size_t max_parallel_;
};

}  // namespace minim::util
