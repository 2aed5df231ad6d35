#include "util/subprocess.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <deque>
#include <iterator>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#if defined(__unix__) || defined(__APPLE__)
#define MINIM_HAVE_POSIX_SPAWNING 1
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace minim::util {

std::string self_exe_path() {
#if defined(__linux__)
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (n <= 0) return {};
  buffer[n] = '\0';
  return buffer;
#else
  return {};
#endif
}

ProcessPool::ProcessPool(std::size_t max_parallel)
    : max_parallel_(max_parallel == 0
                        ? std::max(1u, std::thread::hardware_concurrency())
                        : max_parallel) {}

#if MINIM_HAVE_POSIX_SPAWNING

namespace {

using clock = std::chrono::steady_clock;

/// One live child.  Its pid is also its process-group id.
struct Running {
  std::size_t index = 0;    ///< spec index
  std::size_t attempt = 0;  ///< 1-based
  clock::time_point start;
  clock::time_point deadline;  ///< clock::time_point::max() when no timeout
  bool killed = false;         ///< SIGKILL sent after the deadline passed
};

/// The signals that stop a batch.  Workers run in their own process groups,
/// so a terminal's Ctrl-C (or a hangup) reaches only the driver, which
/// forwards it as a kill of every worker group.
constexpr int kStopSignals[] = {SIGINT, SIGTERM, SIGHUP};
constexpr std::size_t kStopSignalCount = std::size(kStopSignals);

/// The stop signal received during `run_all`; 0 when none.  Atomic rather
/// than `volatile sig_atomic_t` because the kernel may run the handler on
/// any thread of the driver.
std::atomic<int> g_stop_signal{0};
static_assert(std::atomic<int>::is_always_lock_free,
              "the signal handler needs a lock-free flag");

void record_stop_signal(int signo) { g_stop_signal = signo; }

/// Process hygiene for one `run_all` call.  While it lives, the stop signals
/// set `g_stop_signal` (a signal the process ignores stays ignored).  When
/// it dies, normally or because the observer threw, every worker still
/// running is killed with its group, and the previous signal dispositions
/// come back.  The signal routing is process-wide, so one `run_all` runs at
/// a time per process.
class BatchGuard {
 public:
  explicit BatchGuard(std::unordered_map<pid_t, Running>& running)
      : running_(running) {
    g_stop_signal = 0;
    struct sigaction route {};
    route.sa_handler = record_stop_signal;
    sigemptyset(&route.sa_mask);
    for (std::size_t i = 0; i < kStopSignalCount; ++i) {
      ::sigaction(kStopSignals[i], nullptr, &saved_[i]);
      if (saved_[i].sa_handler == SIG_IGN) continue;
      ::sigaction(kStopSignals[i], &route, nullptr);
      routed_[i] = true;
    }
  }
  BatchGuard(const BatchGuard&) = delete;
  BatchGuard& operator=(const BatchGuard&) = delete;
  ~BatchGuard() {
    kill_all();
    restore_signals();
  }

  /// SIGKILLs every live worker's process group and reaps the workers.
  void kill_all() {
    for (const auto& entry : running_) ::killpg(entry.first, SIGKILL);
    for (const auto& entry : running_) ::waitpid(entry.first, nullptr, 0);
    running_.clear();
  }

  /// Idempotent: puts back the dispositions saved at construction.
  void restore_signals() {
    for (std::size_t i = 0; i < kStopSignalCount; ++i)
      if (routed_[i]) ::sigaction(kStopSignals[i], &saved_[i], nullptr);
  }

 private:
  std::unordered_map<pid_t, Running>& running_;
  struct sigaction saved_[kStopSignalCount] {};
  bool routed_[kStopSignalCount] = {};
};

/// Forks and execs one attempt of `spec`.  Returns the child pid, or -1 when
/// the fork itself failed (counted as a failed attempt, not an exception —
/// a loaded box running out of pids must not abort the whole batch).
pid_t spawn(const ProcessSpec& spec) {
  std::vector<char*> argv;
  argv.reserve(spec.args.size() + 1);
  for (const std::string& arg : spec.args)
    argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid != 0) {
    // Both sides set the group, so a deadline kill cannot race the child's
    // own setpgid.
    if (pid > 0) ::setpgid(pid, pid);
    return pid;
  }

  // Child: lead a new process group, so killing the group also takes down
  // anything the worker forks.  Then redirect stdout+stderr into the
  // collection file and exec.
  ::setpgid(0, 0);
  if (!spec.stdout_path.empty()) {
    const int fd = ::open(spec.stdout_path.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      if (fd > STDERR_FILENO) ::close(fd);
    }
  }
  ::execv(argv[0], argv.data());
  ::_exit(127);  // exec failed; 127 matches the shell's "command not found"
}

}  // namespace

std::vector<ProcessOutcome> ProcessPool::run_all(
    const std::vector<ProcessSpec>& specs, const Observer& observer) {
  std::vector<ProcessOutcome> outcomes(specs.size());
  std::deque<std::size_t> pending;
  for (std::size_t i = 0; i < specs.size(); ++i) pending.push_back(i);
  std::unordered_map<pid_t, Running> running;
  BatchGuard guard(running);

  auto notify = [&observer](ProcessEvent::Kind kind, std::size_t index,
                            std::size_t attempt, const ProcessOutcome* outcome) {
    if (observer) observer(ProcessEvent{kind, index, attempt, outcome});
  };

  // One attempt ended (or could not start): record it, then either requeue
  // (attempts left) or finalize.
  auto settle = [&](std::size_t index, std::size_t attempt, int exit_code,
                    int term_signal, bool timed_out, double wall_s) {
    ProcessOutcome& outcome = outcomes[index];
    outcome.exit_code = exit_code;
    outcome.term_signal = term_signal;
    outcome.timed_out = timed_out;
    outcome.attempts = attempt;
    outcome.wall_s = wall_s;
    if (!outcome.ok() && attempt < specs[index].max_attempts) {
      notify(ProcessEvent::Kind::kRetry, index, attempt, &outcome);
      pending.push_back(index);
    } else {
      notify(ProcessEvent::Kind::kFinish, index, attempt, &outcome);
    }
  };

  for (;;) {
    if (const int signo = g_stop_signal; signo != 0) {
      // Take the workers down with the driver, then let the signal act as
      // it would have without the pool (by default: end the process).
      guard.kill_all();
      guard.restore_signals();
      ::raise(signo);
      throw std::runtime_error("util::ProcessPool: batch stopped by signal " +
                               std::to_string(signo));
    }
    if (pending.empty() && running.empty()) break;

    // Top up the parallel slots.
    while (!pending.empty() && running.size() < max_parallel_) {
      const std::size_t index = pending.front();
      pending.pop_front();
      const std::size_t attempt = outcomes[index].attempts + 1;
      notify(ProcessEvent::Kind::kStart, index, attempt, nullptr);
      const pid_t pid = spawn(specs[index]);
      if (pid < 0) {
        settle(index, attempt, -1, 0, false, 0.0);
        continue;
      }
      Running child;
      child.index = index;
      child.attempt = attempt;
      child.start = clock::now();
      child.deadline = specs[index].timeout_s > 0.0
                           ? child.start + std::chrono::duration_cast<clock::duration>(
                                 std::chrono::duration<double>(
                                     specs[index].timeout_s))
                           : clock::time_point::max();
      running.emplace(pid, child);
    }

    // Reap every child that has exited.
    bool reaped = false;
    for (auto it = running.begin(); it != running.end();) {
      int status = 0;
      const pid_t done = ::waitpid(it->first, &status, WNOHANG);
      if (done != it->first) {
        ++it;
        continue;
      }
      const Running child = it->second;
      it = running.erase(it);
      reaped = true;
      const double wall_s =
          std::chrono::duration<double>(clock::now() - child.start).count();
      const int exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      const int term_signal = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
      settle(child.index, child.attempt, exit_code, term_signal, child.killed,
             wall_s);
    }
    if (reaped) continue;

    // Nothing exited: enforce deadlines, then yield briefly.
    const clock::time_point now = clock::now();
    for (auto& [pid, child] : running) {
      if (!child.killed && now >= child.deadline) {
        child.killed = true;  // reaped (and settled as timed out) above
        ::killpg(pid, SIGKILL);
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return outcomes;
}

#else  // !MINIM_HAVE_POSIX_SPAWNING

std::vector<ProcessOutcome> ProcessPool::run_all(
    const std::vector<ProcessSpec>&, const Observer&) {
  throw std::runtime_error(
      "util::ProcessPool requires a POSIX platform (fork/exec/waitpid)");
}

#endif

}  // namespace minim::util
