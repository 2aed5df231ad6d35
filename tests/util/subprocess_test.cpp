// util::ProcessPool: spawn/collect/exit-code/timeout/retry semantics, driven
// with /bin/sh workers so the tests need no fixture binary.  The pool is the
// process-level substrate of the experiment orchestrator; its contracts
// (outcomes indexed like specs, bounded retry, deadline kill of the whole
// worker process group, stop-signal forwarding, stdout capture) are what
// sim::Orchestrator builds on.

#include "util/subprocess.hpp"

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "../helpers/process_probe.hpp"

namespace {

namespace fs = std::filesystem;

using minim::util::ProcessEvent;
using minim::util::ProcessOutcome;
using minim::util::ProcessPool;
using minim::util::ProcessSpec;

ProcessSpec shell(const std::string& script) {
  ProcessSpec spec;
  spec.args = {"/bin/sh", "-c", script};
  return spec;
}

fs::path temp_dir() {
  const fs::path dir = fs::temp_directory_path() / "minim_subprocess_test";
  fs::create_directories(dir);
  return dir;
}

TEST(SelfExePath, PointsAtARealExecutable) {
  const std::string self = minim::util::self_exe_path();
  ASSERT_FALSE(self.empty());
  EXPECT_TRUE(fs::exists(self)) << self;
}

TEST(ProcessPool, RunsABatchAndReportsExitCodes) {
  ProcessPool pool(2);
  const std::vector<ProcessOutcome> outcomes =
      pool.run_all({shell("exit 0"), shell("exit 3"), shell("exit 0")});
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].ok());
  EXPECT_FALSE(outcomes[1].ok());
  EXPECT_EQ(outcomes[1].exit_code, 3);
  EXPECT_EQ(outcomes[1].attempts, 1u);
  EXPECT_TRUE(outcomes[2].ok());
}

TEST(ProcessPool, CapturesStdoutAndStderrToTheCollectionFile) {
  const fs::path out = temp_dir() / "capture.log";
  fs::remove(out);
  ProcessSpec spec = shell("echo captured-out; echo captured-err >&2");
  spec.stdout_path = out.string();
  ProcessPool pool(1);
  ASSERT_TRUE(pool.run_all({spec})[0].ok());
  std::ifstream in(out);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("captured-out"), std::string::npos) << text;
  EXPECT_NE(text.find("captured-err"), std::string::npos) << text;
  fs::remove(out);
}

TEST(ProcessPool, KillsWorkersPastTheDeadline) {
  // The worker forks a grandchild before hanging.  The deadline kill must
  // take the grandchild too: an orphan would keep running and hold this
  // test's output pipe open until it finished.
  const fs::path pids = temp_dir() / "deadline.pids";
  fs::remove(pids);
  ProcessSpec slow =
      shell("sleep 30 & echo $! > " + pids.string() + "; sleep 30");
  slow.timeout_s = 0.2;
  ProcessPool pool(1);
  const ProcessOutcome outcome = pool.run_all({slow})[0];
  EXPECT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.timed_out);
  EXPECT_LT(outcome.wall_s, 10.0);  // killed, not waited out

  const std::vector<pid_t> grandchild = minim::test::read_pids(pids.string());
  ASSERT_EQ(grandchild.size(), 1u) << "the worker never recorded its child";
  EXPECT_TRUE(minim::test::wait_until_gone(grandchild[0]))
      << "grandchild " << grandchild[0] << " outlived the deadline kill";
  fs::remove(pids);
}

TEST(ProcessPool, StopSignalTakesEveryWorkerGroupDown) {
  // Workers lead their own process groups, so a terminal's Ctrl-C reaches
  // only the driver.  A driver interrupted mid-batch must kill every worker
  // group (grandchildren included) and still die of the signal itself.
  // Each worker records "<its pid> <its child's pid>" once it is running.
  const std::vector<fs::path> pids{temp_dir() / "interrupt_0.pids",
                                   temp_dir() / "interrupt_1.pids"};
  std::vector<ProcessSpec> hangs;
  for (const fs::path& path : pids) {
    fs::remove(path);
    hangs.push_back(shell("sleep 30 & echo $$ $! > " + path.string() +
                          ".tmp && mv " + path.string() + ".tmp " +
                          path.string() + "; sleep 30"));
  }
  const pid_t driver = ::fork();
  ASSERT_GE(driver, 0);
  if (driver == 0) {
    ProcessPool(2).run_all(hangs);
    ::_exit(3);  // not reached: the signal ends the driver
  }

  const auto started = [&pids] {
    return fs::exists(pids[0]) && fs::exists(pids[1]);
  };
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!started() && std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(started()) << "the workers never started";
  ::kill(driver, SIGINT);

  int status = 0;
  ASSERT_EQ(::waitpid(driver, &status, 0), driver);
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGINT)
      << "driver status " << status;
  for (const fs::path& path : pids) {
    const std::vector<pid_t> worker = minim::test::read_pids(path.string());
    EXPECT_EQ(worker.size(), 2u) << path;
    for (const pid_t pid : worker)
      EXPECT_TRUE(minim::test::wait_until_gone(pid))
          << "process " << pid << " outlived the interrupted driver";
    fs::remove(path);
  }
}

TEST(ProcessPool, ThrowingObserverTakesEveryWorkerGroupDown) {
  // The observer throws when the quick worker finishes, while the other
  // worker (and the child it forked) still runs.  The exception must not
  // leave either behind.
  const fs::path pids = temp_dir() / "throwing_observer.pids";
  fs::remove(pids);
  const ProcessSpec hang = shell("sleep 30 & echo $$ $! > " + pids.string() +
                                 "; sleep 30");
  ProcessPool pool(2);
  EXPECT_THROW(pool.run_all({hang, shell("sleep 0.5")},
                            [](const ProcessEvent& event) {
                              if (event.kind == ProcessEvent::Kind::kFinish)
                                throw std::runtime_error("observer failed");
                            }),
               std::runtime_error);
  const std::vector<pid_t> worker = minim::test::read_pids(pids.string());
  ASSERT_EQ(worker.size(), 2u) << "the worker never recorded its pids";
  for (const pid_t pid : worker)
    EXPECT_TRUE(minim::test::wait_until_gone(pid))
        << "process " << pid << " outlived the failed batch";
  fs::remove(pids);
}

TEST(ProcessPool, RetriesUpToTheAttemptBudget) {
  // The worker fails until its marker file exists, then succeeds — the
  // shape of a transient shard failure.
  const fs::path marker = temp_dir() / "retry.marker";
  fs::remove(marker);
  ProcessSpec flaky = shell("if [ ! -e " + marker.string() +
                            " ]; then touch " + marker.string() +
                            "; exit 1; fi; exit 0");
  flaky.max_attempts = 3;
  ProcessPool pool(1);
  const ProcessOutcome outcome = pool.run_all({flaky})[0];
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.attempts, 2u);
  fs::remove(marker);
}

TEST(ProcessPool, ExhaustsTheAttemptBudgetAndReportsFailure) {
  ProcessSpec hopeless = shell("exit 7");
  hopeless.max_attempts = 3;
  ProcessPool pool(2);
  const ProcessOutcome outcome = pool.run_all({hopeless})[0];
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.attempts, 3u);
  EXPECT_EQ(outcome.exit_code, 7);
}

TEST(ProcessPool, ObserverSeesTheLifecycle) {
  const fs::path marker = temp_dir() / "observer.marker";
  fs::remove(marker);
  ProcessSpec flaky = shell("if [ ! -e " + marker.string() +
                            " ]; then touch " + marker.string() +
                            "; exit 1; fi; exit 0");
  flaky.max_attempts = 2;

  std::vector<ProcessEvent::Kind> kinds;
  ProcessPool pool(1);
  pool.run_all({flaky}, [&kinds](const ProcessEvent& event) {
    kinds.push_back(event.kind);
  });
  const std::vector<ProcessEvent::Kind> expected{
      ProcessEvent::Kind::kStart, ProcessEvent::Kind::kRetry,
      ProcessEvent::Kind::kStart, ProcessEvent::Kind::kFinish};
  EXPECT_EQ(kinds, expected);
  fs::remove(marker);
}

TEST(ProcessPool, MissingExecutableIsAFailureNotACrash) {
  ProcessSpec ghost;
  ghost.args = {"/nonexistent/minim-no-such-binary"};
  ProcessPool pool(1);
  const ProcessOutcome outcome = pool.run_all({ghost})[0];
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.exit_code, 127);  // exec failed
}

}  // namespace
