#pragma once

/// \file process_probe.hpp
/// \brief Liveness checks for processes a test spawned indirectly.
///
/// Process-pool tests start workers that fork grandchildren and record
/// their pids in a file.  After the pool returns, every recorded pid must
/// be dead: absent from /proc, or a zombie that only waits for its new
/// parent to reap it.  Linux only (reads /proc).

#include <sys/types.h>

#include <chrono>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace minim::test {

/// True when `pid` no longer runs: no /proc entry, or state Z.
inline bool process_gone(pid_t pid) {
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(stat, line)) return true;
  // "pid (comm) S ..."; comm may hold spaces, so find the last ')'.
  const std::size_t close = line.rfind(')');
  return close == std::string::npos || close + 2 >= line.size() ||
         line[close + 2] == 'Z';
}

/// Polls `process_gone` until it holds or `timeout` passes.  A killed
/// process leaves /proc only once its parent reaps it, which can lag the
/// kill by a few milliseconds.
inline bool wait_until_gone(pid_t pid, std::chrono::milliseconds timeout =
                                           std::chrono::milliseconds(2000)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!process_gone(pid)) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

/// Every whitespace-separated pid in `path` (empty when the file is missing).
inline std::vector<pid_t> read_pids(const std::string& path) {
  std::ifstream in(path);
  std::vector<pid_t> pids;
  for (long pid = 0; in >> pid;) pids.push_back(static_cast<pid_t>(pid));
  return pids;
}

}  // namespace minim::test
