// util::write_all: the partial-write loop every socket writer in the tree
// shares (serve/transport, the perfbench client).  The tests manufacture
// the hostile cases directly: a send buffer far smaller than the message
// (short writes), a writer bombarded with signals while blocked (EINTR), a
// peer that has closed (EPIPE without SIGPIPE), and a non-socket
// descriptor (the write(2) fallback).

#include "util/fd_io.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

namespace {

using minim::util::write_all;

/// A connected socketpair with tiny kernel buffers, so multi-kilobyte
/// messages are guaranteed to need many short writes.
struct TinySocketPair {
  int fds[2] = {-1, -1};
  TinySocketPair() {
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const int small = 4096;  // the kernel clamps to its minimum if lower
    ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof small);
    ::setsockopt(fds[1], SOL_SOCKET, SO_RCVBUF, &small, sizeof small);
  }
  ~TinySocketPair() {
    for (int fd : fds)
      if (fd >= 0) ::close(fd);
  }
};

std::string pattern_bytes(std::size_t n) {
  std::string bytes(n, '\0');
  for (std::size_t i = 0; i < n; ++i)
    bytes[i] = static_cast<char>('a' + (i * 31 + i / 251) % 26);
  return bytes;
}

/// Drains `out.size()` bytes from `fd` with plain read(2), retrying short
/// reads and EINTR.  False on EOF or a non-retryable error before `out` is
/// full.
bool read_fully(int fd, std::string& out) {
  std::size_t got = 0;
  while (got < out.size()) {
    const ssize_t step = ::read(fd, out.data() + got, out.size() - got);
    if (step > 0) {
      got += static_cast<std::size_t>(step);
    } else if (step == 0 || errno != EINTR) {
      return false;
    }
  }
  return true;
}

TEST(FdIo, ShortWritesDeliverTheWholeMessage) {
  // 1 MiB through a ~4 KiB send buffer: write_all must loop through
  // hundreds of partial sends while the reader drains the other end.
  TinySocketPair pair;
  const std::string message = pattern_bytes(1 << 20);

  std::string received(message.size(), '\0');
  std::thread reader([&] {
    EXPECT_TRUE(read_fully(pair.fds[1], received));
  });
  EXPECT_TRUE(write_all(pair.fds[0], message.data(), message.size()));
  reader.join();
  EXPECT_EQ(received, message);
}

void ignore_signal(int) {}

TEST(FdIo, InterruptedReadsAndWritesResume) {
  // Install a no-op SIGUSR1 handler WITHOUT SA_RESTART, so every signal
  // delivery makes a blocked recv/send return EINTR rather than resuming
  // transparently — exactly the case the loops exist for.
  struct sigaction action {};
  struct sigaction saved {};
  action.sa_handler = ignore_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART on purpose
  ASSERT_EQ(sigaction(SIGUSR1, &action, &saved), 0);

  TinySocketPair pair;
  const std::string message = pattern_bytes(1 << 20);
  std::string received(message.size(), '\0');

  const pthread_t self = pthread_self();
  std::atomic<bool> done{false};
  // Bombard the main thread (blocked in write_all) with signals.  The
  // reader thread starts late and drains slowly enough that the writer is
  // reliably parked in send() when signals land.
  std::thread pest([&] {
    while (!done.load()) {
      pthread_kill(self, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::thread reader([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_TRUE(read_fully(pair.fds[1], received));
  });

  EXPECT_TRUE(write_all(pair.fds[0], message.data(), message.size()));
  reader.join();
  done.store(true);
  pest.join();
  EXPECT_EQ(received, message);

  ASSERT_EQ(sigaction(SIGUSR1, &saved, nullptr), 0);
}

TEST(FdIo, WriteToAClosedPeerFailsWithoutSigpipe) {
  TinySocketPair pair;
  ::close(pair.fds[1]);
  pair.fds[1] = -1;
  const std::string message = pattern_bytes(1 << 16);
  // MSG_NOSIGNAL: the dead peer surfaces as a false return (EPIPE), never
  // as a process-killing SIGPIPE.  A few writes may succeed into the
  // buffer first; the loop must eventually fail, not hang.
  bool ok = true;
  for (int i = 0; i < 64 && ok; ++i)
    ok = write_all(pair.fds[0], message.data(), message.size());
  EXPECT_FALSE(ok);
}

TEST(FdIo, FallsBackToPlainReadWriteOnPipes) {
  // Pipes reject send/recv with ENOTSOCK; the loops must switch to
  // read/write and still move every byte.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string message = pattern_bytes(1 << 18);  // > pipe buffer
  std::string received(message.size(), '\0');
  std::thread reader([&] {
    EXPECT_TRUE(read_fully(fds[0], received));
  });
  EXPECT_TRUE(write_all(fds[1], message.data(), message.size()));
  reader.join();
  EXPECT_EQ(received, message);
  ::close(fds[0]);
  ::close(fds[1]);
}

}  // namespace
