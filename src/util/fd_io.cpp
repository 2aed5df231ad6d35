#include "util/fd_io.hpp"

#include <cerrno>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace minim::util {

#if defined(__unix__) || defined(__APPLE__)

bool write_all(int fd, const void* buffer, std::size_t n) {
  const char* at = static_cast<const char*>(buffer);
  std::size_t sent = 0;
  bool use_write = false;  // set after ENOTSOCK: fd is a pipe/file
  while (sent < n) {
    ssize_t step;
    if (use_write) {
      step = ::write(fd, at + sent, n - sent);
    } else {
      step = ::send(fd, at + sent, n - sent, MSG_NOSIGNAL);
      if (step < 0 && errno == ENOTSOCK) {
        use_write = true;
        continue;
      }
    }
    if (step > 0) {
      sent += static_cast<std::size_t>(step);
    } else if (step < 0 && errno != EINTR) {
      return false;
    }
    // step == 0 from write(2) on a nonzero count is retried: POSIX allows
    // it only for special files, and looping is the safe interpretation.
  }
  return true;
}

#else  // !POSIX

bool write_all(int, const void*, std::size_t) { return false; }

#endif

}  // namespace minim::util
