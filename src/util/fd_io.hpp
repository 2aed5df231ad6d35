#pragma once

#include <cstddef>

/// \file fd_io.hpp
/// \brief The robust write loop shared by every socket writer.
///
/// POSIX write/send may move fewer bytes than asked (short writes against a
/// full socket buffer) and may be interrupted by signals (EINTR) before
/// moving anything.  `write_all` loops until every byte is delivered.
///
/// It uses send with MSG_NOSIGNAL on sockets, so a peer vanishing mid-write
/// surfaces as EPIPE instead of killing the process, and falls back to plain
/// write for non-socket descriptors (pipes, files).

namespace minim::util {

/// Writes all `n` bytes of `buffer`, retrying short writes and EINTR.
/// Returns false on a non-retryable error (e.g. the peer closed; with
/// MSG_NOSIGNAL that is EPIPE, not SIGPIPE).
bool write_all(int fd, const void* buffer, std::size_t n);

}  // namespace minim::util
