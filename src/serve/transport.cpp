#include "serve/transport.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/fd_io.hpp"

namespace minim::serve {

// ---------------------------------------------------------------- LineBuffer

void LineBuffer::append(std::string_view bytes) {
  if (head_ > 0 && head_ >= bytes_.size() - head_) {
    // The consumed prefix outweighs the unread rest: dropping it moves at
    // most as many bytes as were consumed since the last drop.
    bytes_.erase(0, head_);
    scanned_ -= head_;
    head_ = 0;
  }
  bytes_.append(bytes);
}

bool LineBuffer::next_line(std::string& line, bool at_end) {
  std::size_t end = bytes_.find('\n', scanned_);
  std::size_t next = 0;
  if (end != std::string::npos) {
    next = end + 1;
  } else {
    scanned_ = bytes_.size();
    if (!at_end || head_ == bytes_.size()) return false;
    end = next = bytes_.size();  // the unterminated remainder
  }
  if (end > head_ && bytes_[end - 1] == '\r') --end;
  line.assign(bytes_, head_, end - head_);
  head_ = scanned_ = next;
  return true;
}

std::size_t LineBuffer::next_lines(std::vector<std::string>& lines,
                                   std::size_t max, bool at_end) {
  std::size_t count = 0;
  std::string line;
  while (count < max && next_line(line, at_end)) {
    lines.push_back(std::move(line));
    ++count;
  }
  return count;
}

// ----------------------------------------------------------- StreamTransport

StreamTransport::StreamTransport(std::istream& in, std::ostream& out,
                                 std::string name)
    : in_(&in), out_(&out), name_(std::move(name)) {}

bool StreamTransport::read_line(std::string& line) {
  if (pending_.next_line(line)) return true;
  // No complete line slurped: block on the stream for (the rest of) one.
  // At true EOF a partial tail slurped by read_available is the final
  // (unterminated) line.
  std::string rest;
  if (std::getline(*in_, rest)) {
    rest.push_back('\n');
    pending_.append(rest);
  }
  return pending_.next_line(line, /*at_end=*/true);
}

std::size_t StreamTransport::read_available(std::vector<std::string>& lines,
                                            std::size_t max) {
  // Slurp only characters the stream reports as available (`in_avail`): a
  // pipe with nothing pending returns 0 rather than blocking, which keeps an
  // interactive stdin session line-at-a-time while a piped burst still
  // coalesces.  A trailing partial line stays buffered for the next
  // blocking read_line — returning it now would split a request in two.
  std::streambuf& buf = *in_->rdbuf();
  char chunk[4096];
  for (std::streamsize avail = buf.in_avail(); avail > 0;
       avail = buf.in_avail()) {
    const std::streamsize got = buf.sgetn(
        chunk, std::min<std::streamsize>(avail, sizeof chunk));
    if (got <= 0) break;
    pending_.append({chunk, static_cast<std::size_t>(got)});
  }
  return pending_.next_lines(lines, max);
}

void StreamTransport::write_line(std::string_view line) {
  *out_ << line << "\n";  // buffered; the session flushes once per burst
}

void StreamTransport::flush() { out_->flush(); }

// -------------------------------------------------------- TcpServerTransport

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

TcpServerTransport::TcpServerTransport(std::uint16_t port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno("socket");

  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&address),
             sizeof address) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw_errno("bind 127.0.0.1");
  }
  if (::listen(listen_fd_, 1) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw_errno("listen");
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw_errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
}

TcpServerTransport::~TcpServerTransport() {
  if (client_fd_ >= 0) ::close(client_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void TcpServerTransport::disconnect() {
  flush();
  if (client_fd_ >= 0) {
    ::close(client_fd_);
    client_fd_ = -1;
  }
  eof_ = true;  // no replacement client: the session is over
}

bool TcpServerTransport::accept_client() {
  while (true) {
    client_fd_ = ::accept(listen_fd_, nullptr, nullptr);
    if (client_fd_ >= 0) return true;
    if (errno != EINTR) return false;
  }
}

bool TcpServerTransport::read_line(std::string& line) {
  if (client_fd_ < 0 && (eof_ || !accept_client())) return false;
  flush();  // never block for input while responses sit in the buffer
  while (true) {
    if (buffer_.next_line(line, eof_)) return true;
    if (eof_) return false;
    char chunk[4096];
    const ssize_t got = ::recv(client_fd_, chunk, sizeof chunk, 0);
    if (got > 0) {
      buffer_.append({chunk, static_cast<std::size_t>(got)});
    } else if (got == 0) {
      eof_ = true;
    } else if (errno != EINTR) {
      eof_ = true;  // connection error: treat as disconnect
    }
  }
}

std::size_t TcpServerTransport::read_available(std::vector<std::string>& lines,
                                               std::size_t max) {
  if (client_fd_ < 0) return 0;
  // Top the buffer up with whatever the kernel already received, without
  // blocking: a client that pipelined a burst lands in one batch.
  while (!eof_) {
    char chunk[4096];
    const ssize_t got = ::recv(client_fd_, chunk, sizeof chunk, MSG_DONTWAIT);
    if (got > 0) {
      buffer_.append({chunk, static_cast<std::size_t>(got)});
      if (static_cast<std::size_t>(got) < sizeof chunk) break;
    } else if (got == 0) {
      eof_ = true;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    } else if (errno != EINTR) {
      eof_ = true;
    }
  }
  return buffer_.next_lines(lines, max, eof_);
}

void TcpServerTransport::send_all(const char* data, std::size_t size) {
  // Short-write/EINTR handling lives in util::write_all; a false return
  // means the client went away mid-response — the next read sees EOF.
  util::write_all(client_fd_, data, size);
}

void TcpServerTransport::write_line(std::string_view line) {
  if (client_fd_ < 0) return;  // nothing connected; response has no reader
  out_buffer_.append(line);
  out_buffer_.push_back('\n');
}

void TcpServerTransport::flush() {
  if (client_fd_ < 0 || out_buffer_.empty()) {
    out_buffer_.clear();
    return;
  }
  send_all(out_buffer_.data(), out_buffer_.size());
  out_buffer_.clear();
}

std::string TcpServerTransport::describe() const {
  return "tcp:127.0.0.1:" + std::to_string(port_);
}

}  // namespace minim::serve
