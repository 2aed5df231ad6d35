#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

/// \file transport.hpp
/// \brief Line transports for the serving session.
///
/// A serving session is transport-agnostic: it reads request lines and
/// writes one response line per event/query (see session.hpp).  Two
/// transports cover the deployment shapes:
///
///   * `StreamTransport` — any istream/ostream pair: stdin/stdout for
///     `cdma_drive --serve` (a recorded trace replays as `< file`),
///     stringstreams in tests;
///   * `TcpServerTransport` — a localhost TCP socket speaking the same
///     line protocol; binds eagerly (so the port is known before a client
///     exists) and accepts its single client lazily on the first read.
///
/// Both cut request lines with one `LineBuffer`, which consumes by offset
/// (linear in the bytes read, however many lines arrive at once) and strips
/// a trailing carriage return from every line.
///
/// Transports are deliberately single-client: the engine is a sequenced
/// event log (the paper's one-at-a-time reconfiguration model), so there is
/// nothing for a second concurrent client to safely do.

namespace minim::serve {

/// Splits received bytes into request lines.  Lines are consumed by
/// advancing an offset; the consumed prefix is dropped only once it is at
/// least as long as the unread rest, so splitting costs time linear in the
/// bytes appended.  Each line comes back without its `\n` and without one
/// trailing `\r` (`telnet`, `nc -C` and CRLF files work unmodified).
class LineBuffer {
 public:
  void append(std::string_view bytes);

  /// Pops the next newline-terminated line into `line` or, when `at_end`
  /// (no more bytes will arrive), the unterminated remainder as the final
  /// line.  False when neither is available.
  bool next_line(std::string& line, bool at_end = false);

  /// Appends up to `max` lines to `lines` (`next_line` in a loop); returns
  /// how many.
  std::size_t next_lines(std::vector<std::string>& lines, std::size_t max,
                         bool at_end = false);

  /// Bytes appended but not yet returned as lines.  Right after `next_line`
  /// returns false they are one unterminated partial line.
  std::size_t unread() const { return bytes_.size() - head_; }

 private:
  std::string bytes_;
  std::size_t head_ = 0;     ///< first unread byte
  std::size_t scanned_ = 0;  ///< [head_, scanned_) holds no newline
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Blocks for the next request line (without the terminator); false on
  /// end of input / client disconnect.
  virtual bool read_line(std::string& line) = 0;

  /// Appends up to `max` request lines that are available WITHOUT blocking
  /// (bytes the client already sent).  Pipelined sessions call it after a
  /// blocking `read_line` to drain the rest of a request burst into one
  /// batch.  The default — no lookahead — keeps a transport strictly
  /// line-at-a-time.
  virtual std::size_t read_available(std::vector<std::string>& lines,
                                     std::size_t max) {
    (void)lines;
    (void)max;
    return 0;
  }

  /// Writes one response line (terminator appended).  A transport may
  /// buffer; `flush()` delivers.
  virtual void write_line(std::string_view line) = 0;

  /// Delivers buffered response bytes to the peer.  Sessions flush once per
  /// drained input burst — the amortization pipelining exists for.
  virtual void flush() {}

  /// Human-readable endpoint ("stdin", "tcp:127.0.0.1:<p>").
  virtual std::string describe() const = 0;
};

/// Requests from `in`, responses to `out`.  Borrows both streams.  Unlike
/// `TcpServerTransport` it bounds no line: its input is the operator's own
/// stdin or file, not a peer.
/// `read_available` serves lines out of the characters the istream reports
/// as available without blocking (`in_avail`): a piped burst, or the whole
/// rest of a redirected file, batches without ever blocking past it.  A
/// final line without a newline is served by the next `read_line`, as a
/// burst of its own.  Responses buffer until `flush()`.
class StreamTransport final : public Transport {
 public:
  StreamTransport(std::istream& in, std::ostream& out,
                  std::string name = "stream");

  bool read_line(std::string& line) override;
  std::size_t read_available(std::vector<std::string>& lines,
                             std::size_t max) override;
  void write_line(std::string_view line) override;
  void flush() override;
  std::string describe() const override { return name_; }

 private:
  std::istream* in_;
  std::ostream* out_;
  std::string name_;
  /// Characters slurped ahead of the session by read_available; read_line
  /// serves from here before touching the stream again.
  LineBuffer pending_;
};

/// One-shot localhost TCP server.  The constructor binds and listens on
/// 127.0.0.1 (`port` 0 = kernel-assigned, read back via `port()`); the
/// first `read_line` blocks in accept() for the single client.  A final
/// line without a newline is served once the client closes.  A client that
/// sends more than `kMaxLineBytes` without a newline is disconnected, after
/// the replies to its earlier requests are delivered.  Throws
/// std::runtime_error on socket errors at setup.
class TcpServerTransport final : public Transport {
 public:
  /// The longest partial line buffered for a client.  Every protocol line
  /// is under 100 bytes, so only a broken or hostile client reaches it, and
  /// without it the receive buffer would grow for as long as one sends.
  static constexpr std::size_t kMaxLineBytes = 64 * 1024;

  explicit TcpServerTransport(std::uint16_t port = 0);
  ~TcpServerTransport() override;

  TcpServerTransport(const TcpServerTransport&) = delete;
  TcpServerTransport& operator=(const TcpServerTransport&) = delete;

  /// The bound port (the kernel's pick when constructed with 0).
  std::uint16_t port() const { return port_; }

  /// Closes the client connection (the client sees EOF).  The server keeps
  /// listening state but accepts no replacement — one session, one client.
  void disconnect();

  /// Disconnects the client, ending the session, when the buffered partial
  /// line has passed `kMaxLineBytes`.
  bool read_line(std::string& line) override;
  /// Serves lines from the receive buffer, topped up with whatever the
  /// kernel already holds (non-blocking recv) — a client that pipelined a
  /// burst of requests gets them coalesced into one batch.  Topping up stops
  /// once `kMaxLineBytes` are unread; the lines served now still get their
  /// replies, and the next `read_line` disconnects if no newline came.
  std::size_t read_available(std::vector<std::string>& lines,
                             std::size_t max) override;
  void write_line(std::string_view line) override;
  void flush() override;
  std::string describe() const override;

 private:
  bool accept_client();
  void send_all(const char* data, std::size_t size);

  int listen_fd_ = -1;
  int client_fd_ = -1;
  std::uint16_t port_ = 0;
  LineBuffer buffer_;       ///< received bytes not yet returned as lines
  std::string out_buffer_;  ///< response bytes not yet flushed
  bool eof_ = false;
};

}  // namespace minim::serve
