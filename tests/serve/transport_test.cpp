// The two line transports.  TcpServerTransport end to end: a real localhost
// socket client drives a session on a server thread, and the transcript must
// be byte-identical to the same requests served over a stream transport.
// Then request-line reading without a session: one LineBuffer cuts lines for
// StreamTransport and TcpServerTransport alike, so each ServeLineReader case
// runs against both.  Those cases are the ones that separate a line reader
// from a naive one: a request split across reads, CRLF line ends, an
// unterminated final line, and a large burst buffered at once (which a
// reader that erases each line from the front of its buffer turns
// quadratic).

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "serve/engine.hpp"
#include "serve/session.hpp"
#include "serve/transport.hpp"

namespace minim::serve {
namespace {

class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                  sizeof address) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  bool connected() const { return fd_ >= 0; }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_all(const std::string& text) {
    std::size_t sent = 0;
    while (sent < text.size()) {
      const ssize_t wrote =
          ::send(fd_, text.data() + sent, text.size() - sent, 0);
      ASSERT_GT(wrote, 0) << std::strerror(errno);
      sent += static_cast<std::size_t>(wrote);
    }
  }

  void shutdown_write() { ::shutdown(fd_, SHUT_WR); }

  std::string read_to_eof() {
    std::string all;
    char chunk[4096];
    while (true) {
      const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
      if (got <= 0) break;
      all.append(chunk, static_cast<std::size_t>(got));
    }
    return all;
  }

 private:
  int fd_ = -1;
};

const char kRequests[] =
    "join 10 10 20\n"
    "join 15 10 20\n"
    "join 40 40 10\n"
    "code 1\n"
    "conflicts 0\n"
    "move 2 12 12\n"
    "power 1 25\n"
    "bogus\n"
    "leave 0\n"
    "stats\n";

std::string serve_over_stream(const std::string& requests) {
  std::istringstream in(requests);
  std::ostringstream out;
  StreamTransport transport(in, out, "test");
  AssignmentEngine engine{std::string("minim")};
  serve_session(engine, transport);
  return out.str();
}

TEST(TcpServerTransport, SessionMatchesStreamTransportByteForByte) {
  TcpServerTransport transport(0);
  ASSERT_GT(transport.port(), 0);
  EXPECT_EQ(transport.describe(),
            "tcp:127.0.0.1:" + std::to_string(transport.port()));

  AssignmentEngine engine{std::string("minim")};
  SessionStats stats;
  std::thread server([&] {
    stats = serve_session(engine, transport);
    transport.disconnect();  // hand the client its EOF
  });

  std::string tcp_responses;
  {
    Client client(transport.port());
    if (!client.connected()) {
      server.detach();  // cannot happen on loopback; avoid a hang if it does
      FAIL() << "connect: " << std::strerror(errno);
    }
    client.send_all(kRequests);
    client.shutdown_write();
    tcp_responses = client.read_to_eof();
  }
  server.join();

  EXPECT_EQ(tcp_responses, serve_over_stream(kRequests));
  EXPECT_EQ(stats.lines, 10u);
  EXPECT_EQ(stats.events, 6u);
  EXPECT_EQ(stats.queries, 3u);
  EXPECT_EQ(stats.errors, 1u);
  // The engine state survived the disconnect: the session's view is intact.
  EXPECT_EQ(engine.events_served(), 6u);
  EXPECT_FALSE(engine.is_live(0));
  EXPECT_TRUE(engine.is_live(1));
}

TEST(TcpServerTransport, StripsCarriageReturnsFromClients) {
  TcpServerTransport transport(0);
  AssignmentEngine engine{std::string("minim")};
  std::thread server([&] {
    serve_session(engine, transport);
    transport.disconnect();
  });

  std::string responses;
  {
    Client client(transport.port());
    if (!client.connected()) {
      server.detach();
      FAIL() << "connect: " << std::strerror(errno);
    }
    // A telnet-style client terminates lines with \r\n, and the final line
    // may arrive without any terminator at all.
    client.send_all("join 10 10 20\r\nstats\r\nquit");
    client.shutdown_write();
    responses = client.read_to_eof();
  }
  server.join();

  EXPECT_EQ(responses,
            "ok 1 join node=0 recoded=1 maxc=1 live=1 fallback=0\n"
            "stats live=1 joined=1 maxc=1 colors=1 events=1 recodings=1\n"
            "bye\n");
}

// ---------------------------------------------------------- line reading

using Lines = std::vector<std::string>;

/// Stream bytes that arrive in chunks the test releases: as on a pipe,
/// `in_avail` reports only what has arrived so far.
class ChunkedBuffer final : public std::streambuf {
 public:
  void arrive(std::string bytes) { chunks_.push_back(std::move(bytes)); }

 protected:
  std::streamsize showmanyc() override {
    return chunks_.empty() ? 0
                           : static_cast<std::streamsize>(chunks_.front().size());
  }
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    if (chunks_.empty()) return traits_type::eof();
    current_ = std::move(chunks_.front());
    chunks_.pop_front();
    setg(current_.data(), current_.data(), current_.data() + current_.size());
    return traits_type::to_int_type(*gptr());
  }

 private:
  std::deque<std::string> chunks_;
  std::string current_;
};

/// A StreamTransport reading a ChunkedBuffer.
struct StreamSide {
  ChunkedBuffer buffer;
  std::istream in{&buffer};
  std::ostringstream out;
  StreamTransport transport{in, out};

  void arrive(std::string bytes) { buffer.arrive(std::move(bytes)); }
  void close() {}  // a drained ChunkedBuffer already reads as end of input
};

/// A TcpServerTransport and its client.  The client sends from a thread:
/// a large burst outgrows the socket buffers until the server reads.
struct TcpSide {
  TcpServerTransport transport{0};
  Client client{transport.port()};
  std::thread sender;

  ~TcpSide() { finish_sending(); }
  void arrive(std::string bytes) {
    finish_sending();
    sender = std::thread([this, bytes = std::move(bytes)] {
      client.send_all(bytes);
    });
  }
  void close() {
    finish_sending();
    client.shutdown_write();
  }
  void finish_sending() {
    if (sender.joinable()) sender.join();
  }
};

/// Calls read_available until `want` more lines have arrived or 10 s pass:
/// bytes a TCP client sent are in flight until the kernel delivers them.
std::size_t read_until(Transport& transport, Lines& lines, std::size_t want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::size_t got = 0;
  while (got < want && std::chrono::steady_clock::now() < deadline) {
    got += transport.read_available(lines, want - got);
    if (got < want) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return got;
}

/// Up to `max` lines, or fewer at end of input, read the way a pipelined
/// session reads: one blocking read_line, then whatever read_available has.
Lines read_lines(Transport& transport, std::size_t max) {
  Lines lines;
  std::string line;
  while (lines.size() < max && transport.read_line(line)) {
    lines.push_back(line);
    transport.read_available(lines, max - lines.size());
  }
  return lines;
}

template <typename Side>
void expect_split_request_joined(Side& side) {
  side.arrive("join 1 1 5\njoin 2 ");
  std::string line;
  ASSERT_TRUE(side.transport.read_line(line));
  EXPECT_EQ(line, "join 1 1 5");
  Lines lines;
  EXPECT_EQ(side.transport.read_available(lines, 8), 0u)
      << "a partial request must wait for the rest of its line";
  side.arrive("2 5\nstats\n");
  EXPECT_EQ(read_until(side.transport, lines, 2), 2u);
  EXPECT_EQ(lines, (Lines{"join 2 2 5", "stats"}));
}

/// The first line comes through read_line's blocking read, the second out
/// of the buffer read_available fills: both paths strip.
template <typename Side>
void expect_carriage_returns_stripped(Side& side) {
  side.arrive("join 1 1 5\r\nstats\r\n");
  std::string line;
  ASSERT_TRUE(side.transport.read_line(line));
  EXPECT_EQ(line, "join 1 1 5");
  Lines lines;
  EXPECT_EQ(read_until(side.transport, lines, 1), 1u);
  EXPECT_EQ(lines, (Lines{"stats"}));
}

template <typename Side>
void expect_unterminated_final_line_served(Side& side) {
  side.arrive("join 1 1 5\nstats");
  side.close();
  EXPECT_EQ(read_lines(side.transport, 3), (Lines{"join 1 1 5", "stats"}));
}

template <typename Side>
void expect_large_burst_in_order(Side& side) {
  constexpr std::size_t kLines = 100000;
  Lines burst;
  std::string bytes;
  for (std::size_t i = 0; i < kLines; ++i) {
    burst.push_back("move " + std::to_string(i) + " 1 2");
    bytes += burst.back() + "\n";
  }
  side.arrive(std::move(bytes));
  EXPECT_EQ(read_lines(side.transport, kLines), burst);
}

TEST(ServeLineReader, StreamJoinsARequestSplitAcrossReads) {
  StreamSide side;
  expect_split_request_joined(side);
}

TEST(ServeLineReader, TcpJoinsARequestSplitAcrossReads) {
  TcpSide side;
  ASSERT_TRUE(side.client.connected());
  expect_split_request_joined(side);
}

TEST(ServeLineReader, StreamStripsCarriageReturns) {
  StreamSide side;
  expect_carriage_returns_stripped(side);
}

TEST(ServeLineReader, TcpStripsCarriageReturns) {
  TcpSide side;
  ASSERT_TRUE(side.client.connected());
  expect_carriage_returns_stripped(side);
}

TEST(ServeLineReader, StreamServesAnUnterminatedFinalLine) {
  StreamSide side;
  expect_unterminated_final_line_served(side);
}

TEST(ServeLineReader, TcpServesAnUnterminatedFinalLine) {
  TcpSide side;
  ASSERT_TRUE(side.client.connected());
  expect_unterminated_final_line_served(side);
}

TEST(ServeLineReader, StreamReturnsALargeBurstInOrder) {
  StreamSide side;
  expect_large_burst_in_order(side);
}

TEST(ServeLineReader, TcpReturnsALargeBurstInOrder) {
  TcpSide side;
  ASSERT_TRUE(side.client.connected());
  expect_large_burst_in_order(side);
}

}  // namespace
}  // namespace minim::serve
