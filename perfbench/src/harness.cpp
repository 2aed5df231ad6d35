#include "harness.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>
#include <istream>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "serve/transport.hpp"
#include "sim/simulation.hpp"
#include "strategies/factory.hpp"
#include "util/fd_io.hpp"

namespace perfbench {

namespace {

double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

/// The closed-loop client's end of the loopback connection.
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
      return;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    // A server that stops answering fails the session instead of hanging it.
    const timeval timeout{60, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return fd_ >= 0; }

  bool send(const std::string& text) {
    return minim::util::write_all(fd_, text.data(), text.size());
  }

  /// Receives until `lines` more reply lines have arrived, appending the
  /// bytes to `out`.  False on disconnect, timeout, or surplus lines.
  bool await(std::size_t lines, std::string& out) {
    expected_ += lines;
    char chunk[65536];
    while (received_ < expected_) {
      const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) return false;
      out.append(chunk, static_cast<std::size_t>(got));
      received_ += static_cast<std::size_t>(std::count(chunk, chunk + got, '\n'));
    }
    return received_ == expected_;
  }

  /// True when the server closes without sending anything more.
  bool at_eof() {
    char byte = 0;
    ssize_t got = 0;
    do {
      got = ::recv(fd_, &byte, 1, 0);
    } while (got < 0 && errno == EINTR);
    return got == 0;
  }

 private:
  int fd_ = -1;
  std::size_t expected_ = 0;
  std::size_t received_ = 0;
};

struct ClientLog {
  /// (sent, last reply received) for every burst, in order.
  std::vector<std::pair<Clock::time_point, Clock::time_point>> bursts;
  std::string replies;
  std::string error;
};

void drive(const Stream& stream, std::uint16_t port, ClientLog& log) {
  Client client(port);
  if (!client.connected()) {
    log.error = std::string("connect: ") + std::strerror(errno);
    return;
  }
  log.replies.reserve(stream.total_requests() * 48);
  for (const auto* part : {&stream.setup, &stream.measured, &stream.tail}) {
    for (const Burst& burst : *part) {
      const auto sent = Clock::now();
      if (!client.send(burst.text) || !client.await(burst.requests, log.replies)) {
        log.error = "burst " + std::to_string(log.bursts.size() + 1) +
                    " not answered line for line";
        return;
      }
      log.bursts.emplace_back(sent, Clock::now());
    }
  }
  if (!client.at_eof()) log.error = "reply bytes after bye";
}

/// Presents a stream's bursts one at a time: `in_avail` never reaches past
/// the current burst, so a StreamTransport drains exactly one burst per
/// blocking read, as the TCP transport does in a closed loop.
class BurstBuffer final : public std::streambuf {
 public:
  explicit BurstBuffer(const Stream& stream) {
    for (const auto* part : {&stream.setup, &stream.measured, &stream.tail})
      for (const Burst& burst : *part) bursts_.push_back(&burst);
  }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    if (next_ == bursts_.size()) return traits_type::eof();
    current_ = bursts_[next_++]->text;
    setg(current_.data(), current_.data(), current_.data() + current_.size());
    return traits_type::to_int_type(*gptr());
  }

 private:
  std::vector<const Burst*> bursts_;
  std::size_t next_ = 0;
  std::string current_;
};

// ------------------------------------------------------------ reply checks

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

void fnv(std::uint64_t& hash, std::string_view bytes) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
}

/// The unsigned number right after `key` in `line`.
std::optional<std::uint64_t> field(std::string_view line, std::string_view key) {
  const std::size_t at = line.find(key);
  if (at == std::string_view::npos) return std::nullopt;
  std::uint64_t value = 0;
  const char* begin = line.data() + at + key.size();
  const auto [end, ec] = std::from_chars(begin, line.data() + line.size(), value);
  if (ec != std::errc() || end == begin) return std::nullopt;
  return value;
}

std::string_view first_token(std::string_view line) {
  return line.substr(0, line.find(' '));
}

}  // namespace

const char* label(EngineKind kind) {
  return kind == EngineKind::kMinim ? "minim" : "bbb";
}

const char* strategy_name(EngineKind kind) {
  return kind == EngineKind::kMinim ? "minim" : "bbb-bounded";
}

SessionResult run_session(const Stream& stream, EngineKind kind, Tracer* tracer,
                          std::uint32_t session) {
  namespace serve = minim::serve;
  SessionResult result;
  const auto start = Clock::now();

  const minim::core::StrategyPtr inner =
      minim::strategies::make_strategy(strategy_name(kind));
  auto* bbb = dynamic_cast<minim::strategies::BbbStrategy*>(inner.get());
  std::optional<TracingStrategy> traced_strategy;
  if (tracer != nullptr) {
    // The engine's tuning hook cannot see through the decorator.
    if (bbb != nullptr) bbb->set_recolor_threads(kRecolorThreads);
    traced_strategy.emplace(*inner, *tracer, bbb);
  }
  serve::AssignmentEngine::Params params;
  params.width = stream.width;
  params.height = stream.height;
  params.recolor_threads = kRecolorThreads;
  serve::AssignmentEngine engine(
      traced_strategy ? static_cast<minim::core::RecodingStrategy&>(*traced_strategy)
                      : *inner,
      params);

  serve::TcpServerTransport tcp(0);
  std::optional<TracingTransport> traced_transport;
  if (tracer != nullptr) {
    traced_transport.emplace(tcp, *tracer);
    tracer->begin_session(session, stream.setup.size(), stream.measured.size(),
                          &engine, bbb);
  }
  serve::Transport& transport =
      traced_transport ? static_cast<serve::Transport&>(*traced_transport) : tcp;

  ClientLog log;
  std::thread client([&] { drive(stream, tcp.port(), log); });
  try {
    result.stats = serve::serve_session(engine, transport);
  } catch (const std::exception& e) {
    result.server_error = e.what();
  } catch (...) {
    result.server_error = "unknown exception";
  }
  tcp.disconnect();  // hands the client its EOF
  client.join();

  result.client_error = std::move(log.error);
  result.replies = std::move(log.replies);
  const std::size_t setup = stream.setup.size();
  const std::size_t measured = stream.measured.size();
  if (log.bursts.size() >= setup)
    result.setup_s = seconds_between(start, log.bursts[setup - 1].second);
  if (log.bursts.size() >= setup + measured && measured > 0) {
    result.measured_s = seconds_between(log.bursts[setup].first,
                                        log.bursts[setup + measured - 1].second);
    result.rtt_ns.reserve(measured);
    for (std::size_t i = setup; i < setup + measured; ++i)
      result.rtt_ns.push_back(static_cast<std::uint32_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              log.bursts[i].second - log.bursts[i].first)
              .count()));
  }
  if (tracer != nullptr)
    for (std::size_t i = 0; i < log.bursts.size(); ++i)
      tracer->on_client_burst(i + 1, log.bursts[i].first, log.bursts[i].second);

  try {
    minim::sim::validate_assignment(engine.simulation().network(),
                                    engine.simulation().assignment());
  } catch (const std::exception& e) {
    result.invalid = e.what();
  }
  result.codes.reserve(engine.joined());
  for (std::size_t node = 0; node < engine.joined(); ++node)
    result.codes.push_back(engine.is_live(node)
                               ? static_cast<std::int64_t>(engine.code_of(node))
                               : -1);
  return result;
}

std::string replay_stream(const Stream& stream, EngineKind kind) {
  minim::serve::AssignmentEngine::Params params;
  params.width = stream.width;
  params.height = stream.height;
  minim::serve::AssignmentEngine engine(strategy_name(kind), params);
  BurstBuffer buffer(stream);
  std::istream in(&buffer);
  std::ostringstream out;
  minim::serve::StreamTransport transport(in, out, "replay");
  minim::serve::serve_session(engine, transport);
  return out.str();
}

ReplyCheck check_replies(const Stream& stream, EngineKind kind,
                         std::string_view replies) {
  ReplyCheck check;
  check.digest = kFnvOffset;
  check.digest_without_fallback = kFnvOffset;
  const auto problem = [&check](std::string text) {
    if (check.problems.size() < 8) check.problems.push_back(std::move(text));
  };
  const bool coalesces = kind == EngineKind::kBbb;
  std::uint64_t seq = 0;
  std::size_t line_number = 0;

  const std::vector<Burst>* parts[] = {&stream.setup, &stream.measured,
                                       &stream.tail};
  for (std::size_t part = 0; part < 3; ++part) {
    for (const Burst& burst : *parts[part]) {
      bool split = false;
      std::string_view requests = burst.text;
      for (std::size_t j = 0; j < burst.requests; ++j) {
        const std::string_view request = requests.substr(0, requests.find('\n'));
        requests.remove_prefix(request.size() + 1);
        if (replies.empty()) {
          ++check.unanswered;
          continue;
        }
        const std::size_t newline = replies.find('\n');
        const std::string_view line = replies.substr(0, newline);
        replies.remove_prefix(newline == std::string_view::npos ? replies.size()
                                                                 : newline + 1);
        ++line_number;

        fnv(check.digest, line);
        fnv(check.digest, "\n");
        const std::size_t fallback = line.find(" fallback=");
        if (fallback == std::string_view::npos) {
          fnv(check.digest_without_fallback, line);
        } else {
          fnv(check.digest_without_fallback, line.substr(0, fallback));
          std::string_view rest = line.substr(fallback + 10);
          rest.remove_prefix(std::min(rest.size(), rest.find(' ')));
          fnv(check.digest_without_fallback, rest);
        }
        fnv(check.digest_without_fallback, "\n");

        if (line.starts_with("err ")) {
          ++check.errors;
          problem("reply " + std::to_string(line_number) + ": " + std::string(line));
          continue;
        }
        const std::string_view verb = first_token(request);
        if (burst.events != 0) {
          const auto got_seq = field(line, "ok ");
          const auto maxc = field(line, " maxc=");
          if (!line.starts_with("ok ") || !got_seq || !maxc) {
            problem("reply " + std::to_string(line_number) + " is no receipt");
            continue;
          }
          if (*got_seq != ++seq) {
            problem("reply " + std::to_string(line_number) + " has seq " +
                    std::to_string(*got_seq) + ", want " + std::to_string(seq));
            seq = *got_seq;
          }
          if (part == 1) check.max_color_sum += static_cast<double>(*maxc);
          const std::uint64_t want_batch =
              coalesces && burst.events >= 2 ? burst.events : 0;
          if (field(line, " batch=").value_or(0) != want_batch) split = true;
        } else if (verb == "stats") {
          const auto live = field(line, " live=");
          const auto recodings = field(line, " recodings=");
          if (!line.starts_with("stats ") || !live || !recodings) {
            problem("reply " + std::to_string(line_number) + " is no stats line");
            continue;
          }
          (part == 0 ? check.setup_recodings : check.final_recodings) = *recodings;
          check.live = *live;
        } else if (line != "bye") {
          problem("quit not answered with bye");
        }
      }
      if (split) ++check.split_bursts;
    }
  }
  if (check.unanswered != 0)
    problem(std::to_string(check.unanswered) + " requests unanswered");
  if (!replies.empty()) problem("reply lines beyond the requests");
  if (check.split_bursts != 0)
    problem(std::to_string(check.split_bursts) +
            " bursts whose receipts' batch= differs from the burst");
  return check;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  return 0.5 * (upper + *std::max_element(values.begin(),
                                          values.begin() + static_cast<std::ptrdiff_t>(mid)));
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size()))));
  const auto nth = values.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

}  // namespace perfbench
