#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "serve/session.hpp"
#include "tracing.hpp"
#include "workload.hpp"

/// \file harness.hpp
/// \brief The closed-loop serving harness.
///
/// One session = one engine behind `serve::serve_session` on a
/// `serve::TcpServerTransport` (the calling thread), driven by one client
/// thread over one loopback connection.  The client sends each burst with a
/// single write and waits for every reply before sending the next, as a
/// controller that needs the codes before it acts would.  `bbb-bounded`
/// recolors with `kRecolorThreads` (the caller plus one pool worker), so a
/// session uses three threads.

namespace perfbench {

enum class EngineKind { kMinim, kBbb };
inline constexpr EngineKind kEngines[] = {EngineKind::kMinim, EngineKind::kBbb};
inline constexpr std::size_t kRecolorThreads = 2;

const char* label(EngineKind kind);          ///< "minim" / "bbb"
const char* strategy_name(EngineKind kind);  ///< "minim" / "bbb-bounded"

/// What one session did, seen from both ends.
struct SessionResult {
  double setup_s = 0.0;     ///< engine construction -> post-ramp stats reply
  double measured_s = 0.0;  ///< first measured send -> last measured reply
  std::vector<std::uint32_t> rtt_ns;  ///< per measured burst
  std::string replies;      ///< every reply byte, in order
  std::string client_error; ///< empty when every burst was answered
  std::string server_error;
  minim::serve::SessionStats stats;
  std::string invalid;      ///< validate_assignment's complaint, if any
  std::vector<std::int64_t> codes;  ///< final code by join index; -1 = left
};

/// Serves `stream` to a fresh `kind` engine.  With a tracer, the transport
/// and strategy are wrapped in the tracing decorators and the tracer's
/// totals describe this session when the call returns.
SessionResult run_session(const Stream& stream, EngineKind kind,
                          Tracer* tracer = nullptr, std::uint32_t session = 0);

/// The replies of a fresh engine serving the same bursts through a
/// `serve::StreamTransport` whose input exposes one burst at a time, so the
/// session batches exactly as it does over TCP.  Recolors serially.
std::string replay_stream(const Stream& stream, EngineKind kind);

/// The client's checks of one session's reply stream.
struct ReplyCheck {
  std::vector<std::string> problems;
  std::size_t errors = 0;      ///< `err` replies
  std::size_t unanswered = 0;  ///< requests with no reply line
  std::size_t split_bursts = 0;  ///< bursts with a receipt's batch= off
  std::size_t live = 0;        ///< the final stats reply's live=
  std::size_t setup_recodings = 0;  ///< recodings= after the ramp
  std::size_t final_recodings = 0;
  double max_color_sum = 0.0;  ///< maxc= summed over measured receipts
  std::uint64_t digest = 0;    ///< every reply line
  std::uint64_t digest_without_fallback = 0;  ///< the same, fallback= dropped

  bool ok() const { return problems.empty(); }
};
ReplyCheck check_replies(const Stream& stream, EngineKind kind,
                         std::string_view replies);

double median(std::vector<double> values);  ///< mean of the middle two when even
/// Exact order statistic: the value at rank ceil(q * n) (1-based).
double quantile(std::vector<double> values, double q);

}  // namespace perfbench
