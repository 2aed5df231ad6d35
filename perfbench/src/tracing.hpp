#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/strategy.hpp"
#include "serve/engine.hpp"
#include "serve/transport.hpp"
#include "strategies/bbb.hpp"
#include "workload.hpp"

/// \file tracing.hpp
/// \brief The traced run: spans and per-layer totals taken from outside the
/// program, around the calls into each layer's public interface.
///
/// `TracingTransport` decorates the session's transport and
/// `TracingStrategy` the engine's recoding strategy; both report to one
/// `Tracer`, which keeps spans in memory and sums each layer's time over the
/// session's measured window.  The engine cannot see through the strategy
/// decorator, so traced receipts always read `fallback=0`; the tracer reads
/// fallbacks from the inner strategy's counters instead.  `profile_network`
/// is the strategy-free shadow replay of the same events through a bare
/// `net::AdhocNetwork`.

namespace perfbench {

using Clock = std::chrono::steady_clock;

enum class SpanName : std::uint8_t {
  kClientBurst,     ///< client: burst sent -> last reply received
  kSessionBurst,    ///< server: burst read -> its replies flushed
  kTransportWait,   ///< server blocked in read_line (idle)
  kTransportDrain,  ///< read_available
  kTransportFlush,
  kStrategyJoin,
  kStrategyLeave,
  kStrategyMove,
  kStrategyPower,
  kStrategyBatch,
};
const char* to_string(SpanName name);

/// One timed interval.  Spans of one burst share `trace`; `parent` is the
/// id of the span that caused this one within the trace (0 = root).
struct Span {
  std::uint64_t trace = 0;  ///< (session << 32) | burst
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  SpanName name = SpanName::kClientBurst;
  std::int64_t start_ns = 0;  ///< since the tracer's epoch
  std::int64_t end_ns = 0;
};

/// One session's layer totals over its measured bursts.
struct LayerTotals {
  std::uint64_t wait_ns = 0;   ///< blocked in read_line
  std::uint64_t io_ns = 0;     ///< read_available + write_line + flush
  std::uint64_t busy_ns = 0;   ///< read_line return -> flush end
  std::uint64_t reads = 0;     ///< blocking reads that returned a line
  std::uint64_t lines_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t strategy_ns = 0;
  std::uint64_t strategy_calls = 0;
  std::uint64_t bounded_ns = 0;  ///< bbb calls that stayed on the bounded path
  std::uint64_t bounded_calls = 0;
  std::uint64_t fallback_ns = 0;  ///< bbb calls that recolored from scratch
  std::uint64_t fallback_calls = 0;
  double engine_ns = 0.0;  ///< growth of the engine's latency histograms
  minim::strategies::BbbStrategy::Counters bbb_begin, bbb_end;
  minim::strategies::DegeneracyOrderer::Counters order_begin, order_end;
};

class Tracer {
 public:
  Tracer(Clock::time_point epoch, std::size_t span_cap);

  /// Starts a session.  Blocking reads number the bursts from 1; bursts
  /// (setup_bursts, setup_bursts + measured_bursts] are the measured window.
  /// `engine` and `bbb` (null for other strategies) are snapshotted at the
  /// window's edges.
  void begin_session(std::uint32_t session, std::size_t setup_bursts,
                     std::size_t measured_bursts,
                     const minim::serve::AssignmentEngine* engine,
                     const minim::strategies::BbbStrategy* bbb);
  const LayerTotals& totals() const { return totals_; }

  void on_read(Clock::time_point start, Clock::time_point end);
  void on_drain(Clock::time_point start, Clock::time_point end,
                std::size_t lines);
  void on_write(Clock::duration spent, std::size_t bytes);
  void on_flush(Clock::time_point start, Clock::time_point end);
  void on_strategy(SpanName name, Clock::time_point start,
                   Clock::time_point end, bool fallback);
  /// The client's view of burst `burst` (1-based) of the current session.
  void on_client_burst(std::size_t burst, Clock::time_point sent,
                       Clock::time_point answered);

  const std::vector<Span>& spans() const { return spans_; }
  std::size_t dropped_spans() const { return dropped_; }
  /// Tab-separated: trace, span, parent, name, start_ns, end_ns.
  void write_spans(std::ostream& out) const;

 private:
  bool measuring() const {
    return burst_ > setup_bursts_ && burst_ <= setup_bursts_ + measured_bursts_;
  }
  std::uint64_t trace_id(std::size_t burst) const {
    return (static_cast<std::uint64_t>(session_) << 32) | burst;
  }
  void record(SpanName name, std::uint32_t parent, Clock::time_point start,
              Clock::time_point end, std::uint32_t id = 0);
  void snapshot(bool begin);

  Clock::time_point epoch_;
  std::size_t span_cap_;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;

  std::uint32_t session_ = 0;
  std::size_t setup_bursts_ = 0;
  std::size_t measured_bursts_ = 0;
  const minim::serve::AssignmentEngine* engine_ = nullptr;
  const minim::strategies::BbbStrategy* bbb_ = nullptr;
  double engine_begin_ns_ = 0.0;
  LayerTotals totals_;

  std::size_t burst_ = 0;            ///< current server-side burst
  Clock::time_point burst_start_{};  ///< its read_line return
  std::uint32_t next_id_ = 0;        ///< span ids within the current trace
};

class TracingTransport final : public minim::serve::Transport {
 public:
  TracingTransport(minim::serve::Transport& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  bool read_line(std::string& line) override;
  std::size_t read_available(std::vector<std::string>& lines,
                             std::size_t max) override;
  void write_line(std::string_view line) override;
  void flush() override;
  std::string describe() const override { return inner_.describe(); }

 private:
  minim::serve::Transport& inner_;
  Tracer& tracer_;
};

class TracingStrategy final : public minim::core::RecodingStrategy {
 public:
  /// `bbb` is `inner` when it is a BbbStrategy, else null.
  TracingStrategy(minim::core::RecodingStrategy& inner, Tracer& tracer,
                  const minim::strategies::BbbStrategy* bbb)
      : inner_(inner), tracer_(tracer), bbb_(bbb) {}

  std::string name() const override { return inner_.name(); }
  bool supports_batch() const override { return inner_.supports_batch(); }
  minim::core::RecodeReport on_batch(
      const minim::net::AdhocNetwork& net, minim::net::CodeAssignment& assignment,
      const minim::core::BatchRepairContext& context) override;
  minim::core::RecodeReport on_join(const minim::net::AdhocNetwork& net,
                                    minim::net::CodeAssignment& assignment,
                                    minim::net::NodeId n) override;
  minim::core::RecodeReport on_leave(const minim::net::AdhocNetwork& net,
                                     minim::net::CodeAssignment& assignment,
                                     minim::net::NodeId departed) override;
  minim::core::RecodeReport on_move(const minim::net::AdhocNetwork& net,
                                    minim::net::CodeAssignment& assignment,
                                    minim::net::NodeId n) override;
  minim::core::RecodeReport on_power_change(
      const minim::net::AdhocNetwork& net, minim::net::CodeAssignment& assignment,
      minim::net::NodeId n, double old_range) override;

 private:
  template <typename Call>
  minim::core::RecodeReport timed(SpanName name, Call&& call);

  minim::core::RecodingStrategy& inner_;
  Tracer& tracer_;
  const minim::strategies::BbbStrategy* bbb_;
};

/// The network layer alone: the session's events replayed through a bare
/// `net::AdhocNetwork` (no strategy, no engine), measured events timed per
/// call.  Times are the median over `reps` replays.
struct NetProfile {
  std::array<double, 4> us_per_event{};  ///< by sim::TraceEvent::Kind
  double conflict_dirty_per_event = 0.0; ///< ConflictGraph::revision() growth
  double conflict_degree_mean = 0.0;     ///< over live nodes at the end
  double bytes_per_node = 0.0;           ///< AdhocNetwork::memory_bytes() / n
};
NetProfile profile_network(const Stream& stream, std::size_t reps);

}  // namespace perfbench
