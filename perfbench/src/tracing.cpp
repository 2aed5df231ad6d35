#include "tracing.hpp"

#include <ostream>
#include <string_view>

#include "harness.hpp"
#include "net/network.hpp"
#include "sim/trace.hpp"

namespace perfbench {

namespace mc = minim::core;
namespace mn = minim::net;

namespace {

std::int64_t since(Clock::time_point epoch, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch).count();
}

std::uint64_t ns_between(Clock::time_point start, Clock::time_point end) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count());
}

// Span ids within one burst's trace.
constexpr std::uint32_t kClientSpan = 1;
constexpr std::uint32_t kWaitSpan = 2;
constexpr std::uint32_t kSessionSpan = 3;
constexpr std::uint32_t kFirstChildSpan = 4;

}  // namespace

const char* to_string(SpanName name) {
  switch (name) {
    case SpanName::kClientBurst: return "client.burst";
    case SpanName::kSessionBurst: return "session.burst";
    case SpanName::kTransportWait: return "transport.wait";
    case SpanName::kTransportDrain: return "transport.read_available";
    case SpanName::kTransportFlush: return "transport.flush";
    case SpanName::kStrategyJoin: return "strategy.on_join";
    case SpanName::kStrategyLeave: return "strategy.on_leave";
    case SpanName::kStrategyMove: return "strategy.on_move";
    case SpanName::kStrategyPower: return "strategy.on_power_change";
    case SpanName::kStrategyBatch: return "strategy.on_batch";
  }
  return "?";
}

// ------------------------------------------------------------------ Tracer

Tracer::Tracer(Clock::time_point epoch, std::size_t span_cap)
    : epoch_(epoch), span_cap_(span_cap) {}

void Tracer::begin_session(std::uint32_t session, std::size_t setup_bursts,
                           std::size_t measured_bursts,
                           const minim::serve::AssignmentEngine* engine,
                           const minim::strategies::BbbStrategy* bbb) {
  session_ = session;
  setup_bursts_ = setup_bursts;
  measured_bursts_ = measured_bursts;
  engine_ = engine;
  bbb_ = bbb;
  totals_ = LayerTotals{};
  burst_ = 0;
}

void Tracer::record(SpanName name, std::uint32_t parent,
                    Clock::time_point start, Clock::time_point end,
                    std::uint32_t id) {
  if (spans_.size() >= span_cap_) {
    ++dropped_;
    return;
  }
  spans_.push_back(Span{trace_id(burst_), id != 0 ? id : next_id_++, parent,
                        name, since(epoch_, start), since(epoch_, end)});
}

void Tracer::snapshot(bool begin) {
  const minim::util::LatencyHistogram total = engine_->total_latency();
  const double engine_ns = total.mean() * static_cast<double>(total.count());
  if (begin) {
    engine_begin_ns_ = engine_ns;
  } else {
    totals_.engine_ns = engine_ns - engine_begin_ns_;
  }
  if (bbb_ != nullptr) {
    (begin ? totals_.bbb_begin : totals_.bbb_end) = bbb_->counters();
    (begin ? totals_.order_begin : totals_.order_end) =
        bbb_->orderer().counters();
  }
}

void Tracer::on_read(Clock::time_point start, Clock::time_point end) {
  ++burst_;
  next_id_ = kFirstChildSpan;
  burst_start_ = end;
  if (burst_ == setup_bursts_ + 1) snapshot(true);
  if (burst_ == setup_bursts_ + measured_bursts_ + 1) snapshot(false);
  record(SpanName::kTransportWait, kClientSpan, start, end, kWaitSpan);
  if (!measuring()) return;
  totals_.wait_ns += ns_between(start, end);
  ++totals_.reads;
  ++totals_.lines_in;
}

void Tracer::on_drain(Clock::time_point start, Clock::time_point end,
                      std::size_t lines) {
  record(SpanName::kTransportDrain, kSessionSpan, start, end);
  if (!measuring()) return;
  totals_.io_ns += ns_between(start, end);
  totals_.lines_in += lines;
}

void Tracer::on_write(Clock::duration spent, std::size_t bytes) {
  // Per reply line: summed, not spanned (a span per line would dwarf the
  // work it measures).
  if (!measuring()) return;
  totals_.io_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(spent).count());
  totals_.bytes_out += bytes;
}

void Tracer::on_flush(Clock::time_point start, Clock::time_point end) {
  record(SpanName::kTransportFlush, kSessionSpan, start, end);
  record(SpanName::kSessionBurst, kClientSpan, burst_start_, end,
         kSessionSpan);
  if (!measuring()) return;
  totals_.io_ns += ns_between(start, end);
  totals_.busy_ns += ns_between(burst_start_, end);
}

void Tracer::on_strategy(SpanName name, Clock::time_point start,
                         Clock::time_point end, bool fallback) {
  record(name, kSessionSpan, start, end);
  if (!measuring()) return;
  const std::uint64_t ns = ns_between(start, end);
  totals_.strategy_ns += ns;
  ++totals_.strategy_calls;
  if (bbb_ == nullptr) return;
  (fallback ? totals_.fallback_ns : totals_.bounded_ns) += ns;
  ++(fallback ? totals_.fallback_calls : totals_.bounded_calls);
}

void Tracer::on_client_burst(std::size_t burst, Clock::time_point sent,
                             Clock::time_point answered) {
  if (spans_.size() >= span_cap_) {
    ++dropped_;
    return;
  }
  spans_.push_back(Span{trace_id(burst), kClientSpan, 0,
                        SpanName::kClientBurst, since(epoch_, sent),
                        since(epoch_, answered)});
}

void Tracer::write_spans(std::ostream& out) const {
  out << "trace\tspan\tparent\tname\tstart_ns\tend_ns\n";
  for (const Span& s : spans_)
    out << s.trace << '\t' << s.id << '\t' << s.parent << '\t'
        << to_string(s.name) << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
}

// -------------------------------------------------------- TracingTransport

bool TracingTransport::read_line(std::string& line) {
  const auto start = Clock::now();
  const bool got = inner_.read_line(line);
  if (got) tracer_.on_read(start, Clock::now());
  return got;
}

std::size_t TracingTransport::read_available(std::vector<std::string>& lines,
                                             std::size_t max) {
  const auto start = Clock::now();
  const std::size_t got = inner_.read_available(lines, max);
  tracer_.on_drain(start, Clock::now(), got);
  return got;
}

void TracingTransport::write_line(std::string_view line) {
  const auto start = Clock::now();
  inner_.write_line(line);
  tracer_.on_write(Clock::now() - start, line.size() + 1);
}

void TracingTransport::flush() {
  const auto start = Clock::now();
  inner_.flush();
  tracer_.on_flush(start, Clock::now());
}

// --------------------------------------------------------- TracingStrategy

template <typename Call>
mc::RecodeReport TracingStrategy::timed(SpanName name, Call&& call) {
  const std::uint64_t full_before =
      bbb_ != nullptr ? bbb_->counters().full_events : 0;
  const auto start = Clock::now();
  mc::RecodeReport report = call();
  const auto end = Clock::now();
  tracer_.on_strategy(name, start, end,
                      bbb_ != nullptr && bbb_->counters().full_events > full_before);
  return report;
}

mc::RecodeReport TracingStrategy::on_batch(const mn::AdhocNetwork& net,
                                           mn::CodeAssignment& assignment,
                                           const mc::BatchRepairContext& context) {
  return timed(SpanName::kStrategyBatch,
               [&] { return inner_.on_batch(net, assignment, context); });
}

mc::RecodeReport TracingStrategy::on_join(const mn::AdhocNetwork& net,
                                          mn::CodeAssignment& assignment,
                                          mn::NodeId n) {
  return timed(SpanName::kStrategyJoin,
               [&] { return inner_.on_join(net, assignment, n); });
}

mc::RecodeReport TracingStrategy::on_leave(const mn::AdhocNetwork& net,
                                           mn::CodeAssignment& assignment,
                                           mn::NodeId departed) {
  return timed(SpanName::kStrategyLeave,
               [&] { return inner_.on_leave(net, assignment, departed); });
}

mc::RecodeReport TracingStrategy::on_move(const mn::AdhocNetwork& net,
                                          mn::CodeAssignment& assignment,
                                          mn::NodeId n) {
  return timed(SpanName::kStrategyMove,
               [&] { return inner_.on_move(net, assignment, n); });
}

mc::RecodeReport TracingStrategy::on_power_change(const mn::AdhocNetwork& net,
                                                  mn::CodeAssignment& assignment,
                                                  mn::NodeId n, double old_range) {
  return timed(SpanName::kStrategyPower, [&] {
    return inner_.on_power_change(net, assignment, n, old_range);
  });
}

// -------------------------------------------------------- profile_network

NetProfile profile_network(const Stream& stream, std::size_t reps) {
  using minim::sim::TraceEvent;
  minim::sim::TraceLineParser parser;
  const auto events_of = [&parser](const std::vector<Burst>& bursts) {
    std::vector<TraceEvent> events;
    for (const Burst& burst : bursts) {
      if (burst.events == 0) continue;  // stats
      std::string_view text = burst.text;
      while (!text.empty()) {
        const std::size_t newline = text.find('\n');
        const std::string_view line = text.substr(0, newline);
        text.remove_prefix(newline + 1);
        if (const auto event = parser.parse_line(line)) events.push_back(*event);
      }
    }
    return events;
  };
  const std::vector<TraceEvent> setup = events_of(stream.setup);
  const std::vector<TraceEvent> measured = events_of(stream.measured);

  std::array<std::size_t, 4> count{};
  for (const TraceEvent& e : measured) ++count[static_cast<std::size_t>(e.kind)];

  NetProfile profile;
  std::array<std::vector<double>, 4> us_per_rep;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    mn::AdhocNetwork net(stream.width, stream.height);
    std::vector<mn::NodeId> ids;
    const auto apply = [&](const TraceEvent& e) {
      switch (e.kind) {
        case TraceEvent::Kind::kJoin:
          ids.push_back(net.add_node(mn::NodeConfig{e.position, e.range}));
          break;
        case TraceEvent::Kind::kLeave: net.remove_node(ids[e.node]); break;
        case TraceEvent::Kind::kMove: net.set_position(ids[e.node], e.position); break;
        case TraceEvent::Kind::kPower: net.set_range(ids[e.node], e.range); break;
      }
    };
    for (const TraceEvent& e : setup) apply(e);

    std::array<std::uint64_t, 4> ns{};
    std::uint64_t dirty = 0;
    for (const TraceEvent& e : measured) {
      const std::uint64_t revision = net.conflict_graph().revision();
      const auto start = Clock::now();
      apply(e);
      ns[static_cast<std::size_t>(e.kind)] += ns_between(start, Clock::now());
      dirty += net.conflict_graph().revision() - revision;
    }
    for (std::size_t k = 0; k < 4; ++k)
      if (count[k] != 0)
        us_per_rep[k].push_back(static_cast<double>(ns[k]) * 1e-3 /
                                static_cast<double>(count[k]));

    if (rep + 1 == reps) {
      std::size_t degree_sum = 0;
      for (const mn::NodeId v : net.nodes())
        degree_sum += net.conflict_graph().degree(v);
      const auto live = static_cast<double>(net.node_count());
      profile.conflict_dirty_per_event =
          static_cast<double>(dirty) / static_cast<double>(measured.size());
      profile.conflict_degree_mean = static_cast<double>(degree_sum) / live;
      profile.bytes_per_node = static_cast<double>(net.memory_bytes()) / live;
    }
  }
  for (std::size_t k = 0; k < 4; ++k)
    if (!us_per_rep[k].empty()) profile.us_per_event[k] = median(us_per_rep[k]);
  return profile;
}

}  // namespace perfbench
