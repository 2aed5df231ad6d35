// The benchmark's own tests: the seeded generators, the reply checks, and
// the traced run's equivalence with the untraced one.
//
//   python3 perfbench/run.py --test

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "harness.hpp"
#include "sim/trace.hpp"
#include "tracing.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

std::string text_of(const Stream& stream) {
  std::string all;
  for (const auto* part : {&stream.setup, &stream.measured, &stream.tail})
    for (const Burst& burst : *part) all += burst.text;
  return all;
}

/// A dense-churn variant small enough for a unit test.
WorkloadSpec small_spec() {
  WorkloadSpec spec = workload_spec("dense-churn");
  spec.population = 40;
  spec.stream_bursts = 40;
  return spec;
}

TEST(Workload, SameSeedGivesByteIdenticalStream) {
  for (const std::string& name : workload_names()) {
    const WorkloadSpec spec = workload_spec(name);
    EXPECT_EQ(text_of(generate_stream(spec, 7)), text_of(generate_stream(spec, 7)))
        << name;
  }
}

TEST(Workload, DifferentSeedGivesDifferentStream) {
  for (const std::string& name : workload_names()) {
    const WorkloadSpec spec = workload_spec(name);
    EXPECT_NE(text_of(generate_stream(spec, 7)), text_of(generate_stream(spec, 8)))
        << name;
  }
}

TEST(Workload, RestoreOfADepartedNodeIsDroppedNotSent) {
  // On a small population, many raised nodes leave (or get re-tweaked)
  // before their restore is due.
  WorkloadSpec spec = small_spec();
  spec.stream_bursts = 1200;
  const Stream stream = generate_stream(spec, 3);
  EXPECT_GT(stream.raises, 0u);
  EXPECT_GT(stream.restores, 0u);
  EXPECT_GT(stream.skipped_restores, 0u);

  // The trace parser rejects any reference to a departed or unknown node,
  // so every event line parsing proves no dropped restore was sent.
  minim::sim::TraceLineParser parser;
  std::size_t live = 0;
  for (const auto* part : {&stream.setup, &stream.measured}) {
    for (const Burst& burst : *part) {
      if (burst.events == 0) continue;  // stats
      std::string_view text = burst.text;
      for (std::size_t j = 0; j < burst.requests; ++j) {
        const std::string_view line = text.substr(0, text.find('\n'));
        text.remove_prefix(line.size() + 1);
        std::optional<minim::sim::TraceEvent> event;
        ASSERT_NO_THROW(event = parser.parse_line(line)) << line;
        ASSERT_TRUE(event.has_value());
        if (event->kind == minim::sim::TraceEvent::Kind::kJoin) ++live;
        if (event->kind == minim::sim::TraceEvent::Kind::kLeave) --live;
      }
    }
  }
  EXPECT_EQ(live, stream.final_live);
}

TEST(Harness, TcpRepliesMatchStreamTransportReplay) {
  const Stream stream = generate_stream(small_spec(), 11);
  for (const EngineKind kind : kEngines) {
    const SessionResult tcp = run_session(stream, kind);
    ASSERT_TRUE(tcp.client_error.empty()) << tcp.client_error;
    ASSERT_TRUE(tcp.invalid.empty()) << tcp.invalid;
    const ReplyCheck check = check_replies(stream, kind, tcp.replies);
    EXPECT_TRUE(check.ok()) << (check.problems.empty() ? "" : check.problems[0]);
    EXPECT_EQ(check.live, stream.final_live);
    EXPECT_EQ(tcp.replies, replay_stream(stream, kind)) << label(kind);
  }
}

TEST(Harness, ReplyCheckCatchesMissingAndWrongLines) {
  const Stream stream = generate_stream(small_spec(), 12);
  const std::string replies = replay_stream(stream, EngineKind::kBbb);
  ASSERT_TRUE(check_replies(stream, EngineKind::kBbb, replies).ok());

  const std::string truncated = replies.substr(0, replies.size() / 2);
  const ReplyCheck short_check = check_replies(stream, EngineKind::kBbb, truncated);
  EXPECT_FALSE(short_check.ok());
  EXPECT_GT(short_check.unanswered, 0u);

  // A receipt claiming another batch size counts as a split burst.
  std::string split = replies;
  const std::size_t at = split.find(" batch=8");
  ASSERT_NE(at, std::string::npos);
  split.replace(at, 8, " batch=7");
  const ReplyCheck split_check = check_replies(stream, EngineKind::kBbb, split);
  EXPECT_FALSE(split_check.ok());
  EXPECT_EQ(split_check.split_bursts, 1u);

  std::string errored = replies;
  errored.replace(0, errored.find('\n'), "err line=1 bogus");
  EXPECT_EQ(check_replies(stream, EngineKind::kBbb, errored).errors, 1u);
}

TEST(Harness, TracedAndUntracedRunsEndWithIdenticalCodes) {
  const Stream stream = generate_stream(small_spec(), 13);
  for (const EngineKind kind : kEngines) {
    const SessionResult plain = run_session(stream, kind);
    Tracer tracer(Clock::now(), 100000);
    const SessionResult traced = run_session(stream, kind, &tracer, 1);
    ASSERT_TRUE(traced.client_error.empty()) << traced.client_error;
    EXPECT_EQ(traced.codes, plain.codes) << label(kind);
    // Traced receipts cannot see the fallback bit; everything else matches.
    EXPECT_EQ(check_replies(stream, kind, traced.replies).digest_without_fallback,
              check_replies(stream, kind, plain.replies).digest_without_fallback);

    const LayerTotals& t = tracer.totals();
    EXPECT_EQ(t.reads, stream.measured.size());
    EXPECT_EQ(t.lines_in, stream.measured_requests);
    EXPECT_GT(t.strategy_calls, 0u);
    EXPECT_GT(t.engine_ns, 0.0);
    EXPECT_GE(static_cast<double>(t.busy_ns), t.engine_ns);
    EXPECT_FALSE(tracer.spans().empty());
    if (kind == EngineKind::kBbb) {
      EXPECT_EQ(t.bounded_calls + t.fallback_calls, t.strategy_calls);
    }
  }
}

TEST(Tracing, NetworkProfileCoversEveryEventKind) {
  const NetProfile profile = profile_network(generate_stream(small_spec(), 14), 1);
  for (const double us : profile.us_per_event) EXPECT_GT(us, 0.0);
  EXPECT_GT(profile.conflict_dirty_per_event, 0.0);
  EXPECT_GT(profile.conflict_degree_mean, 0.0);
  EXPECT_GT(profile.bytes_per_node, 0.0);
}

}  // namespace
}  // namespace perfbench
