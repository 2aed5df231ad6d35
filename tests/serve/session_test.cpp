// The serving line protocol over an in-memory stream transport: scripted
// request/response transcripts, err-and-continue behavior, and the
// ingest-only (echo=false) mode.

#include "serve/session.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "serve/engine.hpp"
#include "serve/transport.hpp"

namespace minim::serve {
namespace {

struct Script {
  std::string responses;
  SessionStats stats;
};

Script run_script(const std::string& input, bool echo = true) {
  std::istringstream in(input);
  std::ostringstream out;
  StreamTransport transport(in, out, "test");
  AssignmentEngine engine{std::string("minim")};
  SessionOptions options;
  options.echo = echo;
  Script script;
  script.stats = serve_session(engine, transport, options);
  script.responses = out.str();
  return script;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(ServeSession, EventsAnswerWithReceipts) {
  const Script script = run_script(
      "join 10 10 20\n"
      "join 15 10 20\n"
      "leave 0\n");
  const std::vector<std::string> lines = lines_of(script.responses);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "ok 1 join node=0 recoded=1 maxc=1 live=1 fallback=0");
  EXPECT_EQ(lines[1], "ok 2 join node=1 recoded=1 maxc=2 live=2 fallback=0");
  EXPECT_EQ(lines[2], "ok 3 leave node=0 recoded=0 maxc=2 live=1 fallback=0");
  EXPECT_EQ(script.stats.events, 3u);
  EXPECT_EQ(script.stats.errors, 0u);
}

TEST(ServeSession, QueriesAnswerInline) {
  const Script script = run_script(
      "join 10 10 20\n"
      "join 15 10 20\n"
      "join 80 80 5\n"
      "code 0\n"
      "conflicts 0\n"
      "conflicts 2\n"
      "stats\n");
  const std::vector<std::string> lines = lines_of(script.responses);
  ASSERT_EQ(lines.size(), 7u);
  EXPECT_EQ(lines[3], "code node=0 color=1");
  EXPECT_EQ(lines[4], "conflicts node=0 count=1 partners=1");
  EXPECT_EQ(lines[5], "conflicts node=2 count=0 partners=-");
  EXPECT_EQ(lines[6],
            "stats live=3 joined=3 maxc=2 colors=2 events=3 recodings=3");
  EXPECT_EQ(script.stats.queries, 4u);
}

TEST(ServeSession, BlankAndCommentLinesGetNoResponse) {
  const Script script = run_script(
      "# a recorded trace header\n"
      "\n"
      "join 10 10 20\n"
      "   \n"
      "join 15 10 20   # inline comment\n");
  const std::vector<std::string> lines = lines_of(script.responses);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(script.stats.lines, 5u);
  EXPECT_EQ(script.stats.events, 2u);
}

TEST(ServeSession, ErrorsCarryLineNumbersAndTheSessionContinues) {
  const Script script = run_script(
      "join 10 10 20\n"
      "bogus 1 2\n"
      "leave 5\n"
      "code 99\n"
      "code x\n"
      "code 0 extra\n"
      "join 15 10 20\n");
  const std::vector<std::string> lines = lines_of(script.responses);
  ASSERT_EQ(lines.size(), 7u);
  EXPECT_EQ(lines[1], "err line=2 unknown verb 'bogus'");
  EXPECT_EQ(lines[2], "err line=3 node has not joined yet");
  EXPECT_EQ(lines[3], "err line=4 code: node has not joined yet");
  EXPECT_EQ(lines[4], "err line=5 code: missing/invalid node");
  EXPECT_EQ(lines[5], "err line=6 code: trailing tokens");
  // The session survived five errors and served the final join.
  EXPECT_EQ(lines[6], "ok 2 join node=1 recoded=1 maxc=2 live=2 fallback=0");
  EXPECT_EQ(script.stats.errors, 5u);
  EXPECT_EQ(script.stats.events, 2u);
}

TEST(ServeSession, QuitEndsTheSessionEarly) {
  const Script script = run_script(
      "join 10 10 20\n"
      "quit\n"
      "join 15 10 20\n");  // never read
  const std::vector<std::string> lines = lines_of(script.responses);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[1], "bye");
  EXPECT_EQ(script.stats.events, 1u);
  EXPECT_EQ(script.stats.lines, 2u);
}

TEST(ServeSession, QuietModeIngestsWithoutResponses) {
  const Script script = run_script(
      "join 10 10 20\n"
      "join 15 10 20\n"
      "stats\n",
      /*echo=*/false);
  EXPECT_TRUE(script.responses.empty());
  EXPECT_EQ(script.stats.events, 2u);
  EXPECT_EQ(script.stats.queries, 1u);
}

TEST(ServeSession, PipelinedAndMaxBatchOneTranscriptsAreByteIdentical) {
  // The pipelined session coalesces a piped burst into engine batches but
  // must answer byte-for-byte like the line-at-a-time session (max_batch 1)
  // for a strategy on the exact per-event path.
  const std::string input =
      "join 10 10 20\n"
      "join 15 10 20\n"
      "stats\n"
      "leave 0\n"
      "bogus\n"
      "code 1\n"
      "join 30 30 10\n";
  const auto run = [&input](std::size_t max_batch) {
    std::istringstream in(input);
    std::ostringstream out;
    StreamTransport transport(in, out, "test");
    AssignmentEngine engine{std::string("minim")};
    SessionOptions options;
    options.max_batch = max_batch;
    Script script;
    script.stats = serve_session(engine, transport, options);
    script.responses = out.str();
    return script;
  };
  const Script pipelined = run(SessionOptions{}.max_batch);
  const Script line_at_a_time = run(1);
  EXPECT_EQ(pipelined.responses, line_at_a_time.responses);
  EXPECT_EQ(pipelined.stats.events, line_at_a_time.stats.events);
  EXPECT_EQ(pipelined.stats.queries, line_at_a_time.stats.queries);
  EXPECT_EQ(pipelined.stats.errors, line_at_a_time.stats.errors);
  // Queries and the error split the events into separate batches, but the
  // pipelined run still needs fewer engine calls than one per event.
  EXPECT_LE(pipelined.stats.batches, pipelined.stats.events);
  EXPECT_EQ(line_at_a_time.stats.batches, line_at_a_time.stats.events);
  EXPECT_EQ(line_at_a_time.stats.coalesced_events, 0u);
}

TEST(ServeSession, PipelinedBurstCoalescesForBatchCapableStrategies) {
  std::istringstream in(
      "join 10 10 20\n"
      "join 15 10 20\n"
      "join 20 10 20\n"
      "join 80 80 5\n");
  std::ostringstream out;
  StreamTransport transport(in, out, "test");
  AssignmentEngine engine{std::string("bbb")};
  const SessionStats stats = serve_session(engine, transport, {});

  EXPECT_EQ(stats.events, 4u);
  EXPECT_EQ(stats.batches, 1u) << "a piped burst must land as one batch";
  EXPECT_EQ(stats.coalesced_events, 4u);
  const std::vector<std::string> lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 4u);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    // Coalesced receipts carry the batch marker and post-batch population.
    EXPECT_NE(lines[i].find(" batch=4"), std::string::npos) << lines[i];
    EXPECT_NE(lines[i].find(" live=4"), std::string::npos) << lines[i];
    EXPECT_EQ(lines[i].substr(0, 5), "ok " + std::to_string(i + 1) + " ");
  }
}

TEST(ServeSession, MaxBatchOneKeepsExactReceipts) {
  std::istringstream in(
      "join 10 10 20\n"
      "join 15 10 20\n"
      "join 20 10 20\n");
  std::ostringstream out;
  StreamTransport transport(in, out, "test");
  AssignmentEngine engine{std::string("bbb")};
  SessionOptions options;
  options.max_batch = 1;
  const SessionStats stats = serve_session(engine, transport, options);

  EXPECT_EQ(stats.batches, 3u);
  EXPECT_EQ(stats.coalesced_events, 0u);
  for (const std::string& line : lines_of(out.str()))
    EXPECT_EQ(line.find(" batch="), std::string::npos) << line;
}

TEST(ServeSession, UnterminatedFinalLineIsABurstOfItsOwn) {
  // The final line has no newline, so it may still be growing when the
  // first burst is drained: it waits for end of input and answers as a
  // burst of one.  Under bbb-bounded the first two joins coalesce and the
  // third answers exact.
  std::istringstream in(
      "join 10 10 20\n"
      "join 15 10 20\n"
      "join 20 10 20");
  std::ostringstream out;
  StreamTransport transport(in, out, "test");
  AssignmentEngine engine{std::string("bbb-bounded")};
  const SessionStats stats = serve_session(engine, transport, {});

  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.coalesced_events, 2u);
  EXPECT_EQ(lines_of(out.str()),
            (std::vector<std::string>{
                "ok 1 join node=0 recoded=2 maxc=2 live=2 fallback=1 batch=2",
                "ok 2 join node=1 recoded=2 maxc=2 live=2 fallback=1 batch=2",
                "ok 3 join node=2 recoded=1 maxc=3 live=3 fallback=1"}));
}

TEST(ServeSession, QueriesLeaveEventNumberingAlone) {
  // Receipts number events, not lines: queries interleaved between events
  // must not advance seq, while error line numbers still track the stream.
  const Script script = run_script(
      "join 10 10 20\n"
      "stats\n"
      "code 0\n"
      "join 15 10 20\n"
      "leave 9\n");
  const std::vector<std::string> lines = lines_of(script.responses);
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(lines[3].substr(0, 4), "ok 2");
  EXPECT_EQ(lines[4], "err line=5 node has not joined yet");
}

}  // namespace
}  // namespace minim::serve
