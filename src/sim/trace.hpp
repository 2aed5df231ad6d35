#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "sim/workload.hpp"

/// \file trace.hpp
/// \brief Plain-text event traces: record, share and replay exact scenarios.
///
/// A trace is the full reconfiguration history of a network as a line-based
/// text document — the artifact you attach to a bug report or a paper
/// appendix.  Nodes are named by their join order (0-based), independent of
/// internal id reuse, so a trace is meaningful without the engine state.
///
/// Grammar (one event per line; `#` starts a comment; blank lines ignored):
///   join <x> <y> <range>
///   leave <node>
///   move <node> <x> <y>
///   power <node> <range>
///
/// The same grammar is the request language of the serving layer
/// (serve/session.hpp): a long-lived session feeds request lines through a
/// `TraceLineParser` one at a time, so online ingestion and batch
/// `parse_trace` share a single validation path.

namespace minim::sim {

class Simulation;  // sim/simulation.hpp

struct TraceEvent {
  enum class Kind : std::uint8_t { kJoin, kLeave, kMove, kPower };

  Kind kind = Kind::kJoin;
  std::size_t node = 0;      ///< join-order index (ignored for kJoin)
  util::Vec2 position{};     ///< kJoin / kMove
  double range = 0.0;        ///< kJoin / kPower
};

using Trace = std::vector<TraceEvent>;

/// Spelled-out verb of the trace grammar ("join", "leave", "move", "power").
const char* to_string(TraceEvent::Kind kind);

/// Malformed trace input: carries the 1-based line number and the bare
/// reason alongside the formatted "trace line <n>: <reason>" message, so a
/// serving session can render a clean protocol error without re-parsing the
/// exception text.  Derives from std::invalid_argument (the historical
/// contract of `parse_trace`).
class TraceParseError : public std::invalid_argument {
 public:
  TraceParseError(std::size_t line, const std::string& reason)
      : std::invalid_argument("trace line " + std::to_string(line) + ": " +
                              reason),
        line_(line),
        reason_(reason) {}

  std::size_t line() const { return line_; }
  const std::string& reason() const { return reason_; }

 private:
  std::size_t line_;
  std::string reason_;
};

/// Incremental line-at-a-time parser for the trace grammar.  It carries the
/// document state across calls — line numbers, the join count, which nodes
/// have departed — which is exactly the state a long-lived serving session
/// needs to validate each incoming request against everything it has
/// already applied.  `parse_trace` is a loop over it.
///
/// A line is parsed all-or-nothing: when `parse_line` throws, the parser's
/// state is untouched, so a session can report the error and keep serving
/// subsequent lines (only the line counter advances — the line was
/// consumed either way).
class TraceLineParser {
 public:
  /// Parses one line (comments stripped; blank lines yield nullopt).
  /// Throws TraceParseError on malformed input or references to nodes that
  /// have not joined or have already left.
  std::optional<TraceEvent> parse_line(std::string_view line);

  /// As above with an explicit 1-based line number — for callers whose
  /// streams interleave non-trace lines (the serving session's queries), so
  /// error messages still point at the real position in the input.
  std::optional<TraceEvent> parse_line(std::string_view line,
                                       std::size_t line_number);

  /// 1-based number of the last line consumed (0 before the first).
  std::size_t line_number() const { return line_number_; }
  /// Nodes joined so far; join-order indices are [0, joined()).
  std::size_t joined() const { return joined_; }
  /// True when `node` has joined and not yet left.
  bool is_live(std::size_t node) const {
    return node < joined_ && !departed_[node];
  }

 private:
  std::size_t line_number_ = 0;
  std::size_t joined_ = 0;
  std::vector<char> departed_;  // by join index
};

/// Renders `trace` in the text format above (stable round-trip).
std::string serialize_trace(const Trace& trace);

/// Parses the text format; throws TraceParseError (a std::invalid_argument)
/// with a line number on malformed input or references to nodes that have
/// not joined/already left.
Trace parse_trace(const std::string& text);

/// Converts a phased workload into the equivalent flat trace.
Trace trace_from_workload(const Workload& workload);

/// Applies `trace` to a fresh simulation run by `strategy`; returns the
/// engine for inspection.  Throws on references to departed nodes.
void apply_trace(const Trace& trace, Simulation& simulation);

}  // namespace minim::sim
