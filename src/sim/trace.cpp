#include "sim/trace.hpp"

#include <sstream>

#include "sim/simulation.hpp"
#include "util/require.hpp"

namespace minim::sim {

const char* to_string(TraceEvent::Kind kind) {
  switch (kind) {
    case TraceEvent::Kind::kJoin: return "join";
    case TraceEvent::Kind::kLeave: return "leave";
    case TraceEvent::Kind::kMove: return "move";
    case TraceEvent::Kind::kPower: return "power";
  }
  return "?";
}

std::string serialize_trace(const Trace& trace) {
  std::ostringstream os;
  os.precision(17);  // exact double round-trip
  for (const TraceEvent& event : trace) {
    switch (event.kind) {
      case TraceEvent::Kind::kJoin:
        os << "join " << event.position.x << " " << event.position.y << " "
           << event.range << "\n";
        break;
      case TraceEvent::Kind::kLeave:
        os << "leave " << event.node << "\n";
        break;
      case TraceEvent::Kind::kMove:
        os << "move " << event.node << " " << event.position.x << " "
           << event.position.y << "\n";
        break;
      case TraceEvent::Kind::kPower:
        os << "power " << event.node << " " << event.range << "\n";
        break;
    }
  }
  return os.str();
}

std::optional<TraceEvent> TraceLineParser::parse_line(std::string_view line) {
  return parse_line(line, line_number_ + 1);
}

std::optional<TraceEvent> TraceLineParser::parse_line(
    std::string_view line, std::size_t line_number) {
  // The counter advances even when the line turns out malformed: the line
  // was consumed, and the next error must not reuse its number.
  line_number_ = line_number;

  std::string text(line);
  const auto hash = text.find('#');
  if (hash != std::string::npos) text.erase(hash);
  std::istringstream fields(text);
  std::string verb;
  if (!(fields >> verb)) return std::nullopt;  // blank/comment line

  const auto fail = [line_number](const std::string& message) -> void {
    throw TraceParseError(line_number, message);
  };
  auto read_double = [&](const char* what) {
    double value;
    if (!(fields >> value)) fail(std::string("missing ") + what);
    return value;
  };
  auto read_node = [&]() {
    long long value;
    if (!(fields >> value) || value < 0) fail("missing/invalid node");
    const auto node = static_cast<std::size_t>(value);
    if (node >= joined_) fail("node has not joined yet");
    if (departed_[node]) fail("node already left");
    return node;
  };

  // Parse and validate the full line before committing any state, so a
  // throwing line leaves the parser exactly where it was.
  TraceEvent event;
  if (verb == "join") {
    event.kind = TraceEvent::Kind::kJoin;
    event.position.x = read_double("x");
    event.position.y = read_double("y");
    event.range = read_double("range");
    if (event.range < 0) fail("negative range");
  } else if (verb == "leave") {
    event.kind = TraceEvent::Kind::kLeave;
    event.node = read_node();
  } else if (verb == "move") {
    event.kind = TraceEvent::Kind::kMove;
    event.node = read_node();
    event.position.x = read_double("x");
    event.position.y = read_double("y");
  } else if (verb == "power") {
    event.kind = TraceEvent::Kind::kPower;
    event.node = read_node();
    event.range = read_double("range");
    if (event.range < 0) fail("negative range");
  } else {
    fail("unknown verb '" + verb + "'");
  }
  std::string trailing;
  if (fields >> trailing) fail("trailing tokens");

  if (event.kind == TraceEvent::Kind::kJoin) {
    ++joined_;
    departed_.push_back(0);
  } else if (event.kind == TraceEvent::Kind::kLeave) {
    departed_[event.node] = 1;
  }
  return event;
}

Trace parse_trace(const std::string& text) {
  Trace trace;
  TraceLineParser parser;
  std::istringstream input(text);
  std::string line;
  while (std::getline(input, line))
    if (const auto event = parser.parse_line(line)) trace.push_back(*event);
  return trace;
}

Trace trace_from_workload(const Workload& workload) {
  Trace trace;
  for (const auto& join : workload.joins) {
    TraceEvent event;
    event.kind = TraceEvent::Kind::kJoin;
    event.position = join.position;
    event.range = join.range;
    trace.push_back(event);
  }
  for (const auto& raise : workload.power_raises) {
    TraceEvent event;
    event.kind = TraceEvent::Kind::kPower;
    event.node = raise.join_index;
    event.range = raise.new_range;
    trace.push_back(event);
  }
  for (const auto& round : workload.move_rounds)
    for (const auto& mv : round) {
      TraceEvent event;
      event.kind = TraceEvent::Kind::kMove;
      event.node = mv.join_index;
      event.position = mv.position;
      trace.push_back(event);
    }
  return trace;
}

void apply_trace(const Trace& trace, Simulation& simulation) {
  std::vector<net::NodeId> by_join_order;
  for (const TraceEvent& event : trace) {
    switch (event.kind) {
      case TraceEvent::Kind::kJoin:
        by_join_order.push_back(
            simulation.join(net::NodeConfig{event.position, event.range}));
        break;
      case TraceEvent::Kind::kLeave:
        MINIM_REQUIRE(event.node < by_join_order.size(), "trace: unknown node");
        simulation.leave(by_join_order[event.node]);
        break;
      case TraceEvent::Kind::kMove:
        MINIM_REQUIRE(event.node < by_join_order.size(), "trace: unknown node");
        simulation.move(by_join_order[event.node], event.position);
        break;
      case TraceEvent::Kind::kPower:
        MINIM_REQUIRE(event.node < by_join_order.size(), "trace: unknown node");
        simulation.change_power(by_join_order[event.node], event.range);
        break;
    }
  }
}

}  // namespace minim::sim
