#include "serve/session.hpp"

#include <exception>
#include <optional>
#include <sstream>
#include <vector>

#include "sim/trace.hpp"

namespace minim::serve {

namespace {

/// First whitespace-delimited token of `line` with comments stripped;
/// empty for blank/comment lines.
std::string first_token(const std::string& line) {
  std::string text = line;
  const std::size_t hash = text.find('#');
  if (hash != std::string::npos) text.erase(hash);
  std::istringstream fields(text);
  std::string token;
  fields >> token;
  return token;
}

/// Parses the single `<node>` argument of a query; nullopt (with `reason`
/// set) on missing/invalid/trailing input or a dead node.
std::optional<std::size_t> query_node(const AssignmentEngine& engine,
                                      const std::string& line,
                                      const std::string& verb,
                                      std::string& reason) {
  std::string text = line;
  const std::size_t hash = text.find('#');
  if (hash != std::string::npos) text.erase(hash);
  std::istringstream fields(text);
  std::string seen_verb;
  fields >> seen_verb;
  long long value = 0;
  if (!(fields >> value) || value < 0) {
    reason = verb + ": missing/invalid node";
    return std::nullopt;
  }
  std::string trailing;
  if (fields >> trailing) {
    reason = verb + ": trailing tokens";
    return std::nullopt;
  }
  const auto node = static_cast<std::size_t>(value);
  if (node >= engine.joined()) {
    reason = verb + ": node has not joined yet";
    return std::nullopt;
  }
  if (!engine.is_live(node)) {
    reason = verb + ": node already left";
    return std::nullopt;
  }
  return node;
}

}  // namespace

std::string format_receipt(const BatchReceipt& receipt, std::size_t index) {
  const sim::BatchEventOutcome& outcome = receipt.outcomes[index];
  std::ostringstream os;
  os << "ok " << receipt.first_seq + index << " "
     << sim::to_string(outcome.kind)
     << " node=" << outcome.node << " recoded=" << outcome.recoded
     << " maxc=" << outcome.max_color << " live=" << outcome.live_nodes
     << " fallback=" << (receipt.fallback ? 1 : 0);
  if (!outcome.exact) os << " batch=" << receipt.events;
  return os.str();
}

SessionStats serve_session(AssignmentEngine& engine, Transport& transport,
                           const SessionOptions& options) {
  sim::TraceLineParser parser;
  SessionStats stats;
  std::string line;
  std::vector<std::string> burst;
  std::vector<sim::TraceEvent> pending;       // parsed, not yet applied
  std::vector<std::size_t> pending_lines;     // their request line numbers
  bool done = false;

  const auto respond = [&](const std::string& response) {
    if (options.echo) transport.write_line(response);
  };
  const auto error_at = [&](std::size_t line_number,
                            const std::string& reason) {
    ++stats.errors;
    respond("err line=" + std::to_string(line_number) + " " + reason);
  };

  // Applies every pending event as one engine batch and answers each with
  // its receipt, in request order.  Called at every batch boundary: a
  // query/quit (which must see the preceding events applied), a parse error
  // (whose err line must follow the receipts of earlier requests), a full
  // batch, and the end of each burst.
  const auto flush_pending = [&] {
    if (pending.empty()) return;
    try {
      const BatchReceipt receipt = engine.apply_batch(pending);
      stats.events += receipt.events;
      ++stats.batches;
      if (receipt.coalesced) stats.coalesced_events += receipt.events;
      for (std::size_t i = 0; i < receipt.outcomes.size(); ++i)
        respond(format_receipt(receipt, i));
    } catch (const std::exception& unexpected) {
      // The parser pre-validates every reference with the same projection
      // the engine applies, so this is defense in depth: the engine
      // rejected the batch whole (state untouched) — answer every pending
      // request with the reason and keep serving.
      for (const std::size_t line_number : pending_lines)
        error_at(line_number, unexpected.what());
    }
    pending.clear();
    pending_lines.clear();
  };

  while (!done && transport.read_line(line)) {
    burst.clear();
    burst.push_back(line);
    if (options.max_batch > 1)
      transport.read_available(burst, options.max_batch - 1);

    for (const std::string& request : burst) {
      ++stats.lines;
      const std::string verb = first_token(request);

      if (verb == "quit") {
        ++stats.queries;
        flush_pending();
        respond("bye");
        done = true;
        break;  // drained-but-unprocessed lines die with the session
      }
      if (verb == "stats") {
        ++stats.queries;
        flush_pending();
        const AssignmentEngine::Summary s = engine.summary();
        std::ostringstream os;
        os << "stats live=" << s.live << " joined=" << s.joined
           << " maxc=" << s.max_color << " colors=" << s.distinct_colors
           << " events=" << s.events << " recodings=" << s.recodings;
        respond(os.str());
        continue;
      }
      if (verb == "code" || verb == "conflicts") {
        ++stats.queries;
        flush_pending();
        std::string reason;
        const auto node = query_node(engine, request, verb, reason);
        if (!node) {
          error_at(stats.lines, reason);
          continue;
        }
        if (verb == "code") {
          respond("code node=" + std::to_string(*node) +
                  " color=" + std::to_string(engine.code_of(*node)));
        } else {
          const std::vector<std::size_t> partners = engine.conflicts_of(*node);
          std::ostringstream os;
          os << "conflicts node=" << *node << " count=" << partners.size()
             << " partners=";
          if (partners.empty()) os << "-";
          for (std::size_t i = 0; i < partners.size(); ++i)
            os << (i ? "," : "") << partners[i];
          respond(os.str());
        }
        continue;
      }

      // Everything else is the trace grammar (or a reportable parse error).
      try {
        const std::optional<sim::TraceEvent> event =
            parser.parse_line(request, stats.lines);
        if (!event) continue;  // blank/comment: no response line
        pending.push_back(*event);
        pending_lines.push_back(stats.lines);
        if (pending.size() >= options.max_batch) flush_pending();
      } catch (const sim::TraceParseError& parse_error) {
        flush_pending();  // earlier requests answer before this line's err
        error_at(stats.lines, parse_error.reason());
      }
    }

    flush_pending();
    transport.flush();  // one delivery per burst (per line at max_batch 1)
  }
  return stats;
}

}  // namespace minim::serve
