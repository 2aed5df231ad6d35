#pragma once

#include <cstddef>
#include <string>

#include "serve/engine.hpp"
#include "serve/transport.hpp"

/// \file session.hpp
/// \brief The serving line protocol: trace grammar in, one receipt out.
///
/// A session reads request lines from a transport and answers each event or
/// query with exactly one response line.  Requests are the `sim/trace`
/// grammar (join/leave/move/power — parsed by the same `TraceLineParser`
/// as batch ingestion, so validation and error text are identical) plus
/// read-side queries:
///
///   code <node>        -> code node=<n> color=<c>
///   conflicts <node>   -> conflicts node=<n> count=<k> partners=<a>,<b>,...
///   stats              -> stats live=.. joined=.. maxc=.. colors=..
///                               events=.. recodings=..
///   quit               -> bye (and the session ends)
///
/// Events answer with a receipt line:
///
///   ok <seq> <verb> node=<n> recoded=<k> maxc=<c> live=<l> fallback=<0|1>
///
/// Malformed lines answer `err line=<n> <reason>` and the session keeps
/// serving — a live network does not go down because one client sent a
/// typo.  Latency is deliberately absent from receipt lines (they would
/// never diff against a golden transcript); it lives in the engine's
/// histograms and the `stats`-side summaries.
///
/// Blank and `#`-comment lines get no response, so a recorded trace file
/// replays through a session unmodified: `cdma_drive --serve < file`.
///
/// ## Pipelining
///
/// By default the session is pipelined: after each blocking read it drains
/// every request line the client already sent (`Transport::read_available`)
/// into one burst, coalesces consecutive events into one
/// `AssignmentEngine::apply_batch` call, answers every request in order,
/// and flushes the transport ONCE per burst.  Responses are byte-identical
/// per line to the line-at-a-time session for strategies on the exact
/// per-event path; a coalesced multi-event repair marks its receipts with a
/// trailing ` batch=<k>`.  Queries, parse errors, and `quit` are batch
/// boundaries — they apply everything pending first, so a query always sees
/// the state of every request before it.  `max_batch = 1` restores the
/// pre-pipelining behavior: one request applied and one flush per line.

namespace minim::serve {

struct SessionOptions {
  /// Write a response line per event/query.  Off = ingest-only (benches
  /// that measure engine latency without protocol formatting).
  bool echo = true;
  /// Most events coalesced into one engine batch (≥ 1).  1 reads no
  /// lookahead: each request line is applied and flushed on its own.
  std::size_t max_batch = 512;
};

struct SessionStats {
  std::size_t lines = 0;    ///< request lines consumed (incl. blank/comment)
  std::size_t events = 0;   ///< reconfiguration events applied
  std::size_t queries = 0;  ///< read-side queries answered
  std::size_t errors = 0;   ///< err responses written
  std::size_t batches = 0;  ///< engine batch applications (≥ 1 event each)
  /// Events that went through a coalesced (single-repair) batch.
  std::size_t coalesced_events = 0;
};

/// The receipt line (the protocol's `ok` response) for outcome `index` of
/// a batch.  A coalesced outcome carries a trailing ` batch=<events>`
/// marker; an exact one does not.
std::string format_receipt(const BatchReceipt& receipt, std::size_t index);

/// Serves `transport` until end of input or `quit`.  Returns what happened.
SessionStats serve_session(AssignmentEngine& engine, Transport& transport,
                           const SessionOptions& options = {});

}  // namespace minim::serve
