#pragma once

#include <cstdint>
#include <string>
#include <vector>

/// \file workload.hpp
/// \brief Seeded request-stream generators for the serving benchmark.
///
/// A workload is a complete serving session rendered as request lines of
/// the line protocol (serve/session.hpp), grouped into bursts the client
/// sends with one write each.  Streams are generated from the seed alone,
/// before any clock starts, and the engine only ever sees the text.
///
/// Every workload uses the occupancy-biased join/leave/move/power mix of
/// `bench_serve_latency` plus 3x range raises at that benchmark's rate: its
/// default study serves 200 raise/restore storm rounds per 20000 steady
/// events, one raise per 100 events.  Here a raise stays in effect for the
/// same 100 events and is then restored, so, as in that storm phase, about
/// one raise is in effect at a time.  A raised node that leaves (or gets an
/// ordinary power tweak) before its restore is due has the restore dropped,
/// so no request ever references a departed node.  The mix's draws are
/// stratified (see `Strata` in workload.cpp), so every seed gets nearly the
/// same proportions of each event kind.

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  std::size_t population = 0;  ///< live nodes the ramp joins and churn holds
  double width = 100.0;
  double height = 100.0;
  double min_range = 10.0;     ///< joins and power tweaks draw uniformly
  double max_range = 25.0;
  std::size_t burst = 8;       ///< events per measured burst
  std::size_t stream_bursts = 0;  ///< measured bursts per session
};

inline constexpr std::size_t kRaiseEvery = 100;  ///< events between 3x raises
inline constexpr std::size_t kRaiseHold = 100;   ///< events a raise stays in effect

/// `dense-churn` or `sparse-churn`; throws std::invalid_argument for any
/// other name.
WorkloadSpec workload_spec(const std::string& name);
const std::vector<std::string>& workload_names();

/// Request lines sent with a single write: either all events (the ramp's
/// joins, the measured churn) or a lone `stats` / `stats` + `quit`.
struct Burst {
  std::string text;  ///< newline-terminated request lines
  std::size_t requests = 0;
  std::size_t events = 0;  ///< 0 or `requests`; a coalescing engine reports
                           ///< `batch=<events>` on each receipt
};

/// One session's requests.
struct Stream {
  double width = 0.0;           ///< the field the engine must be built with
  double height = 0.0;
  std::vector<Burst> setup;     ///< ramp joins in bursts of 64, then `stats`
  std::vector<Burst> measured;  ///< the timed bursts
  std::vector<Burst> tail;      ///< `stats` + `quit`
  std::size_t final_live = 0;   ///< the generator's live count at the end
  std::size_t measured_events = 0;
  std::size_t measured_requests = 0;
  std::size_t raises = 0;
  std::size_t restores = 0;
  std::size_t skipped_restores = 0;  ///< raised node left or was re-tweaked

  std::size_t total_requests() const;
};

Stream generate_stream(const WorkloadSpec& spec, std::uint64_t seed);

}  // namespace perfbench
