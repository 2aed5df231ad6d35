#pragma once

/// \file event_fuzz.hpp
/// \brief Differential event-sequence fuzzing for incremental recoloring.
///
/// Three pieces, shared by the bounded-BBB fuzz soak (and reusable by any
/// strategy-equivalence test), plus `to_trace` for the batched-engine soaks:
///
///   * `generate_events` — a seeded random event-sequence generator
///     (join/leave/move/power) over uniform, clustered, or Poisson-disk
///     placements, with optional adversarial "recolor storm" bursts that
///     hammer one node's range up and down to maximize witness churn;
///   * `replay_events` — a deterministic replayer that applies a sequence to
///     a fresh network and hands each applied event to a caller-supplied
///     property check;
///   * `shrink_events` — a delta-debugging (ddmin-style) chunk-removal
///     shrinker that reduces a failing sequence to a 1-minimal repro, plus
///     `format_repro`/`parse_repro` so the minimal sequence round-trips
///     through the test log as replayable text.
///
/// Events are self-contained values (no pointers into the generator), so a
/// subsequence of a valid sequence is always itself replayable: victims are
/// selected as `live[pick % live.size()]`, which stays well-defined no
/// matter which events the shrinker removed.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iomanip>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"

namespace minim::test {

enum class FuzzKind : std::uint8_t { kJoin, kLeave, kMove, kPower };

/// One self-contained network event.  `pick` is a raw 64-bit selector; the
/// victim of leave/move/power is `live[pick % live.size()]` at replay time.
struct FuzzEvent {
  FuzzKind kind = FuzzKind::kJoin;
  double x = 0.0;            ///< join/move position
  double y = 0.0;
  double range = 0.0;        ///< join/power transmission range
  std::uint64_t pick = 0;    ///< leave/move/power victim selector
};

enum class FuzzPlacement : std::uint8_t { kUniform, kClustered, kPoissonDisk };

inline const char* to_string(FuzzPlacement p) {
  switch (p) {
    case FuzzPlacement::kUniform: return "uniform";
    case FuzzPlacement::kClustered: return "clustered";
    case FuzzPlacement::kPoissonDisk: return "poisson-disk";
  }
  return "?";
}

struct FuzzConfig {
  std::uint64_t seed = 1;
  std::size_t events = 10000;
  FuzzPlacement placement = FuzzPlacement::kUniform;
  double world = 100.0;          ///< square side; positions in [0, world)
  double min_range = 8.0;
  double max_range = 30.0;
  std::size_t target_live = 120; ///< population the join/leave mix steers toward
  double storm_chance = 0.002;   ///< per-event chance to start a recolor storm
};

/// Generates `cfg.events` events.  The generator mirrors the replay's live
/// list (same pick-selection and erase semantics) so placements can react to
/// the population — Poisson-disk rejection against current positions, storm
/// moves jittering around the victim's actual location.
inline std::vector<FuzzEvent> generate_events(const FuzzConfig& cfg) {
  util::Rng rng(cfg.seed);
  std::vector<FuzzEvent> out;
  out.reserve(cfg.events);
  std::vector<std::pair<double, double>> live;  // mirror of replay positions

  std::vector<std::pair<double, double>> centers;
  for (int i = 0; i < 5; ++i)
    centers.emplace_back(rng.uniform(0, cfg.world), rng.uniform(0, cfg.world));

  const auto clamp = [&cfg](double t) {
    return std::clamp(t, 0.0, std::nextafter(cfg.world, 0.0));
  };
  const auto place = [&]() -> std::pair<double, double> {
    switch (cfg.placement) {
      case FuzzPlacement::kUniform:
        break;
      case FuzzPlacement::kClustered: {
        const auto& [cx, cy] = centers[rng.below(centers.size())];
        return {clamp(cx + rng.normal() * cfg.world * 0.06),
                clamp(cy + rng.normal() * cfg.world * 0.06)};
      }
      case FuzzPlacement::kPoissonDisk: {
        // Dart throwing against the current population; falls back to a
        // uniform dart when the domain is saturated.
        const double r =
            0.7 * cfg.world /
            std::sqrt(static_cast<double>(cfg.target_live) + 1.0);
        for (int attempt = 0; attempt < 30; ++attempt) {
          const double px = rng.uniform(0, cfg.world);
          const double py = rng.uniform(0, cfg.world);
          bool clear = true;
          for (const auto& [qx, qy] : live) {
            const double dx = px - qx;
            const double dy = py - qy;
            if (dx * dx + dy * dy < r * r) {
              clear = false;
              break;
            }
          }
          if (clear) return {px, py};
        }
        break;
      }
    }
    return {rng.uniform(0, cfg.world), rng.uniform(0, cfg.world)};
  };

  std::size_t storm_left = 0;
  std::uint64_t storm_pick = 0;
  bool storm_high = false;

  while (out.size() < cfg.events) {
    FuzzEvent e;
    if (storm_left > 0 && !live.empty()) {
      // Storm: hammer one victim's range between extremes, with occasional
      // small moves — maximal witness add/retract churn around one node.
      --storm_left;
      e.pick = storm_pick;
      const std::size_t index = e.pick % live.size();
      if (rng.chance(0.25)) {
        e.kind = FuzzKind::kMove;
        e.x = clamp(live[index].first + rng.normal() * cfg.world * 0.01);
        e.y = clamp(live[index].second + rng.normal() * cfg.world * 0.01);
        live[index] = {e.x, e.y};
      } else {
        e.kind = FuzzKind::kPower;
        storm_high = !storm_high;
        e.range = storm_high ? cfg.max_range : cfg.min_range;
      }
      out.push_back(e);
      continue;
    }
    if (!live.empty() && rng.chance(cfg.storm_chance)) {
      storm_left = 8 + rng.below(17);
      storm_pick = rng();
      storm_high = false;
      continue;
    }

    const double roll = rng.uniform01();
    const bool under = live.size() < cfg.target_live;
    const double p_join = live.size() < 5 ? 1.0 : (under ? 0.40 : 0.20);
    const double p_leave = p_join + (under ? 0.12 : 0.32);
    if (roll < p_join) {
      e.kind = FuzzKind::kJoin;
      std::tie(e.x, e.y) = place();
      e.range = rng.uniform(cfg.min_range, cfg.max_range);
      live.emplace_back(e.x, e.y);
    } else if (roll < p_leave) {
      e.kind = FuzzKind::kLeave;
      e.pick = rng();
      live.erase(live.begin() +
                 static_cast<std::ptrdiff_t>(e.pick % live.size()));
    } else if (roll < p_leave + 0.18) {
      e.kind = FuzzKind::kMove;
      e.pick = rng();
      std::tie(e.x, e.y) = place();
      live[e.pick % live.size()] = {e.x, e.y};
    } else {
      e.kind = FuzzKind::kPower;
      e.pick = rng();
      e.range = rng.uniform(cfg.min_range, cfg.max_range);
    }
    out.push_back(e);
  }
  return out;
}

/// What `replay_events` just applied to the network.
struct AppliedEvent {
  FuzzKind kind = FuzzKind::kJoin;
  net::NodeId subject = net::kInvalidNode;
  double old_range = 0.0;  ///< power events: the pre-event range
};

inline constexpr std::size_t kFuzzPassed = static_cast<std::size_t>(-1);

/// Replays `events` against a fresh network.  After each network mutation,
/// `on_event(net, applied, index)` runs the caller's property; returning
/// false aborts the replay.  A leave removes the node from the network
/// before the callback (the engine's event order); the callback clears any
/// per-assignment state itself.  Returns the index of the first event whose
/// callback returned false, or `kFuzzPassed`.
template <typename OnEvent>
std::size_t replay_events(const FuzzConfig& cfg,
                          std::span<const FuzzEvent> events,
                          OnEvent&& on_event) {
  net::AdhocNetwork net{cfg.world, cfg.world};
  std::vector<net::NodeId> live;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FuzzEvent& e = events[i];
    AppliedEvent applied;
    applied.kind = e.kind;
    if (e.kind == FuzzKind::kJoin) {
      applied.subject = net.add_node({{e.x, e.y}, e.range});
      live.push_back(applied.subject);
    } else {
      if (live.empty()) continue;  // shrunk-away joins: victim events no-op
      const std::size_t index =
          static_cast<std::size_t>(e.pick % live.size());
      applied.subject = live[index];
      switch (e.kind) {
        case FuzzKind::kLeave:
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(index));
          net.remove_node(applied.subject);
          break;
        case FuzzKind::kMove:
          net.set_position(applied.subject, {e.x, e.y});
          break;
        case FuzzKind::kPower:
          applied.old_range = net.config(applied.subject).range;
          net.set_range(applied.subject, e.range);
          break;
        case FuzzKind::kJoin:
          break;  // unreachable
      }
    }
    if (!on_event(net, applied, i)) return i;
  }
  return kFuzzPassed;
}

/// Converts fuzz events to join-order-named trace events for the batched
/// engine, with the exact live-list semantics of `replay_events`: victims
/// resolve as `live[pick % live.size()]`, leaves erase, joins append the
/// next index.  Subsequences stay replayable, which is what lets the
/// shrinker drop arbitrary chunks.
inline sim::Trace to_trace(std::span<const FuzzEvent> events) {
  sim::Trace trace;
  trace.reserve(events.size());
  std::vector<std::size_t> live;  // join indices of live nodes
  std::size_t joined = 0;
  for (const FuzzEvent& e : events) {
    sim::TraceEvent t;
    if (e.kind == FuzzKind::kJoin) {
      t.kind = sim::TraceEvent::Kind::kJoin;
      t.position = {e.x, e.y};
      t.range = e.range;
      live.push_back(joined++);
    } else {
      if (live.empty()) continue;
      const std::size_t index = static_cast<std::size_t>(e.pick % live.size());
      t.node = live[index];
      switch (e.kind) {
        case FuzzKind::kLeave:
          t.kind = sim::TraceEvent::Kind::kLeave;
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(index));
          break;
        case FuzzKind::kMove:
          t.kind = sim::TraceEvent::Kind::kMove;
          t.position = {e.x, e.y};
          break;
        case FuzzKind::kPower:
          t.kind = sim::TraceEvent::Kind::kPower;
          t.range = e.range;
          break;
        case FuzzKind::kJoin:
          break;  // unreachable
      }
    }
    trace.push_back(t);
  }
  return trace;
}

struct ShrinkResult {
  std::vector<FuzzEvent> events;
  std::size_t replays = 0;
  /// True when the result is 1-minimal: removing any single remaining event
  /// makes the sequence pass.  False only when `max_replays` ran out first.
  bool minimal = false;
};

/// Delta-debugging shrink: repeatedly removes chunks (halving the chunk size
/// down to single events) while `fails` keeps returning true, capped at
/// `max_replays` replays.  `fails(events)` must be deterministic.
inline ShrinkResult shrink_events(
    std::vector<FuzzEvent> events,
    const std::function<bool(std::span<const FuzzEvent>)>& fails,
    std::size_t max_replays = 400) {
  ShrinkResult result;
  bool clean_final_sweep = false;
  for (std::size_t chunk = std::max<std::size_t>(1, events.size() / 2);
       chunk >= 1; chunk /= 2) {
    bool progress = true;
    while (progress && result.replays < max_replays) {
      progress = false;
      for (std::size_t start = 0;
           start < events.size() && result.replays < max_replays;) {
        const std::size_t end = std::min(events.size(), start + chunk);
        std::vector<FuzzEvent> candidate;
        candidate.reserve(events.size() - (end - start));
        candidate.insert(candidate.end(), events.begin(),
                         events.begin() + static_cast<std::ptrdiff_t>(start));
        candidate.insert(candidate.end(),
                         events.begin() + static_cast<std::ptrdiff_t>(end),
                         events.end());
        ++result.replays;
        if (fails(candidate)) {
          events = std::move(candidate);
          progress = true;  // keep start: the next chunk slid into place
        } else {
          start = end;
        }
      }
      if (chunk == 1 && !progress) clean_final_sweep = true;
    }
    if (chunk == 1) break;
  }
  result.minimal = clean_final_sweep && result.replays < max_replays;
  result.events = std::move(events);
  return result;
}

/// Renders a failing sequence as replayable text: a header line with the
/// generating config, then one line per event.  `parse_repro` inverts it.
inline std::string format_repro(const FuzzConfig& cfg,
                                std::span<const FuzzEvent> events) {
  std::ostringstream out;
  out << std::setprecision(17);
  out << "# fuzz-repro seed=" << cfg.seed
      << " placement=" << to_string(cfg.placement)
      << " world=" << cfg.world << " events=" << events.size() << "\n";
  for (const FuzzEvent& e : events) {
    switch (e.kind) {
      case FuzzKind::kJoin:
        out << "J " << e.x << ' ' << e.y << ' ' << e.range << "\n";
        break;
      case FuzzKind::kLeave:
        out << "L " << e.pick << "\n";
        break;
      case FuzzKind::kMove:
        out << "M " << e.pick << ' ' << e.x << ' ' << e.y << "\n";
        break;
      case FuzzKind::kPower:
        out << "P " << e.pick << ' ' << e.range << "\n";
        break;
    }
  }
  return out.str();
}

/// Parses `format_repro` output (header and blank lines ignored) back into
/// an event sequence, so a logged minimal repro can be pasted into a test.
inline std::vector<FuzzEvent> parse_repro(const std::string& text) {
  std::vector<FuzzEvent> events;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    char tag = 0;
    fields >> tag;
    FuzzEvent e;
    switch (tag) {
      case 'J':
        e.kind = FuzzKind::kJoin;
        fields >> e.x >> e.y >> e.range;
        break;
      case 'L':
        e.kind = FuzzKind::kLeave;
        fields >> e.pick;
        break;
      case 'M':
        e.kind = FuzzKind::kMove;
        fields >> e.pick >> e.x >> e.y;
        break;
      case 'P':
        e.kind = FuzzKind::kPower;
        fields >> e.pick >> e.range;
        break;
      default:
        continue;  // unknown tag: skip
    }
    if (fields.fail()) continue;
    events.push_back(e);
  }
  return events;
}

}  // namespace minim::test
