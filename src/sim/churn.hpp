#pragma once

#include <cstdint>
#include <vector>

#include "core/strategy.hpp"
#include "net/assignment.hpp"
#include "sim/simulation.hpp"
#include "sim/workload.hpp"
#include "util/rng.hpp"

/// \file churn.hpp
/// \brief Continuous-time churn: the "long sequence of events" of Section 5.
///
/// The paper's sweeps stage events in phases (all joins, then all raises,
/// then movement rounds).  This engine instead runs an open ad-hoc network
/// in continuous time, the regime the introduction motivates:
///   * nodes arrive as a Poisson process and stay an exponential lifetime;
///   * each node moves at exponential intervals by a bounded random
///     displacement (random-waypoint-style jumps);
///   * each node duty-cycles its transmitter at exponential intervals,
///     alternating between a power-save range and its full range.
/// Events are totally ordered by a (time, sequence) key, matching the
/// paper's sequenced-reconfigurations assumption; the strategy under test
/// repairs the assignment after each one.
///
/// The engine samples the two paper metrics on a fixed grid so steady-state
/// behaviour (not just end-state) is visible.

namespace minim::sim {

struct ChurnParams {
  double duration = 1000.0;        ///< simulated time horizon
  double arrival_rate = 0.25;      ///< Poisson joins per time unit
  double mean_lifetime = 240.0;    ///< exponential node lifetime
  double move_rate = 0.02;         ///< per-node movement events per time unit
  double power_rate = 0.01;        ///< per-node power toggles per time unit
  double max_displacement = 30.0;  ///< movement jump bound
  double power_save_factor = 0.6;  ///< range multiplier in power-save state
  double min_range = 20.5;
  double max_range = 30.5;
  double width = 100.0;
  double height = 100.0;
  double sample_interval = 50.0;   ///< metric sampling grid
  std::size_t max_nodes = 400;     ///< hard cap (arrivals beyond it are dropped)
  bool validate = false;           ///< CA1/CA2 check after every event

  /// Pre-populates the network before time 0: `initial_nodes` joins placed
  /// by `make_join_workload` (ranges/field from this struct, placement from
  /// the initial_* knobs), each seeded node then drawing the same
  /// lifetime/move/power schedules as an arrival.  This is how the large-N
  /// benches run leave/move/power churn *on* a 10⁴–10⁵-node network instead
  /// of waiting for arrivals to build one.  0 = start empty; the default
  /// path consumes exactly the rng draws it always did.
  std::size_t initial_nodes = 0;
  Placement initial_placement = Placement::kUniform;
  std::size_t initial_cluster_count = 8;   ///< kClustered parents
  double initial_cluster_sigma = 6.0;      ///< kClustered offspring spread
  double initial_min_separation = 0.0;     ///< kPoissonDisk spacing (0 = auto)
};

/// One point of the sampled time series.
struct ChurnSample {
  double time = 0.0;
  std::size_t nodes = 0;
  net::Color max_color = net::kNoColor;
  std::size_t cumulative_recodings = 0;
};

struct ChurnResult {
  std::vector<ChurnSample> samples;
  Totals totals;                ///< event/recoding totals from the engine
  std::size_t peak_nodes = 0;
  std::size_t dropped_arrivals = 0;  ///< arrivals rejected by the cap
  net::Color final_max_color = net::kNoColor;  ///< max color at the horizon
  bool final_valid = false;     ///< CA1/CA2 validity at the horizon
};

/// Throws std::invalid_argument unless `run_churn` can run `params`: the
/// duration and sample interval finite and above 0, the arrival, move and
/// power rates finite and not negative (0 means "never"; an infinite rate
/// would repeat its event at one instant forever), and min_range <=
/// max_range.
void check_churn_params(const ChurnParams& params);

/// Runs one churn simulation under `strategy` (`check_churn_params` first).
/// Deterministic given `rng`.
ChurnResult run_churn(const ChurnParams& params, core::RecodingStrategy& strategy,
                      util::Rng& rng);

}  // namespace minim::sim
