#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/churn.hpp"
#include "sim/replay.hpp"
#include "sim/simulation.hpp"
#include "sim/workload.hpp"
#include "strategies/factory.hpp"
#include "util/stats.hpp"

/// \file experiment.hpp
/// \brief The unified deterministic experiment API: parameter grids x
/// scenario kinds x strategies, over `util::map_reduce`.
///
/// The paper's entire Section 5 evaluation is one shape — "average a metric
/// over 100 runs of randomly generated networks" — and the follow-on
/// Monte-Carlo literature (Meshkati et al., Baccelli et al.) runs the same
/// shape over parameter *grids*.  `Experiment` expresses all of it:
///
///  * an `ExperimentGrid` names the scenario (`ScenarioSpec`), the parameter
///    axes (each a named field of the spec; see `GridAxis`), and the
///    strategy list;
///  * each (grid point, trial) generates its workload **once** and replays
///    it across every strategy — the paired comparison the paper's plots
///    rely on, without per-strategy regeneration churn;
///  * trial i of point p draws all randomness from
///    `Rng::for_stream(seed, p * trials + i)`, and results reduce in item
///    order, so a report is bit-identical for any thread count;
///  * `trial_begin`/`trial_count` and `point_begin`/`point_count` run a
///    sub-rectangle of the (grid point x trial) space with the *global*
///    streams, so k processes can each run a slice — split by trial range,
///    by grid-point subset (axis-space sharding), or both — and
///    `merge_shards` reassembles a result bit-identical to one process
///    running everything (`bench_cdma_drive --shard=i/k`, then `--merge`).
///
/// Each of the paper's figures is a one-axis grid on this API (the figure
/// harnesses share their definitions in bench/bench_util.hpp), and
/// `bench_cdma_drive` runs any grid from the command line.

namespace minim::sim {

/// Which scenario shape each trial runs.
enum class ScenarioKind {
  kJoin,   ///< N consecutive joins (Fig 10's setup phase)
  kPower,  ///< joins, then half the nodes raise their range (Fig 11)
  kMove,   ///< joins, then movement rounds (Fig 12)
  kChurn,  ///< continuous-time open network (sim/churn.hpp)
};

/// Everything one trial needs besides its RNG stream.
struct ScenarioSpec {
  ScenarioKind kind = ScenarioKind::kJoin;
  WorkloadParams workload{};       ///< join/power/move scenarios
  double raise_factor = 2.0;       ///< kPower: range multiplier
  double max_displacement = 40.0;  ///< kMove: per-move displacement bound
  std::size_t move_rounds = 1;     ///< kMove: rounds of everyone-moves-once
  ChurnParams churn{};             ///< kChurn parameters
  bool validate = false;           ///< CA1/CA2 check after every event (slow)
};

/// Builds the phased workload for one trial of `spec` (kJoin/kPower/kMove;
/// throws std::logic_error for kChurn, which has no phased workload).
Workload make_scenario_workload(const ScenarioSpec& spec, util::Rng& rng);

/// One parameter axis of a grid: the spec field it sets, by name, and the
/// values to sweep.  The names (one table, in experiment.cpp):
///   n, min_range, max_range        `workload.n`, `.min_range`, `.max_range`
///   avg_range                      ranges x - 2.5 to x + 2.5 (Fig 10(d-f))
///   clusters, cluster_sigma        clustered placement's parents, spread
///   raise_factor                   kPower's range multiplier
///   max_displacement, move_rounds  kMove's displacement bound and rounds
///   churn_duration, arrival_rate, mean_lifetime: kChurn's parameters
/// `Experiment` throws std::invalid_argument on any other name, and when a
/// value of a count axis (`n`, `move_rounds`, `clusters`) is not a whole
/// number from 0 (from 1 for `clusters`) to 4,294,967,294.
struct GridAxis {
  std::string name;
  std::vector<double> values;
};

/// The full experiment description: {parameter axes x scenario x strategies}.
struct ExperimentGrid {
  ScenarioSpec base;          ///< every grid point starts from this spec
  std::vector<GridAxis> axes; ///< empty = a single grid point
  std::vector<std::string> strategies{"minim", "cp", "bbb"};
  strategies::StrategyFactory strategy_factory;  ///< empty = `make_strategy`
};

struct ExperimentOptions {
  std::size_t trials = 100;   ///< TOTAL trials per grid point (across shards)
  std::uint64_t seed = 2001;  ///< master seed; (point, trial) derive streams
  std::size_t threads = 0;    ///< 0 = hardware concurrency, 1 = serial
  /// Sharding: this process runs global trials
  /// [trial_begin, trial_begin + trial_count) of the global grid points
  /// [point_begin, point_begin + point_count) (both clamped).  The defaults
  /// run everything.  Streams derive from *global* indices, so any tiling of
  /// the (point x trial) rectangle merges bit-identically (`merge_shards`).
  std::size_t trial_begin = 0;
  std::size_t trial_count = std::numeric_limits<std::size_t>::max();
  std::size_t point_begin = 0;
  std::size_t point_count = std::numeric_limits<std::size_t>::max();
};

/// All trials of one (grid point, strategy) cell, ascending by trial index
/// (`RunOutcome::trial`).
struct ExperimentCell {
  std::size_t point_index = 0;
  std::size_t strategy_index = 0;
  std::vector<RunOutcome> trials;
};

/// Mean/stddev (and min/max) of every engine counter across trials.
struct TotalsSummary {
  util::RunningStats events;
  util::RunningStats recodings;
  util::RunningStats messages;
  util::RunningStats max_color;
  std::array<util::RunningStats, 5> events_by_type{};     ///< by core::EventType
  std::array<util::RunningStats, 5> recodings_by_type{};  ///< by core::EventType
};

/// Adds one trial's counters to `summary`.
void accumulate(TotalsSummary& summary, const Totals& totals,
                net::Color final_max_color);

/// Summarizes a cell by accumulating its trials in trial order (the order
/// that makes sharded-then-merged summaries bit-identical to unsharded).
TotalsSummary summarize(const ExperimentCell& cell);

/// A complete (or one shard of a) grid run.  Self-describing: carries the
/// grid coordinates, strategy names, seed, and its (point x trial)
/// sub-rectangle alongside the per-trial data, so shards can be persisted,
/// shipped, and merged.  `points` holds only the covered grid points;
/// `point_begin` is the global index of `points[0]` and cell/point indices
/// are local (0-based within this result).
struct ExperimentResult {
  std::vector<std::string> axis_names;
  std::vector<std::vector<double>> points;  ///< covered grid coordinates
  std::vector<std::string> strategies;
  std::size_t total_trials = 0;  ///< ExperimentOptions::trials
  std::size_t total_points = 0;  ///< full grid size (>= points.size())
  std::uint64_t seed = 0;
  std::size_t trial_begin = 0;   ///< this result's global trial range
  std::size_t trial_count = 0;
  std::size_t point_begin = 0;   ///< global index of points[0]
  std::vector<ExperimentCell> cells;  ///< point-major, strategy-minor

  std::size_t point_count() const { return points.size(); }
  std::size_t strategy_count() const { return strategies.size(); }
  const ExperimentCell& cell(std::size_t point, std::size_t strategy) const;
};

/// The grid engine.  Construction resolves the axis names and enumerates the
/// grid points (axis-0-major cartesian product); it throws
/// std::invalid_argument on an unknown axis name, an axis without values,
/// an empty strategy list, a strategy name `strategies::make_strategy` does
/// not know (when no `strategy_factory` is set), or a churn point
/// `check_churn_params` rejects.  `run` fans (point, trial) items over
/// `util::map_reduce` and reduces them deterministically.
class Experiment {
 public:
  explicit Experiment(ExperimentGrid grid);

  const ExperimentGrid& grid() const { return grid_; }
  /// Axis-0-major cartesian product of the axis values.
  const std::vector<std::vector<double>>& points() const { return points_; }
  /// The base spec with `points()[point_index]` applied along every axis.
  const ScenarioSpec& spec_for_point(std::size_t point_index) const;

  ExperimentResult run(const ExperimentOptions& options) const;

 private:
  ExperimentGrid grid_;
  std::vector<std::vector<double>> points_;
  std::vector<ScenarioSpec> specs_;  ///< one per point
};

/// Reassembles shards of one experiment into the full result.  Shards must
/// agree on grid/strategies/seed/total_trials/total_points, and their
/// (point x trial) rectangles must tile the full
/// [0, total_points) x [0, total_trials) space exactly (any order, no gaps
/// or overlaps; shards sharing a point range must tile the trial space, and
/// the point ranges must tile the grid); throws std::invalid_argument
/// otherwise.  The merged result is bit-identical to an unsharded run.
ExperimentResult merge_shards(std::vector<ExperimentResult> shards);

}  // namespace minim::sim
