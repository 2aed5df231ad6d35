#include "sim/experiment.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "sim/replay.hpp"
#include "util/map_reduce.hpp"
#include "util/require.hpp"

namespace minim::sim {

Workload make_scenario_workload(const ScenarioSpec& spec, util::Rng& rng) {
  switch (spec.kind) {
    case ScenarioKind::kJoin:
      return make_join_workload(spec.workload, rng);
    case ScenarioKind::kPower:
      return make_power_workload(spec.workload, spec.raise_factor, rng);
    case ScenarioKind::kMove:
      return make_move_workload(spec.workload, spec.max_displacement,
                                spec.move_rounds, rng);
    case ScenarioKind::kChurn:
      break;  // churn does not use a phased workload
  }
  throw std::logic_error("make_scenario_workload: no phased workload for this kind");
}

void accumulate(TotalsSummary& summary, const Totals& totals,
                net::Color final_max_color) {
  summary.events.add(static_cast<double>(totals.events));
  summary.recodings.add(static_cast<double>(totals.recodings));
  summary.messages.add(static_cast<double>(totals.messages));
  summary.max_color.add(static_cast<double>(final_max_color));
  for (std::size_t t = 0; t < totals.events_by_type.size(); ++t) {
    summary.events_by_type[t].add(static_cast<double>(totals.events_by_type[t]));
    summary.recodings_by_type[t].add(
        static_cast<double>(totals.recodings_by_type[t]));
  }
}

TotalsSummary summarize(const ExperimentCell& cell) {
  TotalsSummary summary;
  for (const RunOutcome& trial : cell.trials)
    accumulate(summary, trial.totals, trial.max_color);
  return summary;
}

const ExperimentCell& ExperimentResult::cell(std::size_t point,
                                             std::size_t strategy) const {
  MINIM_REQUIRE(point < point_count() && strategy < strategy_count(),
                "experiment cell index out of range");
  return cells[point * strategy_count() + strategy];
}

namespace {

/// Sets the spec field an axis names to one of its values.
using AxisSetter = void (*)(ScenarioSpec&, double);

/// The axis vocabulary: every name a `GridAxis` may carry.
constexpr std::pair<const char*, AxisSetter> kAxes[] = {
    {"n", [](ScenarioSpec& s, double x) { s.workload.n = static_cast<std::size_t>(x); }},
    {"raise_factor", [](ScenarioSpec& s, double x) { s.raise_factor = x; }},
    {"max_displacement", [](ScenarioSpec& s, double x) { s.max_displacement = x; }},
    {"move_rounds",
     [](ScenarioSpec& s, double x) { s.move_rounds = static_cast<std::size_t>(x); }},
    {"min_range", [](ScenarioSpec& s, double x) { s.workload.min_range = x; }},
    {"max_range", [](ScenarioSpec& s, double x) { s.workload.max_range = x; }},
    // The paper's Fig 10(d-f) parameterization: a 5-unit spread around x.
    {"avg_range",
     [](ScenarioSpec& s, double x) {
       s.workload.min_range = x - 2.5;
       s.workload.max_range = x + 2.5;
     }},
    {"clusters",
     [](ScenarioSpec& s, double x) {
       s.workload.placement = Placement::kClustered;
       s.workload.cluster_count = std::max<std::size_t>(1, static_cast<std::size_t>(x));
     }},
    {"cluster_sigma",
     [](ScenarioSpec& s, double x) {
       s.workload.placement = Placement::kClustered;
       s.workload.cluster_sigma = x;
     }},
    {"churn_duration", [](ScenarioSpec& s, double x) { s.churn.duration = x; }},
    {"arrival_rate", [](ScenarioSpec& s, double x) { s.churn.arrival_rate = x; }},
    {"mean_lifetime", [](ScenarioSpec& s, double x) { s.churn.mean_lifetime = x; }},
};

/// The setter `name` selects; throws std::invalid_argument naming the known
/// axes when there is none.
AxisSetter axis_setter(const std::string& name) {
  std::string known;
  for (const auto& [axis, setter] : kAxes) {
    if (name == axis) return setter;
    known += known.empty() ? "" : "|";
    known += axis;
  }
  throw std::invalid_argument("unknown axis \"" + name + "\" (expected " +
                              known + ")");
}

/// Axis-0-major cartesian product of the axis values; one empty point when
/// there are no axes.
std::vector<std::vector<double>> enumerate_points(
    const std::vector<GridAxis>& axes) {
  for (const GridAxis& axis : axes)
    MINIM_REQUIRE(!axis.values.empty(), "grid axis needs at least one value");
  std::size_t count = 1;
  for (const GridAxis& axis : axes) count *= axis.values.size();

  std::vector<std::vector<double>> points;
  points.reserve(count);
  for (std::size_t p = 0; p < count; ++p) {
    std::vector<double> coords(axes.size());
    std::size_t rem = p;
    for (std::size_t a = axes.size(); a-- > 0;) {
      coords[a] = axes[a].values[rem % axes[a].values.size()];
      rem /= axes[a].values.size();
    }
    points.push_back(std::move(coords));
  }
  return points;
}

/// Runs one (point, trial) item: generates the workload once and replays it
/// across every strategy (paired comparison).  Churn has no phased workload;
/// pairing is achieved by handing every strategy a *copy* of the same stream
/// — the event sequence is a pure function of the rng, so all strategies see
/// the identical churn.
std::vector<RunOutcome> run_point_trial(
    const ScenarioSpec& spec, const std::vector<std::string>& strategies,
    const strategies::StrategyFactory& factory, std::uint64_t trial,
    util::Rng& rng) {
  if (spec.kind == ScenarioKind::kChurn) {
    ChurnParams params = spec.churn;
    params.validate = params.validate || spec.validate;
    std::vector<RunOutcome> out;
    out.reserve(strategies.size());
    for (const std::string& name : strategies) {
      const auto strategy = factory(name);
      util::Rng stream = rng;
      const ChurnResult churn = run_churn(params, *strategy, stream);
      RunOutcome result;
      result.trial = trial;
      result.totals = churn.totals;
      result.max_color = churn.final_max_color;
      out.push_back(result);
    }
    return out;
  }

  const Workload workload = make_scenario_workload(spec, rng);
  // One arena per worker thread, and one lockstep replay per trial: the
  // shared network evolves once per event while every strategy repairs its
  // own assignment (bit-identical to per-strategy replays by replay_all's
  // contract).
  thread_local ReplayArena arena;
  std::vector<std::unique_ptr<core::RecodingStrategy>> objects;
  std::vector<core::RecodingStrategy*> lanes;
  objects.reserve(strategies.size());
  lanes.reserve(strategies.size());
  for (const std::string& name : strategies) {
    objects.push_back(factory(name));
    lanes.push_back(objects.back().get());
  }
  std::vector<RunOutcome> outcomes =
      replay_all(workload, lanes, spec.validate, &arena);
  for (RunOutcome& outcome : outcomes) outcome.trial = trial;
  return outcomes;
}

}  // namespace

Experiment::Experiment(ExperimentGrid grid)
    : grid_(std::move(grid)), points_(enumerate_points(grid_.axes)) {
  MINIM_REQUIRE(!grid_.strategies.empty(),
                "experiment needs at least one strategy");
  // The factory owns the name list: an unknown name throws here, before any
  // trial runs.
  if (!grid_.strategy_factory)
    for (const std::string& name : grid_.strategies) strategies::make_strategy(name);
  std::vector<AxisSetter> setters;
  for (const GridAxis& axis : grid_.axes) setters.push_back(axis_setter(axis.name));
  specs_.reserve(points_.size());
  for (const std::vector<double>& coords : points_) {
    ScenarioSpec spec = grid_.base;
    for (std::size_t a = 0; a < setters.size(); ++a) setters[a](spec, coords[a]);
    if (spec.kind == ScenarioKind::kChurn) check_churn_params(spec.churn);
    specs_.push_back(spec);
  }
}

const ScenarioSpec& Experiment::spec_for_point(std::size_t point_index) const {
  MINIM_REQUIRE(point_index < specs_.size(), "grid point index out of range");
  return specs_[point_index];
}

ExperimentResult Experiment::run(const ExperimentOptions& options) const {
  MINIM_REQUIRE(options.trial_begin <= options.trials,
                "trial_begin past the trial space");
  MINIM_REQUIRE(options.point_begin <= points_.size(),
                "point_begin past the grid");
  const std::size_t shard_trials =
      std::min(options.trial_count, options.trials - options.trial_begin);
  const std::size_t shard_points =
      std::min(options.point_count, points_.size() - options.point_begin);
  const std::size_t n_strategies = grid_.strategies.size();

  ExperimentResult result;
  result.axis_names.reserve(grid_.axes.size());
  for (const GridAxis& axis : grid_.axes) result.axis_names.push_back(axis.name);
  result.points.assign(
      points_.begin() + static_cast<std::ptrdiff_t>(options.point_begin),
      points_.begin() +
          static_cast<std::ptrdiff_t>(options.point_begin + shard_points));
  result.strategies = grid_.strategies;
  result.total_trials = options.trials;
  result.total_points = points_.size();
  result.seed = options.seed;
  result.trial_begin = options.trial_begin;
  result.trial_count = shard_trials;
  result.point_begin = options.point_begin;
  result.cells.resize(shard_points * n_strategies);
  for (std::size_t p = 0; p < shard_points; ++p)
    for (std::size_t s = 0; s < n_strategies; ++s) {
      ExperimentCell& cell = result.cells[p * n_strategies + s];
      cell.point_index = p;
      cell.strategy_index = s;
      cell.trials.reserve(shard_trials);
    }
  if (shard_trials == 0 || shard_points == 0) return result;

  const strategies::StrategyFactory factory =
      grid_.strategy_factory
          ? grid_.strategy_factory
          : [](const std::string& name) { return strategies::make_strategy(name); };

  util::MapReduceOptions mr;
  mr.seed = options.seed;
  mr.threads = options.threads;
  // Global stream = global point * total_trials + global trial, independent
  // of the shard's rectangle — the invariant that makes sharding bit-safe.
  mr.stream_of = [shard_trials, total = options.trials,
                  trial0 = options.trial_begin,
                  point0 = options.point_begin](std::size_t item) {
    const std::size_t point = point0 + item / shard_trials;
    const std::size_t trial = trial0 + item % shard_trials;
    return static_cast<std::uint64_t>(point) * total + trial;
  };

  util::map_reduce(
      shard_points * shard_trials, mr,
      [&](std::size_t item, util::Rng& rng) {
        const std::size_t point = item / shard_trials;
        const std::uint64_t trial = options.trial_begin + item % shard_trials;
        return run_point_trial(specs_[options.point_begin + point],
                               grid_.strategies, factory, trial, rng);
      },
      [&](std::size_t item, std::vector<RunOutcome>&& per_strategy) {
        const std::size_t point = item / shard_trials;
        for (std::size_t s = 0; s < n_strategies; ++s)
          result.cells[point * n_strategies + s].trials.push_back(
              std::move(per_strategy[s]));
      });
  return result;
}

ExperimentResult merge_shards(std::vector<ExperimentResult> shards) {
  if (shards.empty())
    throw std::invalid_argument("merge_shards: no shards to merge");

  // Point-major, trial-minor: shards sharing a point range become one group
  // whose trial ranges must tile [0, total_trials); the groups' point ranges
  // must then tile [0, total_points).
  std::sort(shards.begin(), shards.end(),
            [](const ExperimentResult& a, const ExperimentResult& b) {
              if (a.point_begin != b.point_begin)
                return a.point_begin < b.point_begin;
              return a.trial_begin < b.trial_begin;
            });

  const ExperimentResult& first = shards.front();
  for (const ExperimentResult& shard : shards) {
    const bool compatible = shard.axis_names == first.axis_names &&
                            shard.strategies == first.strategies &&
                            shard.total_trials == first.total_trials &&
                            shard.total_points == first.total_points &&
                            shard.seed == first.seed;
    if (!compatible)
      throw std::invalid_argument(
          "merge_shards: shards describe different experiments");
  }

  ExperimentResult merged;
  merged.axis_names = first.axis_names;
  merged.strategies = first.strategies;
  merged.total_trials = first.total_trials;
  merged.total_points = first.total_points;
  merged.seed = first.seed;
  merged.trial_begin = 0;
  merged.trial_count = first.total_trials;
  merged.point_begin = 0;
  merged.points.reserve(first.total_points);
  merged.cells.reserve(first.total_points * first.strategies.size());

  const std::size_t n_strategies = first.strategies.size();
  std::size_t next_point = 0;
  for (std::size_t i = 0; i < shards.size();) {
    const ExperimentResult& lead = shards[i];
    if (lead.point_begin != next_point)
      throw std::invalid_argument(
          "merge_shards: point ranges leave a gap or overlap");

    // The trial-range group sharing lead's point range.
    std::size_t next_trial = 0;
    std::size_t group_end = i;
    for (; group_end < shards.size() &&
           shards[group_end].point_begin == lead.point_begin;
         ++group_end) {
      const ExperimentResult& shard = shards[group_end];
      if (shard.points != lead.points)
        throw std::invalid_argument(
            "merge_shards: point ranges leave a gap or overlap");
      if (shard.trial_begin != next_trial)
        throw std::invalid_argument(
            "merge_shards: trial ranges leave a gap or overlap");
      next_trial = shard.trial_begin + shard.trial_count;
    }
    if (next_trial != first.total_trials)
      throw std::invalid_argument(
          "merge_shards: trial ranges do not cover [0, total_trials)");

    for (std::size_t p = 0; p < lead.points.size(); ++p) {
      merged.points.push_back(lead.points[p]);
      for (std::size_t s = 0; s < n_strategies; ++s) {
        ExperimentCell cell;
        cell.point_index = next_point + p;
        cell.strategy_index = s;
        cell.trials.reserve(first.total_trials);
        for (std::size_t j = i; j < group_end; ++j) {
          const ExperimentCell& source = shards[j].cells[p * n_strategies + s];
          cell.trials.insert(cell.trials.end(), source.trials.begin(),
                             source.trials.end());
        }
        merged.cells.push_back(std::move(cell));
      }
    }
    next_point += lead.points.size();
    i = group_end;
  }
  if (next_point != first.total_points)
    throw std::invalid_argument(
        "merge_shards: point ranges do not cover [0, total_points)");
  return merged;
}

}  // namespace minim::sim
