#include "sim/sweeps.hpp"

#include <algorithm>
#include <utility>

#include "sim/experiment.hpp"
#include "util/require.hpp"

namespace minim::sim {

namespace {

/// Converts a one-axis experiment result to the figure point list (x-major,
/// strategy-minor; per-run accumulation in trial order).  With
/// `delta_metrics` the Δ-versions of both metrics are recorded (Figs 11 and
/// 12), otherwise the absolute after-setup values (Fig 10).
std::vector<SweepPoint> sweep_points_from(const ExperimentResult& result,
                                          bool delta_metrics) {
  std::vector<SweepPoint> points;
  points.reserve(result.point_count() * result.strategy_count());
  for (std::size_t p = 0; p < result.point_count(); ++p)
    for (std::size_t s = 0; s < result.strategy_count(); ++s) {
      SweepPoint point;
      point.x = result.points[p].front();
      point.strategy = result.strategies[s];
      for (const ExperimentTrial& trial : result.cell(p, s).trials) {
        if (delta_metrics) {
          point.color_metric.add(trial.delta_max_color());
          point.recoding_metric.add(trial.delta_recodings());
        } else {
          point.color_metric.add(static_cast<double>(trial.final_max_color));
          point.recoding_metric.add(static_cast<double>(trial.totals.recodings));
        }
      }
      points.push_back(std::move(point));
    }
  return points;
}

/// Runs the one-axis grid every figure sweep shares: `base` with `axis`
/// swept across the sweep's strategies, runs, seed and threads.
std::vector<SweepPoint> run_figure_sweep(GridAxis axis, ScenarioSpec base,
                                         bool delta_metrics,
                                         const SweepOptions& options) {
  MINIM_REQUIRE(options.runs > 0, "sweep needs at least one run");
  ExperimentGrid grid;
  grid.base = std::move(base);
  grid.base.validate = options.validate;
  grid.axes.push_back(std::move(axis));
  grid.strategies = options.strategies;
  grid.strategy_factory = options.strategy_factory;

  ExperimentOptions run;
  run.trials = options.runs;
  run.seed = options.seed;
  run.threads = options.threads;
  return sweep_points_from(Experiment(std::move(grid)).run(run), delta_metrics);
}

}  // namespace

std::vector<SweepPoint> sweep_join_vs_n(const std::vector<double>& ns,
                                        const SweepOptions& options, double min_range,
                                        double max_range) {
  ScenarioSpec base;
  base.kind = ScenarioKind::kJoin;
  base.workload.min_range = min_range;
  base.workload.max_range = max_range;
  GridAxis axis{"n", ns, [](ScenarioSpec& spec, double x) {
                  spec.workload.n = static_cast<std::size_t>(x);
                }};
  return run_figure_sweep(std::move(axis), std::move(base),
                          /*delta_metrics=*/false, options);
}

std::vector<SweepPoint> sweep_join_vs_avg_range(const std::vector<double>& avg_ranges,
                                                const SweepOptions& options,
                                                std::size_t n, double spread) {
  ScenarioSpec base;
  base.kind = ScenarioKind::kJoin;
  base.workload.n = n;
  GridAxis axis{"avg_range", avg_ranges, [spread](ScenarioSpec& spec, double x) {
                  spec.workload.min_range = x - spread / 2.0;
                  spec.workload.max_range = x + spread / 2.0;
                }};
  return run_figure_sweep(std::move(axis), std::move(base),
                          /*delta_metrics=*/false, options);
}

std::vector<SweepPoint> sweep_power_vs_raise_factor(
    const std::vector<double>& raise_factors, const SweepOptions& options,
    std::size_t n, double min_range, double max_range) {
  ScenarioSpec base;
  base.kind = ScenarioKind::kPower;
  base.workload.n = n;
  base.workload.min_range = min_range;
  base.workload.max_range = max_range;
  GridAxis axis{"raise_factor", raise_factors, [](ScenarioSpec& spec, double x) {
                  spec.raise_factor = x;
                }};
  return run_figure_sweep(std::move(axis), std::move(base),
                          /*delta_metrics=*/true, options);
}

std::vector<SweepPoint> sweep_move_vs_max_displacement(
    const std::vector<double>& max_displacements, const SweepOptions& options,
    std::size_t n, double min_range, double max_range) {
  ScenarioSpec base;
  base.kind = ScenarioKind::kMove;
  base.workload.n = n;
  base.workload.min_range = min_range;
  base.workload.max_range = max_range;
  base.move_rounds = 1;
  GridAxis axis{"max_displacement", max_displacements,
                [](ScenarioSpec& spec, double x) { spec.max_displacement = x; }};
  return run_figure_sweep(std::move(axis), std::move(base),
                          /*delta_metrics=*/true, options);
}

std::vector<SweepPoint> sweep_move_vs_rounds(const std::vector<double>& rounds,
                                             const SweepOptions& options, std::size_t n,
                                             double max_displacement, double min_range,
                                             double max_range) {
  ScenarioSpec base;
  base.kind = ScenarioKind::kMove;
  base.workload.n = n;
  base.workload.min_range = min_range;
  base.workload.max_range = max_range;
  base.max_displacement = max_displacement;
  GridAxis axis{"rounds", rounds, [](ScenarioSpec& spec, double x) {
                  spec.move_rounds = static_cast<std::size_t>(x);
                }};
  return run_figure_sweep(std::move(axis), std::move(base),
                          /*delta_metrics=*/true, options);
}

std::vector<SweepPoint> sweep_join_vs_n_constant_density(
    const std::vector<double>& ns, const SweepOptions& options,
    Placement placement, double mean_degree) {
  ScenarioSpec base;
  base.kind = ScenarioKind::kJoin;
  GridAxis axis{"n", ns, [placement, mean_degree](ScenarioSpec& spec, double x) {
                  spec.workload = make_large_n_params(
                      static_cast<std::size_t>(x), mean_degree, placement);
                }};
  return run_figure_sweep(std::move(axis), std::move(base),
                          /*delta_metrics=*/false, options);
}

std::vector<SweepPoint> sweep_join_vs_cluster_count(
    const std::vector<double>& cluster_counts, const SweepOptions& options,
    std::size_t n, double cluster_sigma) {
  ScenarioSpec base;
  base.kind = ScenarioKind::kJoin;
  base.workload.n = n;
  base.workload.placement = Placement::kClustered;
  base.workload.cluster_sigma = cluster_sigma;
  GridAxis axis{"clusters", cluster_counts, [](ScenarioSpec& spec, double x) {
                  spec.workload.cluster_count =
                      std::max<std::size_t>(1, static_cast<std::size_t>(x));
                }};
  return run_figure_sweep(std::move(axis), std::move(base),
                          /*delta_metrics=*/false, options);
}

}  // namespace minim::sim
