#pragma once

#include <string>
#include <vector>

#include "sim/workload.hpp"
#include "strategies/factory.hpp"
#include "util/stats.hpp"

/// \file sweeps.hpp
/// \brief Parameter sweeps reproducing the evaluation of Section 5.
///
/// Every figure in the paper is a sweep: an x-axis parameter, one curve per
/// strategy, each point "the average of the metric measured over 100 runs of
/// randomly generated ad-hoc networks".  Each sweep below is a one-axis
/// `sim::Experiment` grid: item (xi, run) draws stream xi*runs+run, each
/// generated workload is replayed once per strategy (paired comparison —
/// all strategies see the same random networks), and per-run metrics reduce
/// in run order, so a sweep is bit-identical for any thread count.  Points
/// are ordered x-major, strategy-minor.

namespace minim::sim {

/// One (x, strategy) point of a figure.
struct SweepPoint {
  double x = 0;
  std::string strategy;
  /// Fig 10: final max color / total recodings.
  /// Fig 11/12: Δ(max color) / Δ(recodings) relative to after-setup state.
  util::RunningStats color_metric;
  util::RunningStats recoding_metric;
};

struct SweepOptions {
  std::vector<std::string> strategies{"minim", "cp", "bbb"};
  std::size_t runs = 100;     ///< paper: 100
  std::uint64_t seed = 2001;  ///< master seed; runs derive independent streams
  std::size_t threads = 0;    ///< 0 = hardware concurrency
  bool validate = false;      ///< CA1/CA2 check after every event (slow)
  /// Custom named-strategy constructor; empty = `strategies::make_strategy`.
  strategies::StrategyFactory strategy_factory;
};

// ---- Figure-specific sweeps (parameters default to the paper's) ----------

/// Fig 10(a-c): joins vs N, minr=20.5, maxr=30.5.
std::vector<SweepPoint> sweep_join_vs_n(const std::vector<double>& ns,
                                        const SweepOptions& options,
                                        double min_range = 20.5,
                                        double max_range = 30.5);

/// Fig 10(d-f): joins vs average range, N=100, maxr-minr=5.
std::vector<SweepPoint> sweep_join_vs_avg_range(const std::vector<double>& avg_ranges,
                                                const SweepOptions& options,
                                                std::size_t n = 100,
                                                double spread = 5.0);

/// Fig 11: power raises of half the nodes vs raisefactor, N=100.
std::vector<SweepPoint> sweep_power_vs_raise_factor(
    const std::vector<double>& raise_factors, const SweepOptions& options,
    std::size_t n = 100, double min_range = 20.5, double max_range = 30.5);

/// Fig 12(a): one movement round vs maxdisp, N=40.
std::vector<SweepPoint> sweep_move_vs_max_displacement(
    const std::vector<double>& max_displacements, const SweepOptions& options,
    std::size_t n = 40, double min_range = 20.5, double max_range = 30.5);

/// Fig 12(b-d): movement rounds vs RoundNo, maxdisp=40, N=40.
std::vector<SweepPoint> sweep_move_vs_rounds(const std::vector<double>& rounds,
                                             const SweepOptions& options,
                                             std::size_t n = 40,
                                             double max_displacement = 40.0,
                                             double min_range = 20.5,
                                             double max_range = 30.5);

// ---- Large-N scenario family (constant density; see make_large_n_params) --

/// Joins vs N at constant node density: the field scales with N so the mean
/// degree stays near `mean_degree` — the paper's join experiment carried
/// into the 10⁵–10⁶-node regime, under any placement family.
std::vector<SweepPoint> sweep_join_vs_n_constant_density(
    const std::vector<double>& ns, const SweepOptions& options,
    Placement placement = Placement::kUniform, double mean_degree = 12.0);

/// Joins vs cluster count at fixed N (clustered placement): how topology
/// concentration drives color usage and recoding churn.
std::vector<SweepPoint> sweep_join_vs_cluster_count(
    const std::vector<double>& cluster_counts, const SweepOptions& options,
    std::size_t n = 100, double cluster_sigma = 6.0);

}  // namespace minim::sim
