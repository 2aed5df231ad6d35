// The large-N scenario family: clustered (Thomas process) and Poisson-disk
// placements, the constant-density parameter helper, and both run as
// experiment grids.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "net/network.hpp"
#include "sim/experiment.hpp"
#include "sim/workload.hpp"
#include "util/geometry.hpp"
#include "util/rng.hpp"

namespace {

using namespace minim;
using sim::Placement;
using sim::Workload;
using sim::WorkloadParams;

WorkloadParams base_params(Placement placement, std::size_t n) {
  WorkloadParams params;
  params.n = n;
  params.placement = placement;
  return params;
}

TEST(Placement, GeneratorsAreDeterministicPerStream) {
  for (const Placement placement :
       {Placement::kUniform, Placement::kClustered, Placement::kPoissonDisk}) {
    util::Rng a = util::Rng::for_stream(5, 1);
    util::Rng b = util::Rng::for_stream(5, 1);
    const Workload wa = sim::make_join_workload(base_params(placement, 80), a);
    const Workload wb = sim::make_join_workload(base_params(placement, 80), b);
    ASSERT_EQ(wa.joins.size(), wb.joins.size());
    for (std::size_t i = 0; i < wa.joins.size(); ++i) {
      EXPECT_EQ(wa.joins[i].position.x, wb.joins[i].position.x);
      EXPECT_EQ(wa.joins[i].position.y, wb.joins[i].position.y);
      EXPECT_EQ(wa.joins[i].range, wb.joins[i].range);
    }
  }
}

TEST(Placement, AllPlacementsStayInsideTheField) {
  util::Rng rng(11);
  for (const Placement placement :
       {Placement::kUniform, Placement::kClustered, Placement::kPoissonDisk}) {
    const Workload w = sim::make_join_workload(base_params(placement, 200), rng);
    ASSERT_EQ(w.joins.size(), 200u);
    for (const auto& config : w.joins) {
      EXPECT_GE(config.position.x, 0.0);
      EXPECT_LE(config.position.x, w.width);
      EXPECT_GE(config.position.y, 0.0);
      EXPECT_LE(config.position.y, w.height);
      EXPECT_GE(config.range, 20.5);
      EXPECT_LE(config.range, 30.5);
    }
  }
}

TEST(Placement, PoissonDiskRespectsSeparationBelowPackingLimit) {
  // 40 points on 100x100 with separation 8: far below the packing limit, so
  // dart throwing must never need its give-up path.
  WorkloadParams params = base_params(Placement::kPoissonDisk, 40);
  params.min_separation = 8.0;
  util::Rng rng(12);
  const Workload w = sim::make_join_workload(params, rng);
  for (std::size_t i = 0; i < w.joins.size(); ++i)
    for (std::size_t j = i + 1; j < w.joins.size(); ++j) {
      const double d2 = util::distance_squared(w.joins[i].position,
                                               w.joins[j].position);
      EXPECT_GE(d2, 8.0 * 8.0 - 1e-9) << "pair " << i << "," << j;
    }
}

TEST(Placement, PoissonDiskDegradesGracefullyPastPackingLimit) {
  // Far more points than the separation admits: generation must still
  // produce n nodes (the attempt cap accepts the last candidate).
  WorkloadParams params = base_params(Placement::kPoissonDisk, 400);
  params.min_separation = 30.0;
  util::Rng rng(13);
  const Workload w = sim::make_join_workload(params, rng);
  EXPECT_EQ(w.joins.size(), 400u);
}

TEST(Placement, ClusteredConcentratesAroundFewCenters) {
  // With one tight cluster, the point spread must be far below the uniform
  // field spread.
  WorkloadParams params = base_params(Placement::kClustered, 150);
  params.cluster_count = 1;
  params.cluster_sigma = 3.0;
  util::Rng rng(14);
  const Workload w = sim::make_join_workload(params, rng);
  util::Vec2 mean{0, 0};
  for (const auto& config : w.joins) mean = mean + config.position;
  mean = mean * (1.0 / static_cast<double>(w.joins.size()));
  double rms = 0;
  for (const auto& config : w.joins)
    rms += util::distance_squared(config.position, mean);
  rms = std::sqrt(rms / static_cast<double>(w.joins.size()));
  // Clamping at the border can only pull points inward; 6 sigma is a
  // generous bound, a uniform field would give ~40.
  EXPECT_LT(rms, 6.0 * params.cluster_sigma);
}

TEST(LargeNParams, ConstantDensityHitsTheTargetDegree) {
  const double target = 12.0;
  for (const std::size_t n : {1000u, 4000u}) {
    const WorkloadParams params =
        sim::make_large_n_params(n, target, Placement::kUniform);
    util::Rng rng(15);
    const Workload w = sim::make_join_workload(params, rng);
    net::AdhocNetwork net(w.width, w.height);
    for (const auto& config : w.joins) net.add_node(config);
    const double mean_degree =
        static_cast<double>(net.graph().edge_count()) / static_cast<double>(n);
    EXPECT_GT(mean_degree, target * 0.7) << "n " << n;
    EXPECT_LT(mean_degree, target * 1.3) << "n " << n;
  }
}

TEST(LargeNSweeps, ConstantDensityAndClusterCountSweepsRun) {
  sim::ExperimentOptions options;
  options.trials = 2;
  options.threads = 1;
  const auto max_color_mean = [](const sim::ExperimentCell& cell) {
    return sim::summarize(cell).max_color.mean();
  };

  // Constant density: the field scales with each n, so every n is its own
  // one-point grid on make_large_n_params.
  for (const std::size_t n : {50u, 100u}) {
    sim::ExperimentGrid grid;
    grid.base.workload = sim::make_large_n_params(n, 10.0, Placement::kClustered);
    grid.strategies = {"minim", "cp"};
    const sim::ExperimentResult density = sim::Experiment(grid).run(options);
    ASSERT_EQ(density.cells.size(), 2u) << "n " << n;
    for (const sim::ExperimentCell& cell : density.cells) {
      EXPECT_EQ(cell.trials.size(), 2u);
      EXPECT_GT(max_color_mean(cell), 0.0);
    }
  }

  sim::ExperimentGrid grid;
  grid.base.workload.n = 60;
  grid.axes.push_back({"clusters", {2, 8}});  // selects clustered placement
  grid.strategies = {"minim", "cp"};
  const sim::ExperimentResult clusters = sim::Experiment(grid).run(options);
  ASSERT_EQ(clusters.cells.size(), 4u);  // 2 cluster counts x 2 strategies
  // Fewer clusters concentrate the nodes, which must not lower color usage.
  const double few = max_color_mean(clusters.cell(0, 0));   // 2 clusters, minim
  const double many = max_color_mean(clusters.cell(1, 0));  // 8 clusters, minim
  EXPECT_GE(few, many * 0.8);
}

}  // namespace
