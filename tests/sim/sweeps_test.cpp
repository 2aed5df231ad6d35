// Unit tests for sim/sweeps.cpp itself (previously only exercised through
// figure-shape assertions): point ordering (x-major, strategy-minor) and the
// validate flag actually running CA1/CA2 checks.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "sim/sweeps.hpp"
#include "strategies/factory.hpp"

namespace {

using namespace minim;

TEST(Sweeps, FigureSweepKeepsTheSameOrdering) {
  sim::SweepOptions options;
  options.strategies = {"minim", "cp"};
  options.runs = 2;
  options.threads = 1;
  const auto points = sim::sweep_join_vs_n({20, 30}, options);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].x, 20);
  EXPECT_EQ(points[0].strategy, "minim");
  EXPECT_EQ(points[1].x, 20);
  EXPECT_EQ(points[1].strategy, "cp");
  EXPECT_EQ(points[2].x, 30);
  EXPECT_EQ(points[2].strategy, "minim");
  EXPECT_EQ(points[3].x, 30);
  EXPECT_EQ(points[3].strategy, "cp");
}

// A deliberately invalid strategy: every node gets color 1, so any two
// constrained nodes conflict as soon as the network has an edge.
class EveryoneColorOne final : public core::RecodingStrategy {
 public:
  std::string name() const override { return "broken"; }

  core::RecodeReport on_join(const net::AdhocNetwork& net,
                             net::CodeAssignment& assignment,
                             net::NodeId n) override {
    assignment.set_color(n, 1);
    core::RecodeReport report;
    report.event = core::EventType::kJoin;
    report.subject = n;
    report.changes.push_back(core::Recode{n, net::kNoColor, 1});
    core::finalize_report(net, assignment, report);
    return report;
  }
  core::RecodeReport on_leave(const net::AdhocNetwork&, net::CodeAssignment&,
                              net::NodeId) override {
    return {};
  }
  core::RecodeReport on_move(const net::AdhocNetwork&, net::CodeAssignment&,
                             net::NodeId) override {
    return {};
  }
  core::RecodeReport on_power_change(const net::AdhocNetwork&,
                                     net::CodeAssignment&, net::NodeId,
                                     double) override {
    return {};
  }
};

strategies::StrategyFactory broken_factory() {
  return [](const std::string& name) -> core::StrategyPtr {
    if (name == "broken") return std::make_unique<EveryoneColorOne>();
    return strategies::make_strategy(name);
  };
}

TEST(Sweeps, ValidateFlagReachesTheFigureSweeps) {
  // With enough nodes on the default 100x100 field the all-ones coloring is
  // invalid, so a validating sweep must throw — and a non-validating sweep
  // must sail through, proving the flag is what arms the check.
  sim::SweepOptions options;
  options.strategies = {"broken"};
  options.strategy_factory = broken_factory();
  options.runs = 2;
  options.threads = 1;
  options.validate = true;
  EXPECT_THROW(sim::sweep_join_vs_n({16}, options), std::logic_error);
  options.validate = false;
  EXPECT_NO_THROW(sim::sweep_join_vs_n({16}, options));
}

}  // namespace
