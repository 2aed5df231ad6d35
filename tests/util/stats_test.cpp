#include "util/stats.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace {

using minim::util::RunningStats;

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.stderror(), 0.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats s;
  s.add(4.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 4.5);
  EXPECT_DOUBLE_EQ(s.max(), 4.5);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1: sum sq dev = 32, n-1 = 7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, Ci95ShrinksWithSamples) {
  minim::util::Rng rng(4);
  RunningStats small;
  RunningStats large;
  for (int i = 0; i < 10; ++i) small.add(rng.uniform01());
  for (int i = 0; i < 1000; ++i) large.add(rng.uniform01());
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

}  // namespace
