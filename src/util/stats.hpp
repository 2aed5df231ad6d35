#pragma once

#include <cstddef>

/// \file stats.hpp
/// \brief Streaming descriptive statistics for experiment metrics.
///
/// Every plotted point in the paper is "the average of the metric measured
/// over 100 runs"; `RunningStats` accumulates those runs with Welford's
/// algorithm (numerically stable single pass) and reports mean, sample
/// standard deviation, standard error and a normal-approximation 95%
/// confidence interval.

namespace minim::util {

/// Welford single-pass accumulator for mean/variance/min/max.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  /// Standard error of the mean; 0 for fewer than two samples.
  double stderror() const;
  /// Half-width of the normal-approximation 95% CI around the mean.
  double ci95_halfwidth() const { return 1.959964 * stderror(); }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace minim::util
