// Tests for descriptive statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "stats/descriptive.h"

namespace sisyphus::stats {
namespace {

TEST(DescriptiveTest, MeanVarianceStdDev) {
  const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(xs), 5.0);
  EXPECT_NEAR(Variance(xs), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(StdDev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(DescriptiveTest, EmptyMeanThrows) {
  const std::vector<double> xs;
  EXPECT_THROW(Mean(xs), std::logic_error);
}

TEST(DescriptiveTest, QuantileInterpolates) {
  const std::vector<double> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.0 / 3.0), 2.0);
}

TEST(DescriptiveTest, QuantileUnsortedInput) {
  const std::vector<double> xs{4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(Median(xs), 2.5);
}

TEST(DescriptiveTest, QuantileSingleton) {
  const std::vector<double> xs{42.0};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.3), 42.0);
}

TEST(DescriptiveTest, MedianOddCount) {
  const std::vector<double> xs{5, 1, 9};
  EXPECT_DOUBLE_EQ(Median(xs), 5.0);
}

TEST(DescriptiveTest, MadRobustToOutlier) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const std::vector<double> with_outlier{1, 2, 3, 4, 1000};
  // MAD barely moves; SD explodes.
  EXPECT_NEAR(MedianAbsoluteDeviation(xs),
              MedianAbsoluteDeviation(with_outlier), 0.01);
  EXPECT_GT(StdDev(with_outlier), 100.0 * StdDev(xs));
}

TEST(DescriptiveTest, MadMatchesSdUnderNormalityScale) {
  // For symmetric spread {-1, 0, 1} MAD = 1 * 1.4826.
  const std::vector<double> xs{-1, 0, 1};
  EXPECT_NEAR(MedianAbsoluteDeviation(xs), 1.4826, 1e-12);
}

TEST(DescriptiveTest, CovarianceAndCorrelation) {
  const std::vector<double> xs{1, 2, 3, 4};
  const std::vector<double> ys{2, 4, 6, 8};
  EXPECT_NEAR(PearsonCorrelation(xs, ys), 1.0, 1e-12);
  const std::vector<double> zs{8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(xs, zs), -1.0, 1e-12);
  EXPECT_NEAR(Covariance(xs, ys), 2.0 * Variance(xs), 1e-12);
}

TEST(DescriptiveTest, CorrelationDegenerateThrows) {
  const std::vector<double> xs{1, 1, 1};
  const std::vector<double> ys{1, 2, 3};
  EXPECT_THROW(PearsonCorrelation(xs, ys), std::logic_error);
}

TEST(DescriptiveTest, RmseAndMae) {
  const std::vector<double> a{1, 2, 3};
  const std::vector<double> b{2, 2, 1};
  EXPECT_NEAR(Rmse(a, b), std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_NEAR(MeanAbsoluteError(a, b), 1.0, 1e-12);
}

TEST(DescriptiveTest, RmseIdenticalSeriesIsZero) {
  const std::vector<double> a{1.5, -2, 0};
  EXPECT_DOUBLE_EQ(Rmse(a, a), 0.0);
}

TEST(DescriptiveTest, MinMax) {
  const std::vector<double> xs{3, -1, 7, 0};
  EXPECT_DOUBLE_EQ(Min(xs), -1.0);
  EXPECT_DOUBLE_EQ(Max(xs), 7.0);
}

TEST(DescriptiveTest, MovingAverageSmoothsAndPreservesLength) {
  const std::vector<double> xs{0, 10, 0, 10, 0};
  const auto smoothed = MovingAverage(xs, 3);
  ASSERT_EQ(smoothed.size(), xs.size());
  EXPECT_DOUBLE_EQ(smoothed[2], 20.0 / 3.0);
  // Edges use partial windows.
  EXPECT_DOUBLE_EQ(smoothed[0], 5.0);
}

TEST(DescriptiveTest, MovingAverageWindowOneIsIdentity) {
  const std::vector<double> xs{1, 2, 3};
  EXPECT_EQ(MovingAverage(xs, 1), xs);
}

TEST(DescriptiveTest, StandardizeHasZeroMeanUnitVariance) {
  const std::vector<double> xs{10, 20, 30, 40};
  const auto z = Standardize(xs);
  EXPECT_NEAR(Mean(z), 0.0, 1e-12);
  EXPECT_NEAR(Variance(z), 1.0, 1e-12);
}

// ---- Quantiles by selection against a sorted reference ---------------------

/// The reference quantile: sort a copy, then interpolate between the
/// lo-th and (lo + 1)-th values.
double SortedQuantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  if (xs.size() == 1) return xs.front();
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// xs's values as bit patterns, sorted: equal exactly when two vectors
/// hold the same multiset of values.
std::vector<std::uint64_t> SortedBits(const std::vector<double>& xs) {
  std::vector<std::uint64_t> bits;
  for (double x : xs) bits.push_back(Bits(x));
  std::sort(bits.begin(), bits.end());
  return bits;
}

/// Seeded inputs of every size from 1 to 400 in several shapes: lognormal
/// RTT-like values, signed uniform values, magnitudes from 1e-300 to
/// 1e300, long runs of a few values, all-equal values, and lognormal
/// values sorted, reverse-sorted and in organ-pipe order (rising, then
/// falling). From about 50 values on, the reverse-sorted and organ-pipe
/// orders keep handing the median-of-3 pivot an extreme of its range, so
/// they run into the depth bound and its std::nth_element. No input holds
/// -0.0.
std::vector<std::pair<std::string, std::vector<double>>> SelectionInputs() {
  std::mt19937_64 rng(20261021);
  std::lognormal_distribution<double> rtt(3.0, 0.4);
  std::uniform_real_distribution<double> uniform(-1e3, 1e3);
  std::uniform_real_distribution<double> exponent(-300.0, 300.0);
  std::vector<std::pair<std::string, std::vector<double>>> inputs;
  for (std::size_t n = 1; n <= 400; ++n) {
    const auto add = [&](const std::string& shape, auto draw) {
      std::vector<double> xs(n);
      for (double& x : xs) x = draw();
      inputs.emplace_back(shape + " n=" + std::to_string(n), std::move(xs));
    };
    add("lognormal", [&] { return rtt(rng); });
    add("uniform", [&] { return uniform(rng); });
    add("magnitudes", [&] {
      const double x = std::pow(10.0, exponent(rng));
      return rng() % 2 == 0 ? x : -x;
    });
    add("runs", [&] {
      constexpr double kValues[] = {0.0, 12.5, -3.25, 1e300};
      return kValues[rng() % 16 < 13 ? 1 : rng() % 4];
    });
    add("all-equal", [] { return 42.125; });
    std::vector<double> ordered(n);
    for (double& x : ordered) x = rtt(rng);
    std::sort(ordered.begin(), ordered.end());
    inputs.emplace_back("sorted n=" + std::to_string(n), ordered);
    inputs.emplace_back("reverse n=" + std::to_string(n),
                        std::vector<double>(ordered.rbegin(), ordered.rend()));
    std::vector<double> organ_pipe(n);  // even ranks rising, odd falling
    for (std::size_t i = 0; i < n; ++i) {
      organ_pipe[i] = ordered[std::min(2 * i, 2 * (n - 1 - i) + 1)];
    }
    inputs.emplace_back("organ-pipe n=" + std::to_string(n), organ_pipe);
  }
  return inputs;
}

TEST(QuantileSelectionTest, MatchesSortedReferenceBitForBit) {
  for (const auto& [name, xs] : SelectionInputs()) {
    ASSERT_EQ(SortedBits(xs).size(), xs.size()) << name;
    for (double q : {0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0}) {
      const double expected = SortedQuantile(xs, q);
      std::vector<double> work = xs;
      EXPECT_EQ(Bits(QuantileInPlace(work, q)), Bits(expected))
          << name << ", q " << q;
      EXPECT_EQ(SortedBits(work), SortedBits(xs))
          << name << ", q " << q << ": not a permutation";
      EXPECT_EQ(Bits(Quantile(xs, q)), Bits(expected)) << name << ", q " << q;
    }
    EXPECT_EQ(Bits(Median(xs)), Bits(SortedQuantile(xs, 0.5))) << name;
  }
}

TEST(QuantileSelectionTest, RejectsEmptyInputAndQOutsideTheUnitInterval) {
  std::vector<double> empty;
  EXPECT_THROW(QuantileInPlace(empty, 0.5), std::logic_error);
  std::vector<double> xs{1.0, 2.0};
  EXPECT_THROW(QuantileInPlace(xs, -0.25), std::logic_error);
  EXPECT_THROW(QuantileInPlace(xs, 1.5), std::logic_error);
}

}  // namespace
}  // namespace sisyphus::stats
