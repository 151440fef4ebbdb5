// Descriptive statistics over spans of doubles.
//
// All functions are NaN-intolerant by contract: callers filter missing
// values first (measure::AddPanelUnit takes the median of observed
// cells only).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace sisyphus::stats {

/// Arithmetic mean. Precondition: non-empty.
double Mean(std::span<const double> xs);

/// Unbiased sample variance (n-1 denominator). Precondition: size >= 2.
double Variance(std::span<const double> xs);

/// sqrt(Variance).
double StdDev(std::span<const double> xs);

/// Linear-interpolated quantile, q in [0, 1], of xs, which it permutes:
/// with pos = q * (n - 1), lo = floor(pos) and frac = pos - lo, it
/// returns a * (1 - frac) + b * frac, where a is the lo-th smallest value
/// (0-based) and b the smallest of the values above it (a itself when
/// lo = n - 1) -- the arithmetic on xs sorted ascending, as
/// sorted[lo] * (1 - frac) + sorted[min(lo + 1, n - 1)] * frac, on the
/// same two values, without sorting. Values that compare equal are
/// interchangeable here, so the bits equal that sorted computation's for
/// any input that does not hold both +0.0 and -0.0. It selects a by a
/// branchless three-way quickselect (median-of-3 pivot, a depth bound of
/// 2 * bit_width(n) partitions, then std::nth_element) and finds b in one
/// pass over the values above a: expected O(n), O(n log n) at worst.
/// Precondition: non-empty, q in [0, 1].
double QuantileInPlace(std::span<double> xs, double q);

/// QuantileInPlace on a copy of xs. Precondition: non-empty.
double Quantile(std::span<const double> xs, double q);

/// Quantile(0.5).
double Median(std::span<const double> xs);

/// Median absolute deviation (robust scale), scaled by 1.4826 to be
/// consistent with the standard deviation under normality.
double MedianAbsoluteDeviation(std::span<const double> xs);

/// Pearson correlation. Precondition: equal sizes >= 2, non-degenerate.
double PearsonCorrelation(std::span<const double> xs,
                          std::span<const double> ys);

/// Sample covariance (n-1 denominator). Precondition: equal sizes >= 2.
double Covariance(std::span<const double> xs, std::span<const double> ys);

/// Root mean squared error between two equal-length series.
double Rmse(std::span<const double> a, std::span<const double> b);

/// Mean absolute error between two equal-length series.
double MeanAbsoluteError(std::span<const double> a, std::span<const double> b);

/// Min / max. Precondition: non-empty.
double Min(std::span<const double> xs);
double Max(std::span<const double> xs);

/// Centered moving average with window `w` (odd preferred); edges use the
/// available partial window. Returns a series of the same length.
std::vector<double> MovingAverage(std::span<const double> xs, std::size_t w);

/// z-scores: (x - mean) / sd. Precondition: size >= 2 and sd > 0.
std::vector<double> Standardize(std::span<const double> xs);

}  // namespace sisyphus::stats
