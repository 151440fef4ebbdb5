#include "stats/descriptive.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/error.h"

namespace sisyphus::stats {

double Mean(std::span<const double> xs) {
  SISYPHUS_REQUIRE(!xs.empty(), "Mean: empty input");
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double Variance(std::span<const double> xs) {
  SISYPHUS_REQUIRE(xs.size() >= 2, "Variance: need >= 2 samples");
  const double mu = Mean(xs);
  double sum = 0.0;
  for (double x : xs) sum += (x - mu) * (x - mu);
  return sum / static_cast<double>(xs.size() - 1);
}

double StdDev(std::span<const double> xs) { return std::sqrt(Variance(xs)); }

namespace {

/// Moves the elements of xs[lo, hi) that `front` accepts ahead of the
/// others and returns where they end. Branchless Lomuto: each element
/// swaps with the first one not yet known to belong in front -- both
/// belong behind when it does not -- and the boundary advances by the
/// comparison's result, so no branch depends on the data.
template <typename Front>
std::size_t PartitionFront(std::span<double> xs, std::size_t lo,
                           std::size_t hi, Front front) {
  std::size_t boundary = lo;
  for (std::size_t i = lo; i < hi; ++i) {
    const double x = xs[i];
    const bool in_front = front(x);
    xs[i] = xs[boundary];
    xs[boundary] = x;
    boundary += in_front;
  }
  return boundary;
}

/// Permutes xs so that xs[k] holds its k-th smallest value, no value
/// before it is greater and none after it is smaller. Each round splits
/// the range holding k three ways about a median-of-3 pivot (below, equal,
/// above), which always shrinks it, so runs of one value cost one round;
/// past the depth bound std::nth_element finishes the range.
void SelectInPlace(std::span<double> xs, std::size_t k) {
  std::size_t lo = 0;
  std::size_t hi = xs.size();
  for (int depth = 2 * std::bit_width(xs.size()); hi - lo > 1; --depth) {
    if (depth == 0) {
      std::nth_element(xs.begin() + lo, xs.begin() + k, xs.begin() + hi);
      return;
    }
    const double a = xs[lo];
    const double b = xs[lo + (hi - lo) / 2];
    const double c = xs[hi - 1];
    const double pivot = std::max(std::min(a, b), std::min(std::max(a, b), c));
    const std::size_t below = PartitionFront(
        xs, lo, hi, [pivot](double x) { return x < pivot; });
    if (k < below) {
      hi = below;
      continue;
    }
    const std::size_t equal = PartitionFront(
        xs, below, hi, [pivot](double x) { return !(pivot < x); });
    if (k < equal) return;
    lo = equal;
  }
}

}  // namespace

double QuantileInPlace(std::span<double> xs, double q) {
  SISYPHUS_REQUIRE(!xs.empty(), "Quantile: empty input");
  SISYPHUS_REQUIRE(q >= 0.0 && q <= 1.0, "Quantile: q outside [0,1]");
  const std::size_t n = xs.size();
  if (n == 1) return xs.front();
  const double pos = q * static_cast<double>(n - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  SelectInPlace(xs, lo);
  double above = xs[lo];
  if (lo + 1 < n) {
    above = xs[lo + 1];
    for (std::size_t i = lo + 2; i < n; ++i) above = std::min(above, xs[i]);
  }
  return xs[lo] * (1.0 - frac) + above * frac;
}

double Quantile(std::span<const double> xs, double q) {
  std::vector<double> copy(xs.begin(), xs.end());
  return QuantileInPlace(copy, q);
}

double Median(std::span<const double> xs) { return Quantile(xs, 0.5); }

double MedianAbsoluteDeviation(std::span<const double> xs) {
  const double med = Median(xs);
  std::vector<double> deviations(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i)
    deviations[i] = std::abs(xs[i] - med);
  return 1.4826 * Median(deviations);
}

double Covariance(std::span<const double> xs, std::span<const double> ys) {
  SISYPHUS_REQUIRE(xs.size() == ys.size() && xs.size() >= 2,
                   "Covariance: need equal sizes >= 2");
  const double mx = Mean(xs);
  const double my = Mean(ys);
  double sum = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i)
    sum += (xs[i] - mx) * (ys[i] - my);
  return sum / static_cast<double>(xs.size() - 1);
}

double PearsonCorrelation(std::span<const double> xs,
                          std::span<const double> ys) {
  const double sx = StdDev(xs);
  const double sy = StdDev(ys);
  SISYPHUS_REQUIRE(sx > 0.0 && sy > 0.0,
                   "PearsonCorrelation: degenerate series");
  return Covariance(xs, ys) / (sx * sy);
}

double Rmse(std::span<const double> a, std::span<const double> b) {
  SISYPHUS_REQUIRE(a.size() == b.size() && !a.empty(), "Rmse: size mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    sum += (a[i] - b[i]) * (a[i] - b[i]);
  return std::sqrt(sum / static_cast<double>(a.size()));
}

double MeanAbsoluteError(std::span<const double> a,
                         std::span<const double> b) {
  SISYPHUS_REQUIRE(a.size() == b.size() && !a.empty(), "MAE: size mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += std::abs(a[i] - b[i]);
  return sum / static_cast<double>(a.size());
}

double Min(std::span<const double> xs) {
  SISYPHUS_REQUIRE(!xs.empty(), "Min: empty input");
  return *std::min_element(xs.begin(), xs.end());
}

double Max(std::span<const double> xs) {
  SISYPHUS_REQUIRE(!xs.empty(), "Max: empty input");
  return *std::max_element(xs.begin(), xs.end());
}

std::vector<double> MovingAverage(std::span<const double> xs, std::size_t w) {
  SISYPHUS_REQUIRE(w >= 1, "MovingAverage: zero window");
  std::vector<double> out(xs.size(), 0.0);
  const std::ptrdiff_t half = static_cast<std::ptrdiff_t>(w) / 2;
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(xs.size());
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(0, i - half);
    const std::ptrdiff_t hi = std::min(n - 1, i + half);
    double sum = 0.0;
    for (std::ptrdiff_t j = lo; j <= hi; ++j) sum += xs[j];
    out[i] = sum / static_cast<double>(hi - lo + 1);
  }
  return out;
}

std::vector<double> Standardize(std::span<const double> xs) {
  const double mu = Mean(xs);
  const double sd = StdDev(xs);
  SISYPHUS_REQUIRE(sd > 0.0, "Standardize: zero variance");
  std::vector<double> out(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) out[i] = (xs[i] - mu) / sd;
  return out;
}

}  // namespace sisyphus::stats
