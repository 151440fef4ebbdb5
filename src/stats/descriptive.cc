#include "stats/descriptive.h"

#include <algorithm>
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

double Quantile(std::span<const double> xs, double q) {
  SISYPHUS_REQUIRE(!xs.empty(), "Quantile: empty input");
  SISYPHUS_REQUIRE(q >= 0.0 && q <= 1.0, "Quantile: q outside [0,1]");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
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
