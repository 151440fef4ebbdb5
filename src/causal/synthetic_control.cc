#include "causal/synthetic_control.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "core/error.h"
#include "obs/lineage.h"

namespace sisyphus::causal {

using core::Error;
using core::ErrorCode;
using core::Result;

core::Status SyntheticControlInput::Validate() const {
  if (donors.rows() != treated.size()) {
    return Error(ErrorCode::kInvalidArgument,
                 "SyntheticControlInput: donor periods (" +
                     std::to_string(donors.rows()) + ") != treated periods (" +
                     std::to_string(treated.size()) + ")");
  }
  if (donors.cols() == 0) {
    return Error(ErrorCode::kInvalidArgument,
                 "SyntheticControlInput: empty donor pool");
  }
  if (pre_periods < 2 || pre_periods >= treated.size()) {
    return Error(ErrorCode::kInvalidArgument,
                 "SyntheticControlInput: need 2 <= pre_periods < periods");
  }
  if (!donor_names.empty() && donor_names.size() != donors.cols()) {
    return Error(ErrorCode::kInvalidArgument,
                 "SyntheticControlInput: donor_names size mismatch");
  }
  if (!treated_observed.empty() &&
      treated_observed.size() != treated.size()) {
    return Error(ErrorCode::kInvalidArgument,
                 "SyntheticControlInput: treated_observed size mismatch");
  }
  if (!donor_observed.empty() &&
      (donor_observed.rows() != donors.rows() ||
       donor_observed.cols() != donors.cols())) {
    return Error(ErrorCode::kInvalidArgument,
                 "SyntheticControlInput: donor_observed shape mismatch");
  }
  // A NaN or Inf would otherwise surface as a NaN effect, a confident
  // placebo p-value, or an exception deep inside an estimator.
  const auto non_finite = [](const std::string& series, std::size_t period,
                             double value) {
    return Error(ErrorCode::kInvalidArgument,
                 "SyntheticControlInput: " + series + " is " +
                     std::to_string(value) + " at period " +
                     std::to_string(period));
  };
  double largest = 0.0;
  for (std::size_t t = 0; t < treated.size(); ++t) {
    if (!std::isfinite(treated[t])) {
      return non_finite(treated_name.empty()
                            ? std::string("treated series")
                            : "treated series '" + treated_name + "'",
                        t, treated[t]);
    }
    largest = std::max(largest, std::abs(treated[t]));
  }
  for (std::size_t t = 0; t < donors.rows(); ++t) {
    const auto row = donors.Row(t);
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (!std::isfinite(row[c])) {
        return non_finite(donor_names.empty()
                              ? "donor " + std::to_string(c)
                              : "donor '" + donor_names[c] + "'",
                          t, row[c]);
      }
      largest = std::max(largest, std::abs(row[c]));
    }
  }
  // Every fit sums squares of the entries and of gaps between them (norms,
  // Gram products, RMSEs) over at most periods x (donors + 1) terms. Past
  // this magnitude those sums overflow, and the estimators would fail deep
  // inside (a simplex projection's precondition, a decomposition's
  // "non-finite entry") on input that is finite.
  const double limit = std::sqrt(
      std::numeric_limits<double>::max() /
      (4.0 * static_cast<double>(treated.size()) *
       static_cast<double>(donors.cols() + 1)));
  if (largest > limit) {
    char detail[256];
    std::snprintf(detail, sizeof(detail),
                  "SyntheticControlInput: entries up to %g overflow the "
                  "fits' sums of squares (limit %g for %zu periods x %zu "
                  "donors)",
                  largest, limit, treated.size(), donors.cols());
    return Error(ErrorCode::kNumericalFailure, detail);
  }
  return core::Status::Ok();
}

double SyntheticControlInput::DonorObservedFraction() const {
  if (donor_observed.empty()) return 1.0;
  std::size_t observed = 0;
  for (std::size_t r = 0; r < donor_observed.rows(); ++r) {
    for (double entry : donor_observed.Row(r)) {
      if (entry != 0.0) ++observed;
    }
  }
  return static_cast<double>(observed) /
         static_cast<double>(donor_observed.rows() * donor_observed.cols());
}

std::vector<std::string> SyntheticControlFit::ActiveDonors(
    double threshold) const {
  std::vector<std::string> out;
  char buffer[128];
  for (std::size_t j = 0; j < weights.size(); ++j) {
    if (std::abs(weights[j]) <= threshold) continue;
    const std::string name =
        j < donor_names.size() ? donor_names[j] : "donor" + std::to_string(j);
    std::snprintf(buffer, sizeof(buffer), "%s:%.3f", name.c_str(), weights[j]);
    out.emplace_back(buffer);
  }
  return out;
}

SyntheticControlFit DiagnoseWeights(const SyntheticControlInput& input,
                                    stats::Vector weights) {
  SISYPHUS_REQUIRE(weights.size() == input.donors.cols(),
                   "DiagnoseWeights: weight count != donor count");
  SyntheticControlFit fit;
  fit.weights = std::move(weights);
  fit.donor_names = input.donor_names;
  const std::size_t periods = input.treated.size();
  fit.synthetic = input.donors.Apply(fit.weights);

  // With a treated-side mask, errors and effects are computed on observed
  // periods only — interpolated entries are artifacts, not measurements.
  // If a whole segment is unobserved, fall back to all its periods rather
  // than returning NaNs.
  const auto observed_at = [&](std::size_t t) {
    return input.treated_observed.empty() || input.treated_observed[t] != 0.0;
  };
  const auto masked_rmse = [&](std::size_t begin, std::size_t end) {
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t t = begin; t < end; ++t) {
      if (!observed_at(t)) continue;
      const double gap = input.treated[t] - fit.synthetic[t];
      sum += gap * gap;
      ++n;
    }
    if (n == 0) {
      for (std::size_t t = begin; t < end; ++t) {
        const double gap = input.treated[t] - fit.synthetic[t];
        sum += gap * gap;
        ++n;
      }
    }
    return std::sqrt(sum / static_cast<double>(n));
  };
  fit.rmse_pre = masked_rmse(0, input.pre_periods);
  fit.rmse_post = masked_rmse(input.pre_periods, periods);
  // Guard the ratio against a (near-)perfect pre fit.
  fit.rmse_ratio = fit.rmse_post / std::max(fit.rmse_pre, kRmseFloor);

  fit.post_effects.resize(periods - input.pre_periods);
  double sum = 0.0;
  std::size_t observed_post = 0;
  for (std::size_t t = input.pre_periods; t < periods; ++t) {
    const double effect = input.treated[t] - fit.synthetic[t];
    fit.post_effects[t - input.pre_periods] = effect;
    if (observed_at(t)) {
      sum += effect;
      ++observed_post;
    }
  }
  if (observed_post == 0) {
    for (double effect : fit.post_effects) sum += effect;
    observed_post = fit.post_effects.size();
  }
  fit.average_effect = sum / static_cast<double>(observed_post);
  return fit;
}

Result<SyntheticControlFit> FitSyntheticControl(
    const SyntheticControlInput& input,
    const SyntheticControlOptions& options) {
  if (auto s = input.Validate(); !s.ok()) return s.error();

  const std::size_t t0 = input.pre_periods;
  const std::size_t donors = input.donors.cols();
  const stats::Matrix x = input.donors.Block(0, t0, 0, donors);
  std::span<const double> y(input.treated.data(), t0);

  // Projected gradient descent on f(w) = ||y - X w||^2 / t0 over the
  // simplex. Lipschitz constant of the gradient bounded by
  // 2 ||X||_F^2 / t0.
  const double fro = x.FrobeniusNorm();
  const double lipschitz =
      std::max(1e-12, 2.0 * fro * fro / static_cast<double>(t0));
  const double step = 1.0 / lipschitz;

  stats::Vector w(donors, 1.0 / static_cast<double>(donors));
  double previous_objective = std::numeric_limits<double>::infinity();
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    // gradient = 2 X^T (X w - y) / t0
    stats::Vector fitted = x.Apply(w);
    stats::Vector residual = stats::Subtract(fitted, y);
    stats::Vector gradient = x.ApplyTransposed(residual);
    for (double& g : gradient) g *= 2.0 / static_cast<double>(t0);

    stats::Vector candidate(donors);
    for (std::size_t j = 0; j < donors; ++j)
      candidate[j] = w[j] - step * gradient[j];
    w = stats::ProjectToSimplex(candidate);

    const double objective =
        stats::Dot(residual, residual) / static_cast<double>(t0);
    if (std::abs(previous_objective - objective) < options.tolerance) break;
    previous_objective = objective;
  }
  MarkFitLineage(input);
  return DiagnoseWeights(input, std::move(w));
}

void MarkFitLineage(const SyntheticControlInput& input) {
  if (!obs::Lineage::enabled()) return;
  obs::Lineage& lineage = obs::Lineage::Global();
  if (!input.treated_name.empty()) {
    // A placebo rotation fits a donor as if treated; it must not promote
    // that donor's records to the treated terminal state.
    if (input.placebo) {
      lineage.MarkDonor(input.treated_name);
    } else {
      lineage.MarkTreated(input.treated_name);
    }
  }
  for (const std::string& donor : input.donor_names) {
    lineage.MarkDonor(donor);
  }
}

}  // namespace sisyphus::causal
