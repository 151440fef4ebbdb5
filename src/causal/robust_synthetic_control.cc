#include "causal/robust_synthetic_control.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/error.h"
#include "obs/metrics.h"
#include "stats/decomposition.h"
#include "stats/regression.h"

namespace sisyphus::causal {

using core::Error;
using core::ErrorCode;
using core::Result;

stats::Matrix ZeroFilledDonors(const SyntheticControlInput& input,
                               const RobustSyntheticControlOptions& options) {
  stats::Matrix donors = input.donors;
  if (!options.use_mask || input.donor_observed.empty()) return donors;
  for (std::size_t r = 0; r < donors.rows(); ++r) {
    for (std::size_t c = 0; c < donors.cols(); ++c) {
      if (input.donor_observed(r, c) == 0.0) donors(r, c) = 0.0;
    }
  }
  return donors;
}

Result<double> RobustObservedFraction(
    const SyntheticControlInput& input,
    const RobustSyntheticControlOptions& options) {
  if (!options.use_mask || input.donor_observed.empty()) return 1.0;
  const double p_hat = input.DonorObservedFraction();
  if (p_hat == 0.0) {
    return Error(ErrorCode::kNumericalFailure,
                 "FitRobustSyntheticControl: donor matrix entirely "
                 "unobserved");
  }
  if (p_hat < options.min_observed_fraction) {
    return Error(ErrorCode::kNumericalFailure,
                 "FitRobustSyntheticControl: donor matrix too sparse "
                 "(observed fraction " + std::to_string(p_hat) + " < " +
                     std::to_string(options.min_observed_fraction) + ")");
  }
  // A donor with no observed pre-period is not uniformly missing: zero
  // filled and rescaled by 1/p̂, it would drag the fit, so it fails like a
  // treated series short of min_observed_pre_periods.
  const stats::Matrix& observed = input.donor_observed;
  const std::size_t pre = std::min(input.pre_periods, observed.rows());
  for (std::size_t c = 0; c < observed.cols(); ++c) {
    std::size_t t = 0;
    while (t < pre && observed(t, c) == 0.0) ++t;
    if (t == pre) {
      return Error(ErrorCode::kNumericalFailure,
                   "FitRobustSyntheticControl: donor " +
                       (c < input.donor_names.size()
                            ? "'" + input.donor_names[c] + "'"
                            : std::to_string(c)) +
                       " has no observed pre-period");
    }
  }
  return p_hat;
}

namespace {

// The checks every fit makes before it takes the donor spectrum; returns
// p̂. Step 0 of the masked path: unobserved donor entries are zero-filled
// (ZeroFilledDonors), and the rescaled reconstruction (1/p̂) Y_k is an
// unbiased estimate of the low-rank signal under uniform missingness
// (Amjad, Shah & Shen §3).
Result<double> CheckFit(const SyntheticControlInput& input,
                        const RobustSyntheticControlOptions& options) {
  SISYPHUS_METRIC_COUNT("causal.rsc.fits_attempted", 1);
  if (auto s = input.Validate(); !s.ok()) return s.error();
  return RobustObservedFraction(input, options);
}

// The fit body, given the zero-filled donors D, their observed fraction
// p̂ and their spectrum `svd` (or its failure).
Result<RobustSyntheticControlFit> FitFromSpectrum(
    const SyntheticControlInput& input,
    const RobustSyntheticControlOptions& options, const stats::Matrix& donors,
    double p_hat, const Result<stats::SvdDecomposition>& svd) {
  // Step 1: denoise by hard singular-value thresholding. Only the
  // retained right singular vectors V_k are needed: the denoised donors
  // are Z V_k^T with Z = D V_k / p̂ (the 1/p̂ rescale on the masked path).
  if (!svd.ok()) return svd.error();
  double threshold = options.singular_value_threshold;
  if (threshold < 0.0) {
    threshold = stats::DefaultSingularValueThreshold(
        svd.value(), donors.rows(), donors.cols());
  }
  std::size_t rank = svd.value().RankAbove(threshold);
  rank = std::max(rank, std::min(options.min_rank,
                                 svd.value().singular_values.size()));
  const stats::Matrix vk = svd.value().v.Block(0, donors.cols(), 0, rank);
  stats::Matrix z = donors * vk;
  if (options.use_mask && !input.donor_observed.empty()) {
    z = (1.0 / p_hat) * z;
  }

  // Step 2: ridge regression of the treated pre-period series on the
  // denoised donor pre-period columns (no intercept, matching the RSC
  // formulation where the donor span absorbs levels). On the masked path
  // only OBSERVED treated pre-periods enter the regression. The ridge
  // solution lies in span(V_k), so it is V_k times the ridge on Z's rows.
  const std::size_t t0 = input.pre_periods;
  std::vector<std::size_t> rows;
  for (std::size_t t = 0; t < t0; ++t) {
    if (input.treated_observed.empty() || input.treated_observed[t] != 0.0) {
      rows.push_back(t);
    }
  }
  if (!input.treated_observed.empty() &&
      rows.size() < std::max<std::size_t>(options.min_observed_pre_periods,
                                          1)) {
    return Error(ErrorCode::kNumericalFailure,
                 "FitRobustSyntheticControl: only " +
                     std::to_string(rows.size()) +
                     " observed treated pre-periods (need >= " +
                     std::to_string(options.min_observed_pre_periods) + ")");
  }
  stats::Matrix z_pre(rows.size(), rank);
  stats::Vector y_pre(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    z_pre.SetRow(i, z.Row(rows[i]));
    y_pre[i] = input.treated[rows[i]];
  }
  stats::Vector coefficients;  // nothing retained (min_rank 0): zero weights
  if (rank > 0) {
    stats::OlsOptions no_intercept;
    no_intercept.add_intercept = false;
    auto ridge = stats::Ridge(z_pre, y_pre, options.ridge_lambda, no_intercept);
    if (!ridge.ok()) return ridge.error();
    coefficients = std::move(ridge).value();
  }

  // Step 3: the counterfactual is the denoised donors combined with the
  // learned weights across ALL periods: (Z V_k^T)(V_k a) = Z a, so the
  // diagnostics run on the k columns of Z, and the donor weights are
  // w = V_k a.
  SyntheticControlInput reduced;
  reduced.treated = input.treated;
  reduced.treated_observed = input.treated_observed;
  reduced.pre_periods = t0;
  reduced.donors = std::move(z);
  RobustSyntheticControlFit out;
  out.base = DiagnoseWeights(reduced, coefficients);
  out.base.weights = vk.Apply(coefficients);
  out.base.donor_names = input.donor_names;
  out.retained_rank = rank;
  out.threshold_used = threshold;
  out.observed_fraction = p_hat;
  SISYPHUS_METRIC_COUNT("causal.rsc.fits_succeeded", 1);
  // Fit-quality summaries: retained rank is small by construction (hard
  // thresholding), pre-period RMSE is the fit residual headline.
  static obs::Histogram* rank_hist = obs::Registry::Global().GetHistogram(
      "causal.rsc.retained_rank", {1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0});
  rank_hist->Observe(static_cast<double>(rank));
  static obs::Histogram* rmse_hist = obs::Registry::Global().GetHistogram(
      "causal.rsc.pre_rmse_ms",
      {0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0});
  rmse_hist->Observe(out.base.rmse_pre);
  MarkFitLineage(input);
  return out;
}

}  // namespace

Result<RobustSyntheticControlFit> FitRobustSyntheticControl(
    const SyntheticControlInput& input,
    const RobustSyntheticControlOptions& options) {
  const auto p_hat = CheckFit(input, options);
  if (!p_hat.ok()) return p_hat.error();
  const stats::Matrix donors = ZeroFilledDonors(input, options);
  return FitFromSpectrum(input, options, donors, p_hat.value(),
                         stats::SvdDecompose(donors));
}

Result<RobustSyntheticControlFit> FitRobustSyntheticControl(
    const SyntheticControlInput& input,
    const RobustSyntheticControlOptions& options,
    const Result<stats::SvdDecomposition>& donor_svd) {
  const auto p_hat = CheckFit(input, options);
  if (!p_hat.ok()) return p_hat.error();
  if (donor_svd.ok() && donor_svd.value().v.rows() != input.donors.cols()) {
    return Error(ErrorCode::kInvalidArgument,
                 "FitRobustSyntheticControl: donor spectrum has " +
                     std::to_string(donor_svd.value().v.rows()) +
                     " right singular vector rows for " +
                     std::to_string(input.donors.cols()) + " donors");
  }
  return FitFromSpectrum(input, options, ZeroFilledDonors(input, options),
                         p_hat.value(), donor_svd);
}

}  // namespace sisyphus::causal
