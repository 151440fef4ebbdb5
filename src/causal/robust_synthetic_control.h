// Robust synthetic control (Amjad, Shah & Shen, JMLR 2018) — the estimator
// the paper's case study uses for Table 1.
//
// Differences from the classical method:
//  1. Denoising: the donor matrix (all periods) is replaced by a low-rank
//     approximation via singular-value hard thresholding, de-emphasizing
//     idiosyncratic noise in individual donors.
//  2. Unconstrained (ridge-regularized) regression of the treated unit's
//     pre-period series on the *denoised* donors — weights may be negative
//     and need not sum to one, which matters when no convex combination of
//     donors tracks the treated unit.
//  3. Missing data: the estimator was designed for PARTIALLY OBSERVED
//     donor matrices. When the input carries missingness masks, unobserved
//     donor entries are zero-filled and the thresholded reconstruction is
//     rescaled by the inverse observed fraction 1/p̂ (the Amjad masked
//     matrix-completion step), and the treated regression uses observed
//     pre-periods only.
#pragma once

#include "causal/synthetic_control.h"
#include "core/result.h"
#include "stats/matrix.h"

namespace sisyphus::causal {

struct RobustSyntheticControlOptions {
  /// Singular values <= threshold are dropped. Negative (default) means
  /// "choose automatically" via the universal-threshold heuristic.
  double singular_value_threshold = -1.0;
  /// Ridge penalty on the donor regression.
  double ridge_lambda = 1e-2;
  /// Keep at least this many singular values regardless of threshold.
  std::size_t min_rank = 1;
  /// Use the masked/rescaled path when the input carries masks. Off, the
  /// estimator treats interpolated entries as real measurements.
  bool use_mask = true;
  /// Donor matrices with a smaller observed fraction fail with
  /// kNumericalFailure instead of returning meaningless estimates.
  double min_observed_fraction = 0.05;
  /// Minimum observed treated pre-periods for the masked regression.
  std::size_t min_observed_pre_periods = 2;
};

struct RobustSyntheticControlFit {
  SyntheticControlFit base;      ///< weights, trajectory, diagnostics
  std::size_t retained_rank = 0; ///< singular values kept by the threshold
  double threshold_used = 0.0;
  /// Observed fraction p̂ of the donor matrix (1.0 without a mask).
  double observed_fraction = 1.0;
};

/// Fits robust synthetic control. Same input contract as
/// FitSyntheticControl.
///
/// The fit works in the retained right-singular subspace. With D the
/// zero-filled donor matrix, V_k its top-k right singular vectors and
/// Z = D V_k / p̂, the denoised donors are Z V_k^T, and the ridge on their
/// pre-period rows is exactly w = V_k Ridge(Z_pre, y_pre, lambda): a k x k
/// solve, and U is never formed (DESIGN.md §4).
core::Result<RobustSyntheticControlFit> FitRobustSyntheticControl(
    const SyntheticControlInput& input,
    const RobustSyntheticControlOptions& options = {});

/// The donor matrix the estimator factorizes: `input.donors` with the
/// unobserved entries zeroed when the masked path applies (use_mask and a
/// donor mask present).
stats::Matrix ZeroFilledDonors(const SyntheticControlInput& input,
                               const RobustSyntheticControlOptions& options);

/// FitRobustSyntheticControl with the donor spectrum taken from `donor_r`,
/// an R factor of the zero-filled donors D (D = Q R with orthonormal Q, so
/// R has D's singular values and right singular vectors), instead of
/// factorizing D itself. RunPlaceboAnalysis passes one shared R, with the
/// rotated donor's column deleted. The result equals the plain call's up
/// to rounding. Fails (kInvalidArgument) if `donor_r` does not have one
/// column per donor or has fewer rows than columns.
core::Result<RobustSyntheticControlFit> FitRobustSyntheticControl(
    const SyntheticControlInput& input,
    const RobustSyntheticControlOptions& options,
    const stats::Matrix& donor_r);

}  // namespace sisyphus::causal
