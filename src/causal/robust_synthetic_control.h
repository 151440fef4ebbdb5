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
#include "stats/decomposition.h"
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
/// solve, and U is never formed (DESIGN.md §4). This overload takes D's
/// spectrum with stats::SvdDecompose; the one below is handed it.
core::Result<RobustSyntheticControlFit> FitRobustSyntheticControl(
    const SyntheticControlInput& input,
    const RobustSyntheticControlOptions& options = {});

/// The donor matrix the estimator factorizes: `input.donors` with the
/// unobserved entries zeroed when the masked path applies (use_mask and a
/// donor mask present).
stats::Matrix ZeroFilledDonors(const SyntheticControlInput& input,
                               const RobustSyntheticControlOptions& options);

/// The observed fraction p̂ of the donor matrix (1.0 off the masked path),
/// or the kNumericalFailure a fit returns before it takes any SVD: p̂ is 0,
/// or below options.min_observed_fraction, or a donor has no observed cell
/// in the pre-period (the error names the donor, by its index when the
/// input has no names). With input.Validate(), these
/// are every check FitRobustSyntheticControl makes before the donor
/// spectrum, so the placebo engine (FitPlaceboRotations) uses it to leave
/// a rotation that would fail them out of its SVD batch.
core::Result<double> RobustObservedFraction(
    const SyntheticControlInput& input,
    const RobustSyntheticControlOptions& options);

/// FitRobustSyntheticControl with the donor spectrum already taken:
/// `donor_svd` is an SVD of the zero-filled donors D or of an R factor of
/// D (D = Q R with orthonormal Q, so R has D's singular values and right
/// singular vectors), or that SVD's failure, which the fit returns once
/// its own checks pass. The placebo engine (FitPlaceboRotations) passes
/// the spectra of one shared R and of its leave-one-out factors, taken in
/// lockstep batches (stats::JacobiSvdBatch). The result equals the plain
/// call's up to rounding. Fails (kInvalidArgument) if the spectrum's V
/// does not have one row per donor.
core::Result<RobustSyntheticControlFit> FitRobustSyntheticControl(
    const SyntheticControlInput& input,
    const RobustSyntheticControlOptions& options,
    const core::Result<stats::SvdDecomposition>& donor_svd);

}  // namespace sisyphus::causal
