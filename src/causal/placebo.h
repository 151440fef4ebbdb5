// Placebo inference for synthetic control — the source of Table 1's
// p-values.
//
// The idea (Abadie et al.): rerun the estimator pretending each *donor*
// was treated at the same period. If the actually-treated unit's
// post/pre RMSE ratio is not unusually large against this placebo
// distribution, the apparent effect is indistinguishable from model noise.
// p = (#{placebo ratio >= treated ratio} + 1) / (#placebos + 1).
#pragma once

#include <functional>
#include <vector>

#include "causal/robust_synthetic_control.h"
#include "causal/synthetic_control.h"
#include "core/result.h"

namespace sisyphus::causal {

struct PlaceboResult {
  /// Fit of the actually treated unit.
  SyntheticControlFit treated_fit;
  /// RMSE ratio of every placebo run (one per usable donor).
  stats::Vector placebo_ratios;
  /// Rank-based p-value of the treated unit's RMSE ratio.
  double p_value = 1.0;
  /// Donors skipped because their placebo fit failed, or because its
  /// pre-RMSE failed the max_pre_rmse_multiple filter.
  std::size_t skipped_donors = 0;
};

/// Which estimator the placebo engine runs.
enum class SyntheticControlMethod { kClassical, kRobust };

struct PlaceboOptions {
  SyntheticControlMethod method = SyntheticControlMethod::kRobust;
  SyntheticControlOptions classical;
  RobustSyntheticControlOptions robust;
  /// Placebos whose pre-RMSE exceeds this multiple of the treated unit's
  /// pre-RMSE are dropped (standard practice: badly-fit placebos inflate
  /// the null distribution). 0 disables the filter.
  double max_pre_rmse_multiple = 5.0;
};

/// The fits both placebo views read: the treated unit's, and one per donor
/// rotation.
struct PlaceboFits {
  SyntheticControlFit treated_fit;
  /// One per donor, in donor order: the fit of the rotation where that
  /// donor plays the treated unit and the pool is the other donors (the
  /// truly treated series is not added to it), or the fit's failure. A
  /// rotation's input is marked `placebo` and names its units after the
  /// input's donor_names, so lineage keeps every donor a donor.
  std::vector<core::Result<SyntheticControlFit>> rotations;
};

/// The placebo engine: fits the treated unit with the chosen estimator,
/// then every donor rotation. Robust fits of a pool with at least as many
/// periods as donors share one QR factorization of the zero-filled donor
/// matrix, and the rotations go to the pool in groups of
/// stats::kJacobiBatchLanes whose leave-one-out spectra one
/// stats::JacobiSvdBatch call takes; wide pools take one SVD per fit
/// (DESIGN.md §4). The result is the same at any lane count.
/// `input` must pass Validate. Fails, before any rotation is fitted, if the
/// shared QR or the treated fit fails, or if `check_treated` (when set)
/// returns an error for the treated fit.
core::Result<PlaceboFits> FitPlaceboRotations(
    const SyntheticControlInput& input, const PlaceboOptions& options,
    const std::function<core::Status(const SyntheticControlFit&)>&
        check_treated = {});

/// Placebo inference on the engine's fits: the rank p-value of the treated
/// unit's RMSE ratio among the rotations' that succeed and pass the
/// max_pre_rmse_multiple filter.
/// Fails if the input does not validate (an overflowing magnitude is a
/// kNumericalFailure), has fewer than 3 donors, the treated fit fails, the
/// treated fit's pre- and post-period RMSE are both below kRmseFloor
/// (kNumericalFailure: the ratio is undefined), or fewer than 2 placebo
/// runs are usable.
core::Result<PlaceboResult> RunPlaceboAnalysis(
    const SyntheticControlInput& input, const PlaceboOptions& options = {});

}  // namespace sisyphus::causal
