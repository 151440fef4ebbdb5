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
  /// Donors skipped because their placebo fit failed.
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

/// Runs the chosen estimator on the treated unit, then one placebo run per
/// donor (that donor becomes "treated", the true treated unit is NOT added
/// to the pool), and computes the rank p-value. Robust fits of a pool with
/// at least as many periods as donors share one QR factorization of the
/// donor matrix, and the placebo runs go to the pool in groups of four
/// whose leave-one-out spectra one stats::JacobiSvdBatch call takes
/// (DESIGN.md §4).
/// Fails if the input does not validate (an overflowing magnitude is a
/// kNumericalFailure), the treated fit fails, the treated fit's pre- and
/// post-period RMSE are both below kRmseFloor (kNumericalFailure: the
/// ratio is undefined), or fewer than 2 placebo runs succeed.
core::Result<PlaceboResult> RunPlaceboAnalysis(
    const SyntheticControlInput& input, const PlaceboOptions& options = {});

}  // namespace sisyphus::causal
