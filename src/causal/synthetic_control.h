// Synthetic control (Abadie et al.): counterfactual estimation for one
// treated unit from a weighted combination of untreated donors.
//
// This is the paper's workhorse for counterfactual reasoning "where
// randomized experiments are impossible and full structural models are
// infeasible" (§3). The classical estimator constrains weights to the
// probability simplex and fits them on the pre-treatment window by
// projected-gradient descent.
#pragma once

#include <string>
#include <vector>

#include "core/result.h"
#include "stats/matrix.h"

namespace sisyphus::causal {

/// Input panel for a synthetic-control estimate.
///
/// `treated` is the outcome series of the unit that received treatment;
/// `donors` is periods x donor-count (column j = donor j's series);
/// `pre_periods` is the number of leading periods before treatment.
struct SyntheticControlInput {
  stats::Vector treated;
  stats::Matrix donors;
  std::vector<std::string> donor_names;  ///< optional; sized 0 or donor count
  std::size_t pre_periods = 0;
  /// Lineage provenance (optional): the treated unit's panel key, and
  /// whether this input is a placebo rotation (its "treated" series is
  /// really a donor standing in). Ignored by the estimators' math.
  std::string treated_name;
  bool placebo = false;

  /// Optional missingness masks (1 = observed, 0 = missing/interpolated).
  /// Empty means fully observed. When present, `treated_observed` is sized
  /// like `treated` and `donor_observed` is shaped like `donors`.
  /// Mask-aware estimators (robust synthetic control) fit on observed
  /// entries only; the classical simplex estimator ignores the masks.
  stats::Vector treated_observed;
  stats::Matrix donor_observed;

  bool HasMask() const {
    return !treated_observed.empty() || !donor_observed.empty();
  }
  /// Fraction of donor entries observed (1.0 without a mask).
  double DonorObservedFraction() const;

  /// Shape/parameter validation shared by both estimators. Also rejects a
  /// NaN or infinite value in `treated` or `donors` (kInvalidArgument,
  /// naming the series and the period), and entries so large that the
  /// sums of squares every fit forms would overflow (kNumericalFailure,
  /// naming the overflow).
  core::Status Validate() const;
};

/// The RMSE below which a fit counts as exact: the RMSE ratio divides by
/// at least this, and a placebo analysis rejects a treated fit whose pre-
/// and post-period RMSE are both below it.
inline constexpr double kRmseFloor = 1e-9;

/// A fitted synthetic control with the paper's diagnostics.
struct SyntheticControlFit {
  stats::Vector weights;     ///< one per donor
  stats::Vector synthetic;   ///< full-length synthetic trajectory
  /// Mean post-period (observed - synthetic): the estimated effect
  /// ("RTT delta" in Table 1).
  double average_effect = 0.0;
  /// Per-post-period effects.
  stats::Vector post_effects;
  double rmse_pre = 0.0;   ///< pre-treatment fit error
  double rmse_post = 0.0;  ///< post-treatment divergence
  /// rmse_post / rmse_pre — Table 1's "RMSE Ratio" diagnostic. A large
  /// value means post-treatment behaviour diverged from the donor pool.
  double rmse_ratio = 0.0;

  /// Donors with weight above `threshold`, as "name:weight" strings.
  std::vector<std::string> ActiveDonors(double threshold = 0.01) const;
  std::vector<std::string> donor_names;  ///< copied from the input
};

struct SyntheticControlOptions {
  std::size_t max_iterations = 2000;
  double tolerance = 1e-10;
};

/// Classical (simplex-constrained) synthetic control.
/// Fails (kInvalidArgument) on shape errors or pre_periods < 2.
core::Result<SyntheticControlFit> FitSyntheticControl(
    const SyntheticControlInput& input,
    const SyntheticControlOptions& options = {});

/// Computes the shared diagnostics (synthetic path, effects, RMSEs) for a
/// given weight vector — used by both estimators and by the placebo runs.
SyntheticControlFit DiagnoseWeights(const SyntheticControlInput& input,
                                    stats::Vector weights);

/// Marks the input's units as used by a successful fit in the lineage
/// ledger (treated_name → treated, or donor for placebo rotations; every
/// named donor → donor). No-op while lineage is disabled or names are
/// absent. Called by both estimators on success; safe inside parallel
/// tasks (a mark sets a flag once, so the marks' order cannot matter).
void MarkFitLineage(const SyntheticControlInput& input);

}  // namespace sisyphus::causal
