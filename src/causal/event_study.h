// Event-study view of a synthetic-control analysis.
//
// Table 1 compresses each unit to one number (the mean post-treatment
// gap); an event study keeps the whole trajectory: the observed-minus-
// synthetic gap at every period relative to treatment, with a pointwise
// placebo band (the quantile envelope of the same gap computed on donor
// placebo runs). A real effect shows up as the treated gap leaving the
// band only AFTER the event; a pre-period excursion flags a bad fit —
// the visual diagnostic synthetic-control papers (and the paper's own
// methodology) lean on.
#pragma once

#include "causal/placebo.h"
#include "core/result.h"

namespace sisyphus::causal {

struct EventStudyPoint {
  /// Period index relative to treatment (negative = pre).
  int relative_period = 0;
  double gap = 0.0;         ///< treated observed - synthetic
  double band_low = 0.0;    ///< placebo-gap quantile envelope
  double band_high = 0.0;
  bool outside_band = false;
};

struct EventStudyResult {
  std::vector<EventStudyPoint> points;
  /// Fraction of POST periods where the treated gap leaves the band.
  double post_exceedance = 0.0;
  /// Fraction of PRE periods outside the band (should be ~= the nominal
  /// band miss rate; larger means the synthetic fit is poor).
  double pre_exceedance = 0.0;
  SyntheticControlFit treated_fit;
};

struct EventStudyOptions {
  /// The estimator and its options. The bands take every rotation whose
  /// fit succeeds: placebo.max_pre_rmse_multiple does not filter them.
  PlaceboOptions placebo;
  /// Pointwise band quantiles over placebo gaps, in [0, 1], lower < upper.
  double band_lower_quantile = 0.05;
  double band_upper_quantile = 0.95;
};

/// Takes the treated fit and one fit per donor rotation from the placebo
/// engine (FitPlaceboRotations, the one RunPlaceboAnalysis reads) and
/// assembles the per-period gap series with placebo bands. Fails if the
/// input does not validate, a band quantile is NaN or outside [0, 1] or
/// the two are out of order (kInvalidArgument, before any fit), the
/// engine fails, or fewer than 3 rotations succeed.
core::Result<EventStudyResult> RunEventStudy(
    const SyntheticControlInput& input, const EventStudyOptions& options = {});

}  // namespace sisyphus::causal
