#include "causal/event_study.h"

#include "core/error.h"
#include "stats/descriptive.h"

namespace sisyphus::causal {

using core::Error;
using core::ErrorCode;
using core::Result;

Result<EventStudyResult> RunEventStudy(const SyntheticControlInput& input,
                                       const EventStudyOptions& options) {
  if (auto s = input.Validate(); !s.ok()) return s.error();
  const auto in_unit = [](double q) { return q >= 0.0 && q <= 1.0; };
  if (!in_unit(options.band_lower_quantile) ||
      !in_unit(options.band_upper_quantile)) {
    return Error(ErrorCode::kInvalidArgument,
                 "RunEventStudy: band quantiles must lie in [0, 1]");
  }
  if (options.band_lower_quantile >= options.band_upper_quantile) {
    return Error(ErrorCode::kInvalidArgument,
                 "RunEventStudy: band quantiles out of order");
  }
  auto fits = FitPlaceboRotations(input, options.placebo);
  if (!fits.ok()) return fits.error();

  const std::size_t periods = input.treated.size();
  // Placebo gap series, one row per successful rotation: donor j's series
  // minus its synthetic.
  std::vector<std::vector<double>> placebo_gaps;
  for (std::size_t j = 0; j < fits.value().rotations.size(); ++j) {
    const Result<SyntheticControlFit>& fit = fits.value().rotations[j];
    if (!fit.ok()) continue;
    std::vector<double> gaps(periods);
    for (std::size_t t = 0; t < periods; ++t) {
      gaps[t] = input.donors(t, j) - fit.value().synthetic[t];
    }
    placebo_gaps.push_back(std::move(gaps));
  }
  if (placebo_gaps.size() < 3) {
    return Error(ErrorCode::kNumericalFailure,
                 "RunEventStudy: fewer than 3 usable placebo runs");
  }

  EventStudyResult out;
  out.treated_fit = std::move(fits.value().treated_fit);
  out.points.resize(periods);
  std::size_t pre_out = 0, post_out = 0;
  for (std::size_t t = 0; t < periods; ++t) {
    std::vector<double> column(placebo_gaps.size());
    for (std::size_t r = 0; r < placebo_gaps.size(); ++r) {
      column[r] = placebo_gaps[r][t];
    }
    EventStudyPoint& point = out.points[t];
    point.relative_period =
        static_cast<int>(t) - static_cast<int>(input.pre_periods);
    point.gap = input.treated[t] - out.treated_fit.synthetic[t];
    point.band_low = stats::Quantile(column, options.band_lower_quantile);
    point.band_high = stats::Quantile(column, options.band_upper_quantile);
    point.outside_band =
        point.gap < point.band_low || point.gap > point.band_high;
    if (point.outside_band) {
      (t < input.pre_periods ? pre_out : post_out)++;
    }
  }
  out.pre_exceedance = static_cast<double>(pre_out) /
                       static_cast<double>(input.pre_periods);
  out.post_exceedance = static_cast<double>(post_out) /
                        static_cast<double>(periods - input.pre_periods);
  return out;
}

}  // namespace sisyphus::causal
