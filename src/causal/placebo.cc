#include "causal/placebo.h"

#include <algorithm>
#include <cstdio>

#include "core/error.h"
#include "core/parallel.h"
#include "obs/metrics.h"
#include "stats/decomposition.h"
#include "stats/inference.h"

namespace sisyphus::causal {

using core::Error;
using core::ErrorCode;
using core::Result;

namespace {

/// `m` without column `j`.
stats::Matrix WithoutColumn(const stats::Matrix& m, std::size_t j) {
  stats::Matrix out(m.rows(), m.cols() - 1);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const auto row = m.Row(r);
    auto dst = out.Row(r);
    std::copy(row.begin(), row.begin() + j, dst.begin());
    std::copy(row.begin() + j + 1, row.end(), dst.begin() + j);
  }
  return out;
}

/// Fits `input` with the chosen estimator. A robust fit takes its donor
/// spectrum from `donor_r`, the R factor of its zero-filled donors, or
/// factorizes those donors itself when `donor_r` is empty.
Result<SyntheticControlFit> FitWithMethod(const SyntheticControlInput& input,
                                          const PlaceboOptions& options,
                                          const stats::Matrix& donor_r) {
  if (options.method == SyntheticControlMethod::kClassical) {
    return FitSyntheticControl(input, options.classical);
  }
  auto fit = donor_r.empty()
                 ? FitRobustSyntheticControl(input, options.robust)
                 : FitRobustSyntheticControl(input, options.robust, donor_r);
  if (!fit.ok()) return fit.error();
  return std::move(fit).value().base;
}

/// Builds the placebo input where donor `j` plays the treated unit; the
/// pool is all other donors (the truly-treated series is excluded so its
/// real effect cannot contaminate the null). Missingness masks follow the
/// series, so placebo runs over ragged donors stay mask-aware.
SyntheticControlInput PlaceboInput(const SyntheticControlInput& input,
                                   std::size_t j) {
  SyntheticControlInput out;
  out.pre_periods = input.pre_periods;
  out.placebo = true;  // donor j stands in as treated; lineage keeps it a donor
  if (!input.donor_names.empty()) out.treated_name = input.donor_names[j];
  out.treated = input.donors.Column(j);
  out.donors = WithoutColumn(input.donors, j);
  if (!input.donor_observed.empty()) {
    out.treated_observed = input.donor_observed.Column(j);
    out.donor_observed = WithoutColumn(input.donor_observed, j);
  }
  for (std::size_t c = 0; c < input.donor_names.size(); ++c) {
    if (c != j) out.donor_names.push_back(input.donor_names[c]);
  }
  return out;
}

}  // namespace

Result<PlaceboResult> RunPlaceboAnalysis(const SyntheticControlInput& input,
                                         const PlaceboOptions& options) {
  if (auto s = input.Validate(); !s.ok()) return s.error();
  if (input.donors.cols() < 3) {
    return Error(ErrorCode::kInvalidArgument,
                 "RunPlaceboAnalysis: need >= 3 donors for a placebo "
                 "distribution");
  }

  // Robust fits of a tall pool take their spectra from one QR of the
  // zero-filled donor matrix, D = Q R: the treated fit from R, and the
  // rotation that drops donor j from R_-j (R without column j). Since
  // D_-j = Q R_-j and Q has orthonormal columns, R_-j has the singular
  // values and right singular vectors of D_-j. p̂ and the threshold stay
  // per fit. Wide pools (rows < cols) have no thin QR, so each of their
  // fits factorizes its own donor matrix.
  stats::Matrix shared_r;  // stays empty when every fit factorizes its own
  if (options.method == SyntheticControlMethod::kRobust &&
      input.donors.rows() >= input.donors.cols()) {
    auto qr = stats::QrDecompose(ZeroFilledDonors(input, options.robust));
    if (!qr.ok()) return qr.error();
    shared_r = std::move(qr.value().r);
  }

  PlaceboResult out;
  auto treated = FitWithMethod(input, options, shared_r);
  if (!treated.ok()) return treated.error();
  out.treated_fit = std::move(treated).value();
  // An exact fit before and after treatment (an all-zero panel, or one
  // whose squares underflow) has no RMSE ratio: 0 over the floor would
  // read as "no effect" with p = 1.
  if (out.treated_fit.rmse_pre < kRmseFloor &&
      out.treated_fit.rmse_post < kRmseFloor) {
    char detail[192];
    std::snprintf(detail, sizeof(detail),
                  "RunPlaceboAnalysis: the treated fit's pre- and "
                  "post-period RMSE (%g, %g) are both below the %g floor, "
                  "so its RMSE ratio is undefined",
                  out.treated_fit.rmse_pre, out.treated_fit.rmse_post,
                  kRmseFloor);
    return Error(ErrorCode::kNumericalFailure, detail);
  }

  // Donor placebo fits are independent and deterministic (no RNG), so they
  // fan out across the pool; the skip-filter reduction below runs in donor
  // index order on this thread, making the result identical to the serial
  // loop at any SISYPHUS_THREADS (DESIGN.md §7).
  struct PlaceboRun {
    bool ok = false;
    double rmse_ratio = 0.0;
    double rmse_pre = 0.0;
  };
  const auto runs =
      core::ParallelMap(input.donors.cols(), [&](std::size_t j) {
        const SyntheticControlInput placebo = PlaceboInput(input, j);
        SISYPHUS_METRIC_COUNT("causal.placebo.runs", 1);
        PlaceboRun run;
        auto fit = FitWithMethod(
            placebo, options,
            shared_r.empty() ? shared_r : WithoutColumn(shared_r, j));
        if (fit.ok()) {
          run.ok = true;
          run.rmse_ratio = fit.value().rmse_ratio;
          run.rmse_pre = fit.value().rmse_pre;
        }
        return run;
      });
  for (const PlaceboRun& run : runs) {
    if (!run.ok) {
      SISYPHUS_METRIC_COUNT("causal.placebo.skipped", 1);
      ++out.skipped_donors;
      continue;
    }
    if (options.max_pre_rmse_multiple > 0.0 &&
        run.rmse_pre > options.max_pre_rmse_multiple *
                           std::max(out.treated_fit.rmse_pre, kRmseFloor)) {
      SISYPHUS_METRIC_COUNT("causal.placebo.skipped", 1);
      ++out.skipped_donors;
      continue;
    }
    out.placebo_ratios.push_back(run.rmse_ratio);
  }
  if (out.placebo_ratios.size() < 2) {
    return Error(ErrorCode::kNumericalFailure,
                 "RunPlaceboAnalysis: fewer than 2 usable placebo runs");
  }
  out.p_value = stats::EmpiricalUpperPValue(out.treated_fit.rmse_ratio,
                                            out.placebo_ratios);
  return out;
}

}  // namespace sisyphus::causal
