#include "causal/placebo.h"

#include <algorithm>
#include <cstdio>
#include <span>
#include <vector>

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

/// Fits `inputs` with the chosen estimator, in order. `factors` is empty,
/// and each robust fit factorizes its own donors, or holds an R factor of
/// each input's zero-filled donors: then the robust fits take their
/// spectra from one stats::JacobiSvdBatch call. An input whose observed
/// fraction fails the fit's checks stays out of the batch and fails them
/// again in its plain fit, before any SVD, as it always did. Validate,
/// the fit's other check before its SVD, passes here: the engine's input
/// passed it, and each rotation's entries are a subset of the input's
/// with a looser overflow limit. The one exception is the empty pool of a
/// one-donor input's rotation, whose empty factor the batch refuses
/// before any sweep.
std::vector<Result<SyntheticControlFit>> FitAll(
    std::span<const SyntheticControlInput> inputs,
    const PlaceboOptions& options, std::vector<stats::Matrix> factors) {
  std::vector<Result<SyntheticControlFit>> fits;
  fits.reserve(inputs.size());
  if (options.method == SyntheticControlMethod::kClassical) {
    for (const SyntheticControlInput& input : inputs) {
      fits.push_back(FitSyntheticControl(input, options.classical));
    }
    return fits;
  }
  constexpr std::size_t kOwnSpectrum = static_cast<std::size_t>(-1);
  std::vector<std::size_t> slot(inputs.size(), kOwnSpectrum);
  std::vector<stats::Matrix> batch;
  for (std::size_t k = 0; k < factors.size(); ++k) {
    if (RobustObservedFraction(inputs[k], options.robust).ok()) {
      slot[k] = batch.size();
      batch.push_back(std::move(factors[k]));
    }
  }
  const auto spectra = stats::JacobiSvdBatch(batch);
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    auto fit = slot[k] == kOwnSpectrum
                   ? FitRobustSyntheticControl(inputs[k], options.robust)
                   : FitRobustSyntheticControl(inputs[k], options.robust,
                                               spectra[slot[k]]);
    if (fit.ok()) {
      fits.push_back(std::move(fit).value().base);
    } else {
      fits.push_back(fit.error());
    }
  }
  return fits;
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

Result<PlaceboFits> FitPlaceboRotations(
    const SyntheticControlInput& input, const PlaceboOptions& options,
    const std::function<core::Status(const SyntheticControlFit&)>&
        check_treated) {
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

  std::vector<stats::Matrix> treated_r;
  if (!shared_r.empty()) treated_r.push_back(shared_r);
  auto treated = FitAll({&input, 1}, options, std::move(treated_r));
  if (!treated[0].ok()) return treated[0].error();
  if (check_treated) {
    if (auto s = check_treated(treated[0].value()); !s.ok()) return s.error();
  }

  // Rotations are independent and deterministic (no RNG), so they fan out
  // across the pool, one task per group of kJacobiBatchLanes donors whose
  // R_-j spectra the lockstep kernel takes at once. Within a task the
  // rotations fit in donor order, and the groups join in group order,
  // making the result identical to the serial loop at any
  // SISYPHUS_THREADS (DESIGN.md §7).
  const std::size_t donors = input.donors.cols();
  constexpr std::size_t kGroup = stats::kJacobiBatchLanes;
  auto groups = core::ParallelMap(
      (donors + kGroup - 1) / kGroup, [&](std::size_t g) {
        std::vector<SyntheticControlInput> placebos;
        std::vector<stats::Matrix> factors;
        for (std::size_t j = g * kGroup; j < std::min(donors, (g + 1) * kGroup);
             ++j) {
          placebos.push_back(PlaceboInput(input, j));
          if (!shared_r.empty()) factors.push_back(WithoutColumn(shared_r, j));
        }
        return FitAll(placebos, options, std::move(factors));
      });
  PlaceboFits out;
  out.treated_fit = std::move(treated[0]).value();
  out.rotations.reserve(donors);
  for (auto& group : groups) {
    for (auto& fit : group) out.rotations.push_back(std::move(fit));
  }
  return out;
}

Result<PlaceboResult> RunPlaceboAnalysis(const SyntheticControlInput& input,
                                         const PlaceboOptions& options) {
  if (auto s = input.Validate(); !s.ok()) return s.error();
  if (input.donors.cols() < 3) {
    return Error(ErrorCode::kInvalidArgument,
                 "RunPlaceboAnalysis: need >= 3 donors for a placebo "
                 "distribution");
  }
  // An exact fit before and after treatment (an all-zero panel, or one
  // whose squares underflow) has no RMSE ratio: 0 over the floor would
  // read as "no effect" with p = 1.
  auto fits = FitPlaceboRotations(
      input, options, [](const SyntheticControlFit& treated) -> core::Status {
        if (treated.rmse_pre < kRmseFloor && treated.rmse_post < kRmseFloor) {
          char detail[192];
          std::snprintf(detail, sizeof(detail),
                        "RunPlaceboAnalysis: the treated fit's pre- and "
                        "post-period RMSE (%g, %g) are both below the %g "
                        "floor, so its RMSE ratio is undefined",
                        treated.rmse_pre, treated.rmse_post, kRmseFloor);
          return Error(ErrorCode::kNumericalFailure, detail);
        }
        return core::Status::Ok();
      });
  if (!fits.ok()) return fits.error();

  // The skip filter runs in donor order on this thread.
  PlaceboResult out;
  out.treated_fit = std::move(fits.value().treated_fit);
  const double max_pre_rmse =
      options.max_pre_rmse_multiple *
      std::max(out.treated_fit.rmse_pre, kRmseFloor);
  for (const Result<SyntheticControlFit>& fit : fits.value().rotations) {
    SISYPHUS_METRIC_COUNT("causal.placebo.runs", 1);
    if (!fit.ok() || (options.max_pre_rmse_multiple > 0.0 &&
                      fit.value().rmse_pre > max_pre_rmse)) {
      SISYPHUS_METRIC_COUNT("causal.placebo.skipped", 1);
      ++out.skipped_donors;
      continue;
    }
    out.placebo_ratios.push_back(fit.value().rmse_ratio);
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
