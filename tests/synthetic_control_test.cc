// Tests for classical and robust synthetic control: both must recover a
// known counterfactual when the treated unit is a combination of donors.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "causal/robust_synthetic_control.h"
#include "causal/synthetic_control.h"
#include "core/rng.h"
#include "stats/decomposition.h"
#include "stats/regression.h"

namespace sisyphus::causal {
namespace {

/// Panel where the treated unit is exactly 0.6*donor0 + 0.4*donor1 before
/// treatment, with `effect` added to post periods. Donor factors are
/// smooth trends + diurnal-ish cycles, like RTT series.
struct SyntheticPanel {
  SyntheticControlInput input;
  double true_effect;
};

SyntheticPanel MakePanel(std::size_t periods, std::size_t pre,
                         double effect, double noise_sd, core::Rng& rng,
                         std::size_t extra_donors = 2) {
  SyntheticPanel out;
  out.true_effect = effect;
  const std::size_t donors = 2 + extra_donors;
  stats::Matrix donor_matrix(periods, donors);
  for (std::size_t t = 0; t < periods; ++t) {
    const double cycle = std::sin(2.0 * M_PI * static_cast<double>(t) / 8.0);
    donor_matrix(t, 0) = 20.0 + 3.0 * cycle + noise_sd * rng.Gaussian();
    donor_matrix(t, 1) =
        30.0 + 0.05 * static_cast<double>(t) + noise_sd * rng.Gaussian();
    for (std::size_t j = 2; j < donors; ++j) {
      donor_matrix(t, j) = 15.0 + 2.0 * std::cos(0.3 * static_cast<double>(t) +
                                                 static_cast<double>(j)) +
                           noise_sd * rng.Gaussian();
    }
  }
  out.input.donors = donor_matrix;
  out.input.pre_periods = pre;
  out.input.treated.resize(periods);
  for (std::size_t t = 0; t < periods; ++t) {
    out.input.treated[t] =
        0.6 * donor_matrix(t, 0) + 0.4 * donor_matrix(t, 1) +
        noise_sd * rng.Gaussian() + (t >= pre ? effect : 0.0);
  }
  for (std::size_t j = 0; j < donors; ++j) {
    out.input.donor_names.push_back("donor" + std::to_string(j));
  }
  return out;
}

// ---- Input validation ---------------------------------------------------------

TEST(SyntheticControlInputTest, ValidationCatchesShapeErrors) {
  SyntheticControlInput input;
  input.treated = {1, 2, 3};
  input.donors = stats::Matrix(4, 2);  // wrong period count
  input.pre_periods = 2;
  EXPECT_FALSE(input.Validate().ok());

  input.donors = stats::Matrix(3, 0);  // empty pool
  EXPECT_FALSE(input.Validate().ok());

  input.donors = stats::Matrix(3, 2);
  input.pre_periods = 1;  // too few pre periods
  EXPECT_FALSE(input.Validate().ok());
  input.pre_periods = 3;  // no post periods
  EXPECT_FALSE(input.Validate().ok());

  input.pre_periods = 2;
  input.donor_names = {"a"};  // name count mismatch
  EXPECT_FALSE(input.Validate().ok());
  input.donor_names = {"a", "b"};
  EXPECT_TRUE(input.Validate().ok());
}

// A NaN or Inf anywhere in the panel is an argument error naming the
// series and the period, for every entry point. Unchecked, the classical
// fit throws from ProjectToSimplex, the robust fit reports
// non-convergence after 60 sweeps, and a bad treated post-period yields
// effect = NaN.
TEST(SyntheticControlInputTest, NonFiniteValuesAreRejected) {
  struct Case {
    bool donor;
    std::size_t period;
    double value;
    std::string series;  // expected series label in the message
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const Case& c : {Case{true, 12, nan, "donor 'donor3'"},
                        Case{true, 50, -inf, "donor 'donor3'"},
                        Case{false, 45, nan, "treated series 'unit'"},
                        Case{false, 5, inf, "treated series 'unit'"}}) {
    core::Rng rng(30);
    auto panel = MakePanel(60, 40, 2.0, 0.3, rng, 4);
    panel.input.treated_name = "unit";
    if (c.donor) {
      panel.input.donors(c.period, 3) = c.value;
    } else {
      panel.input.treated[c.period] = c.value;
    }
    const std::string period = "period " + std::to_string(c.period);
    const auto status = panel.input.Validate();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.error().code(), core::ErrorCode::kInvalidArgument);
    EXPECT_NE(status.error().message().find(c.series), std::string::npos)
        << status.error().message();
    EXPECT_NE(status.error().message().find(period), std::string::npos)
        << status.error().message();
    auto classical = FitSyntheticControl(panel.input);
    ASSERT_FALSE(classical.ok());
    EXPECT_EQ(classical.error().code(), core::ErrorCode::kInvalidArgument);
    auto robust = FitRobustSyntheticControl(panel.input);
    ASSERT_FALSE(robust.ok());
    EXPECT_EQ(robust.error().code(), core::ErrorCode::kInvalidArgument);
    EXPECT_NE(robust.error().message().find(period), std::string::npos);
  }
}

// ---- Classical estimator --------------------------------------------------------

TEST(ClassicalSyntheticControlTest, RecoversKnownWeightsNoiseless) {
  core::Rng rng(1);
  const auto panel = MakePanel(60, 40, 5.0, 0.0, rng);
  auto fit = FitSyntheticControl(panel.input);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit.value().weights[0], 0.6, 0.02);
  EXPECT_NEAR(fit.value().weights[1], 0.4, 0.02);
  EXPECT_NEAR(fit.value().average_effect, 5.0, 0.1);
  EXPECT_LT(fit.value().rmse_pre, 0.05);
}

TEST(ClassicalSyntheticControlTest, WeightsOnSimplex) {
  core::Rng rng(2);
  const auto panel = MakePanel(50, 30, 2.0, 0.5, rng, 5);
  auto fit = FitSyntheticControl(panel.input);
  ASSERT_TRUE(fit.ok());
  double sum = 0.0;
  for (double w : fit.value().weights) {
    EXPECT_GE(w, -1e-9);
    sum += w;
  }
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(ClassicalSyntheticControlTest, RecoversEffectUnderNoise) {
  core::Rng rng(3);
  const auto panel = MakePanel(120, 80, 4.0, 0.8, rng);
  auto fit = FitSyntheticControl(panel.input);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit.value().average_effect, 4.0, 0.8);
  EXPECT_GT(fit.value().rmse_ratio, 2.0);  // clear post divergence
}

TEST(ClassicalSyntheticControlTest, NullEffectGivesRatioNearOne) {
  core::Rng rng(4);
  const auto panel = MakePanel(120, 80, 0.0, 0.8, rng);
  auto fit = FitSyntheticControl(panel.input);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit.value().average_effect, 0.0, 0.5);
  EXPECT_LT(fit.value().rmse_ratio, 2.0);
}

TEST(ClassicalSyntheticControlTest, ActiveDonorsFormatting) {
  core::Rng rng(5);
  const auto panel = MakePanel(40, 30, 1.0, 0.0, rng);
  auto fit = FitSyntheticControl(panel.input);
  ASSERT_TRUE(fit.ok());
  const auto active = fit.value().ActiveDonors(0.05);
  ASSERT_EQ(active.size(), 2u);
  EXPECT_EQ(active[0].substr(0, 7), "donor0:");
}

// ---- Robust estimator -------------------------------------------------------------

TEST(RobustSyntheticControlTest, RecoversEffect) {
  core::Rng rng(6);
  const auto panel = MakePanel(120, 80, 4.0, 0.8, rng, 6);
  auto fit = FitRobustSyntheticControl(panel.input);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit.value().base.average_effect, 4.0, 0.8);
  EXPECT_GE(fit.value().retained_rank, 1u);
  EXPECT_LE(fit.value().retained_rank, panel.input.donors.cols());
}

TEST(RobustSyntheticControlTest, DenoisingHelpsUnderHeavyNoise) {
  // With very noisy donors, RSC's low-rank step should track the latent
  // structure at least as well as the classical estimator on average.
  core::Rng rng(7);
  double rsc_error = 0.0, classical_error = 0.0;
  const int reps = 10;
  for (int rep = 0; rep < reps; ++rep) {
    const auto panel = MakePanel(120, 80, 3.0, 2.0, rng, 8);
    auto rsc = FitRobustSyntheticControl(panel.input);
    auto classical = FitSyntheticControl(panel.input);
    ASSERT_TRUE(rsc.ok());
    ASSERT_TRUE(classical.ok());
    rsc_error += std::abs(rsc.value().base.average_effect - 3.0);
    classical_error += std::abs(classical.value().average_effect - 3.0);
  }
  EXPECT_LT(rsc_error / reps, classical_error / reps + 0.5);
}

TEST(RobustSyntheticControlTest, WeightsMayLeaveSimplex) {
  // Treated = 1.5*donor0 - 0.5*donor1: outside the convex hull. The
  // classical estimator cannot fit this pre-period; RSC can.
  core::Rng rng(8);
  const std::size_t periods = 80, pre = 60;
  stats::Matrix donors(periods, 3);
  stats::Vector treated(periods);
  for (std::size_t t = 0; t < periods; ++t) {
    donors(t, 0) = 20.0 + std::sin(0.4 * static_cast<double>(t));
    donors(t, 1) = 10.0 + std::cos(0.3 * static_cast<double>(t));
    donors(t, 2) = 5.0 + 0.01 * static_cast<double>(t);
    treated[t] = 1.5 * donors(t, 0) - 0.5 * donors(t, 1);
  }
  SyntheticControlInput input;
  input.treated = treated;
  input.donors = donors;
  input.pre_periods = pre;
  RobustSyntheticControlOptions options;
  options.singular_value_threshold = 0.0;  // keep full rank: exact fit
  options.ridge_lambda = 1e-8;
  auto rsc = FitRobustSyntheticControl(input, options);
  auto classical = FitSyntheticControl(input);
  ASSERT_TRUE(rsc.ok());
  ASSERT_TRUE(classical.ok());
  EXPECT_LT(rsc.value().base.rmse_pre, 1e-3);
  EXPECT_GT(classical.value().rmse_pre, 0.5);
}

TEST(RobustSyntheticControlTest, ExplicitThresholdControlsRank) {
  core::Rng rng(9);
  const auto panel = MakePanel(60, 40, 0.0, 0.1, rng, 6);
  RobustSyntheticControlOptions options;
  options.singular_value_threshold = 1e9;  // everything below threshold
  options.min_rank = 2;
  auto fit = FitRobustSyntheticControl(panel.input, options);
  ASSERT_TRUE(fit.ok());
  EXPECT_EQ(fit.value().retained_rank, 2u);  // floor respected
}

// The retained-subspace fit (w = V_k Ridge(Z_pre, y, lambda)) against the
// full-width formulation it replaced: ridge on the pre-period rows of the
// explicitly reconstructed denoised matrix U_k S_k V_k^T.
TEST(RobustSyntheticControlTest, ReducedRidgeMatchesFullDenoisedRidge) {
  core::Rng rng(10);
  auto panel = MakePanel(120, 80, 3.0, 0.5, rng, 6);
  RobustSyntheticControlOptions options;
  options.ridge_lambda = 1.0;
  auto fit = FitRobustSyntheticControl(panel.input, options);
  ASSERT_TRUE(fit.ok());

  auto svd = stats::SvdDecompose(panel.input.donors);
  ASSERT_TRUE(svd.ok());
  const double threshold = stats::DefaultSingularValueThreshold(
      svd.value(), panel.input.donors.rows(), panel.input.donors.cols());
  const std::size_t rank = std::max<std::size_t>(
      svd.value().RankAbove(threshold), options.min_rank);
  ASSERT_EQ(fit.value().retained_rank, rank);
  ASSERT_LT(rank, panel.input.donors.cols());  // the reduction is real
  const stats::Matrix denoised = svd.value().TruncatedReconstruct(rank);
  const std::size_t t0 = panel.input.pre_periods;
  stats::OlsOptions no_intercept;
  no_intercept.add_intercept = false;
  auto full = stats::Ridge(denoised.Block(0, t0, 0, denoised.cols()),
                           std::span<const double>(panel.input.treated.data(),
                                                   t0),
                           options.ridge_lambda, no_intercept);
  ASSERT_TRUE(full.ok());
  double scale = 0.0;
  for (double w : full.value()) scale = std::max(scale, std::abs(w));
  ASSERT_GT(scale, 0.0);
  const auto& weights = fit.value().base.weights;
  ASSERT_EQ(weights.size(), full.value().size());
  for (std::size_t j = 0; j < weights.size(); ++j) {
    EXPECT_NEAR(weights[j], full.value()[j], 1e-6 * scale) << "donor " << j;
  }
  const stats::Vector synthetic = denoised.Apply(full.value());
  for (std::size_t t = 0; t < synthetic.size(); ++t) {
    EXPECT_NEAR(fit.value().base.synthetic[t], synthetic[t],
                1e-6 * std::abs(synthetic[t]))
        << "period " << t;
  }
}

// ---- Masked (missing-data) robust estimator -------------------------------

/// Marks a fraction of donor entries unobserved, plus optionally some
/// treated pre-periods. Values stay in place: the estimator must ignore
/// them through the mask, not through luck.
void MaskPanel(SyntheticControlInput& input, double donor_missing,
               core::Rng& rng, std::size_t treated_pre_missing = 0) {
  input.donor_observed =
      stats::Matrix(input.donors.rows(), input.donors.cols(), 1.0);
  for (std::size_t r = 0; r < input.donors.rows(); ++r) {
    for (std::size_t c = 0; c < input.donors.cols(); ++c) {
      if (rng.Bernoulli(donor_missing)) input.donor_observed(r, c) = 0.0;
    }
  }
  input.treated_observed.assign(input.treated.size(), 1.0);
  for (std::size_t i = 0; i < treated_pre_missing; ++i) {
    input.treated_observed[(i * 7) % input.pre_periods] = 0.0;
  }
}

TEST(MaskedRobustSyntheticControlTest, RecoversEffectWithMissingEntries) {
  core::Rng rng(20);
  auto panel = MakePanel(120, 80, 4.0, 0.5, rng, 6);
  MaskPanel(panel.input, 0.25, rng, /*treated_pre_missing=*/10);
  auto fit = FitRobustSyntheticControl(panel.input);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit.value().observed_fraction, 0.75, 0.05);
  // A quarter of the donor entries are gone: expect the right sign and
  // rough size, not clean-data precision (the end-to-end bar lives in
  // fault_resilience_test.cc).
  EXPECT_NEAR(fit.value().base.average_effect, 4.0, 2.0);
  EXPECT_GT(fit.value().base.average_effect, 2.0);
}

TEST(MaskedRobustSyntheticControlTest, MaskCanBeDisabled) {
  core::Rng rng(21);
  auto panel = MakePanel(100, 70, 3.0, 0.3, rng, 4);
  MaskPanel(panel.input, 0.2, rng);
  RobustSyntheticControlOptions options;
  options.use_mask = false;
  auto fit = FitRobustSyntheticControl(panel.input, options);
  ASSERT_TRUE(fit.ok());
  EXPECT_DOUBLE_EQ(fit.value().observed_fraction, 1.0);
}

TEST(MaskedRobustSyntheticControlTest, AllMissingDonorMatrixIsAnError) {
  core::Rng rng(22);
  auto panel = MakePanel(60, 40, 2.0, 0.1, rng);
  panel.input.donor_observed =
      stats::Matrix(panel.input.donors.rows(), panel.input.donors.cols(),
                    0.0);
  auto fit = FitRobustSyntheticControl(panel.input);
  ASSERT_FALSE(fit.ok());
  EXPECT_EQ(fit.error().code(), core::ErrorCode::kNumericalFailure);
  EXPECT_NE(fit.error().message().find("unobserved"), std::string::npos);
}

TEST(MaskedRobustSyntheticControlTest, TooSparseDonorMatrixIsAnError) {
  core::Rng rng(23);
  auto panel = MakePanel(60, 40, 2.0, 0.1, rng);
  // 2% observed < default 5% floor.
  panel.input.donor_observed =
      stats::Matrix(panel.input.donors.rows(), panel.input.donors.cols(),
                    0.0);
  for (std::size_t r = 0; r < panel.input.donors.rows(); r += 50) {
    panel.input.donor_observed(r, 0) = 1.0;
  }
  auto fit = FitRobustSyntheticControl(panel.input);
  ASSERT_FALSE(fit.ok());
  EXPECT_EQ(fit.error().code(), core::ErrorCode::kNumericalFailure);
  EXPECT_NE(fit.error().message().find("too sparse"), std::string::npos);
}

TEST(MaskedRobustSyntheticControlTest, AllMissingTreatedPreIsAnError) {
  core::Rng rng(24);
  auto panel = MakePanel(60, 40, 2.0, 0.1, rng);
  MaskPanel(panel.input, 0.0, rng);
  for (std::size_t t = 0; t < panel.input.pre_periods; ++t) {
    panel.input.treated_observed[t] = 0.0;
  }
  auto fit = FitRobustSyntheticControl(panel.input);
  ASSERT_FALSE(fit.ok());
  EXPECT_EQ(fit.error().code(), core::ErrorCode::kNumericalFailure);
  EXPECT_NE(fit.error().message().find("observed treated pre-periods"),
            std::string::npos);
}

TEST(MaskedRobustSyntheticControlTest, ValidationCatchesMaskShapeErrors) {
  core::Rng rng(25);
  auto panel = MakePanel(40, 30, 1.0, 0.1, rng);
  panel.input.treated_observed.assign(10, 1.0);  // wrong length
  EXPECT_FALSE(panel.input.Validate().ok());
  panel.input.treated_observed.clear();
  panel.input.donor_observed = stats::Matrix(3, 3, 1.0);  // wrong shape
  EXPECT_FALSE(panel.input.Validate().ok());
}

// The overload handed the spectrum of an R factor of the zero-filled
// donors (what the placebo engine passes) fits as the plain call, which
// factorizes those donors itself: bit for bit, since the plain call's SVD
// is Jacobi on that same R. A spectrum without one V row per donor is
// rejected, and a failed SVD is returned once the fit's own checks pass.
TEST(MaskedRobustSyntheticControlTest, RFactorSpectrumMatchesOwnFactorization) {
  core::Rng rng(26);
  auto panel = MakePanel(120, 80, 3.0, 0.5, rng, 6);
  MaskPanel(panel.input, 0.2, rng, /*treated_pre_missing=*/5);
  const RobustSyntheticControlOptions options;
  auto own = FitRobustSyntheticControl(panel.input, options);
  ASSERT_TRUE(own.ok());
  auto qr = stats::QrDecompose(ZeroFilledDonors(panel.input, options));
  ASSERT_TRUE(qr.ok());
  const stats::Matrix& r = qr.value().r;
  auto shared = FitRobustSyntheticControl(panel.input, options,
                                          stats::JacobiSvd(r));
  ASSERT_TRUE(shared.ok());
  EXPECT_EQ(shared.value().retained_rank, own.value().retained_rank);
  EXPECT_EQ(shared.value().observed_fraction, own.value().observed_fraction);
  EXPECT_EQ(shared.value().threshold_used, own.value().threshold_used);
  EXPECT_EQ(shared.value().base.average_effect, own.value().base.average_effect);
  EXPECT_EQ(shared.value().base.rmse_ratio, own.value().base.rmse_ratio);
  EXPECT_EQ(shared.value().base.weights, own.value().base.weights);

  auto narrow = FitRobustSyntheticControl(
      panel.input, options, stats::JacobiSvd(r.Block(0, r.rows(), 1, r.cols())));
  ASSERT_FALSE(narrow.ok());
  EXPECT_EQ(narrow.error().code(), core::ErrorCode::kInvalidArgument);

  const core::Error no_svd(core::ErrorCode::kNumericalFailure,
                           "SvdDecompose: Jacobi sweeps did not converge");
  auto failed = FitRobustSyntheticControl(panel.input, options, no_svd);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.error().message(), no_svd.message());
  SyntheticControlInput unobserved = panel.input;
  unobserved.donor_observed =
      stats::Matrix(unobserved.donors.rows(), unobserved.donors.cols(), 0.0);
  auto checked_first = FitRobustSyntheticControl(unobserved, options, no_svd);
  ASSERT_FALSE(checked_first.ok());
  EXPECT_NE(checked_first.error().message().find("entirely unobserved"),
            std::string::npos);
}

TEST(DiagnoseWeightsTest, EffectAndRmseArithmetic) {
  SyntheticControlInput input;
  input.treated = {1, 1, 3, 3};
  input.donors = stats::Matrix(4, 1, 1.0);  // constant donor
  input.pre_periods = 2;
  auto fit = DiagnoseWeights(input, {1.0});
  EXPECT_DOUBLE_EQ(fit.rmse_pre, 0.0);
  EXPECT_DOUBLE_EQ(fit.rmse_post, 2.0);
  EXPECT_DOUBLE_EQ(fit.average_effect, 2.0);
  ASSERT_EQ(fit.post_effects.size(), 2u);
  EXPECT_GT(fit.rmse_ratio, 1e6);  // guarded division by ~0 pre-RMSE
}

}  // namespace
}  // namespace sisyphus::causal
