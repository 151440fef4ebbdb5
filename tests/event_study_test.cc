// Tests for the event-study view of synthetic control.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "causal/event_study.h"
#include "core/rng.h"
#include "obs/metrics.h"

namespace sisyphus::causal {
namespace {

SyntheticControlInput MakeInput(std::size_t periods, std::size_t pre,
                                std::size_t donors, double effect,
                                double noise_sd, core::Rng& rng) {
  SyntheticControlInput input;
  input.pre_periods = pre;
  input.donors = stats::Matrix(periods, donors);
  std::vector<double> loading(donors);
  for (std::size_t j = 0; j < donors; ++j) loading[j] = 0.5 + rng.NextDouble();
  for (std::size_t t = 0; t < periods; ++t) {
    const double factor = std::sin(2.0 * M_PI * static_cast<double>(t) / 10.0);
    for (std::size_t j = 0; j < donors; ++j) {
      input.donors(t, j) =
          20.0 + 5.0 * loading[j] * factor + noise_sd * rng.Gaussian();
    }
  }
  input.treated.resize(periods);
  for (std::size_t t = 0; t < periods; ++t) {
    const double factor = std::sin(2.0 * M_PI * static_cast<double>(t) / 10.0);
    input.treated[t] = 20.0 + 5.0 * 0.9 * factor + noise_sd * rng.Gaussian() +
                       (t >= pre ? effect : 0.0);
  }
  return input;
}

TEST(EventStudyTest, PointsCoverAllPeriodsWithRelativeIndex) {
  core::Rng rng(1);
  const auto input = MakeInput(60, 40, 12, 5.0, 0.3, rng);
  auto study = RunEventStudy(input);
  ASSERT_TRUE(study.ok());
  ASSERT_EQ(study.value().points.size(), 60u);
  EXPECT_EQ(study.value().points.front().relative_period, -40);
  EXPECT_EQ(study.value().points[40].relative_period, 0);
  EXPECT_EQ(study.value().points.back().relative_period, 19);
}

TEST(EventStudyTest, RealEffectLeavesBandOnlyPostTreatment) {
  core::Rng rng(2);
  const auto input = MakeInput(80, 50, 16, 8.0, 0.4, rng);
  auto study = RunEventStudy(input);
  ASSERT_TRUE(study.ok());
  EXPECT_GT(study.value().post_exceedance, 0.8);
  EXPECT_LT(study.value().pre_exceedance, 0.35);
  // Post-treatment gaps hover near the injected effect.
  double post_gap_sum = 0.0;
  std::size_t post_count = 0;
  for (const auto& point : study.value().points) {
    if (point.relative_period >= 0) {
      post_gap_sum += point.gap;
      ++post_count;
    }
  }
  EXPECT_NEAR(post_gap_sum / static_cast<double>(post_count), 8.0, 1.5);
}

TEST(EventStudyTest, NullEffectStaysMostlyInsideBand) {
  core::Rng rng(3);
  const auto input = MakeInput(80, 50, 16, 0.0, 0.4, rng);
  auto study = RunEventStudy(input);
  ASSERT_TRUE(study.ok());
  EXPECT_LT(study.value().post_exceedance, 0.4);
}

TEST(EventStudyTest, BandsAreOrdered) {
  core::Rng rng(4);
  const auto input = MakeInput(40, 25, 10, 2.0, 0.5, rng);
  auto study = RunEventStudy(input);
  ASSERT_TRUE(study.ok());
  for (const auto& point : study.value().points) {
    EXPECT_LE(point.band_low, point.band_high);
    EXPECT_EQ(point.outside_band,
              point.gap < point.band_low || point.gap > point.band_high);
  }
}

TEST(EventStudyTest, TooFewDonorsRejected) {
  core::Rng rng(5);
  auto tiny = MakeInput(40, 25, 1, 2.0, 0.5, rng);
  EXPECT_FALSE(RunEventStudy(tiny).ok());
}

TEST(EventStudyTest, BadQuantilesRejected) {
  // Out of order, below 0, above 1 and NaN: each is a kInvalidArgument
  // before any fit, never stats::Quantile's precondition throw.
  core::Rng rng(6);
  const auto input = MakeInput(40, 25, 10, 2.0, 0.5, rng);
  const std::pair<double, double> bands[] = {
      {0.9, 0.1},
      {-0.1, 0.95},
      {0.05, 1.5},
      {std::numeric_limits<double>::quiet_NaN(), 0.95}};
  obs::Registry::Enable(true);
  for (const auto& [lower, upper] : bands) {
    SCOPED_TRACE(std::to_string(lower) + ", " + std::to_string(upper));
    EventStudyOptions options;
    options.band_lower_quantile = lower;
    options.band_upper_quantile = upper;
    const auto fits_before = obs::Registry::Global().CounterValue(
        "causal.rsc.fits_attempted");
    core::Result<EventStudyResult> study =
        core::Error(core::ErrorCode::kNotFound, "not run");
    ASSERT_NO_THROW(study = RunEventStudy(input, options));
    ASSERT_FALSE(study.ok());
    EXPECT_EQ(study.error().code(), core::ErrorCode::kInvalidArgument);
    EXPECT_EQ(obs::Registry::Global().CounterValue("causal.rsc.fits_attempted"),
              fits_before);
  }
  obs::Registry::Enable(false);
}

TEST(EventStudyTest, ClassicalMethodSupported) {
  core::Rng rng(7);
  const auto input = MakeInput(60, 40, 12, 6.0, 0.4, rng);
  EventStudyOptions options;
  options.placebo.method = SyntheticControlMethod::kClassical;
  auto study = RunEventStudy(input, options);
  ASSERT_TRUE(study.ok());
  EXPECT_GT(study.value().post_exceedance, 0.5);
}

}  // namespace
}  // namespace sisyphus::causal
