// Tests for placebo inference: real effects get low p-values, null
// effects get high ones, and the bookkeeping (skipped donors, pool
// construction) is correct.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "causal/event_study.h"
#include "causal/placebo.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "measure/panel.h"
#include "measure/platform.h"
#include "netsim/scenario_random.h"
#include "obs/metrics.h"
#include "stats/descriptive.h"

namespace sisyphus::causal {
namespace {

SyntheticControlInput MakeInput(std::size_t periods, std::size_t pre,
                                std::size_t donors, double effect,
                                double noise_sd, core::Rng& rng) {
  SyntheticControlInput input;
  input.pre_periods = pre;
  input.donors = stats::Matrix(periods, donors);
  // Donors share two latent factors, like RTT series sharing diurnal and
  // weekly structure.
  std::vector<double> loading1(donors), loading2(donors);
  for (std::size_t j = 0; j < donors; ++j) {
    loading1[j] = 0.5 + rng.NextDouble();
    loading2[j] = rng.NextDouble();
    input.donor_names.push_back("d" + std::to_string(j));
  }
  for (std::size_t t = 0; t < periods; ++t) {
    const double f1 = std::sin(2.0 * M_PI * static_cast<double>(t) / 12.0);
    const double f2 = 0.02 * static_cast<double>(t);
    for (std::size_t j = 0; j < donors; ++j) {
      input.donors(t, j) = 20.0 + 4.0 * loading1[j] * f1 +
                           10.0 * loading2[j] * f2 +
                           noise_sd * rng.Gaussian();
    }
  }
  input.treated.resize(periods);
  for (std::size_t t = 0; t < periods; ++t) {
    const double f1 = std::sin(2.0 * M_PI * static_cast<double>(t) / 12.0);
    const double f2 = 0.02 * static_cast<double>(t);
    input.treated[t] = 20.0 + 4.0 * 0.9 * f1 + 10.0 * 0.5 * f2 +
                       noise_sd * rng.Gaussian() +
                       (t >= pre ? effect : 0.0);
  }
  return input;
}

TEST(PlaceboTest, StrongEffectGetsLowPValue) {
  core::Rng rng(1);
  const auto input = MakeInput(120, 80, 20, 8.0, 0.5, rng);
  auto result = RunPlaceboAnalysis(input);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result.value().p_value, 0.1);
  EXPECT_NEAR(result.value().treated_fit.average_effect, 8.0, 1.5);
}

TEST(PlaceboTest, NullEffectGetsHighPValue) {
  core::Rng rng(2);
  const auto input = MakeInput(120, 80, 20, 0.0, 0.5, rng);
  auto result = RunPlaceboAnalysis(input);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().p_value, 0.1);
}

TEST(PlaceboTest, PValueBoundedBelowByPoolSize) {
  core::Rng rng(3);
  const auto input = MakeInput(80, 60, 10, 50.0, 0.3, rng);
  auto result = RunPlaceboAnalysis(input);
  ASSERT_TRUE(result.ok());
  // With <= 10 placebo runs, p >= 1/11.
  EXPECT_GE(result.value().p_value, 1.0 / 11.0 - 1e-12);
}

TEST(PlaceboTest, RatioPoolHasOneEntryPerUsableDonor) {
  core::Rng rng(4);
  const auto input = MakeInput(80, 60, 12, 1.0, 0.4, rng);
  auto result = RunPlaceboAnalysis(input);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().placebo_ratios.size() +
                result.value().skipped_donors,
            12u);
}

TEST(PlaceboTest, ClassicalMethodAlsoWorks) {
  core::Rng rng(5);
  const auto input = MakeInput(120, 80, 15, 8.0, 0.5, rng);
  PlaceboOptions options;
  options.method = SyntheticControlMethod::kClassical;
  auto result = RunPlaceboAnalysis(input, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result.value().p_value, 0.15);
}

TEST(PlaceboTest, TooFewDonorsRejected) {
  core::Rng rng(6);
  const auto input = MakeInput(40, 30, 2, 1.0, 0.2, rng);
  auto result = RunPlaceboAnalysis(input);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), core::ErrorCode::kInvalidArgument);
}

TEST(PlaceboTest, InvalidInputPropagates) {
  SyntheticControlInput bad;
  bad.treated = {1, 2};
  bad.donors = stats::Matrix(2, 3);
  bad.pre_periods = 0;
  EXPECT_FALSE(RunPlaceboAnalysis(bad).ok());
}

TEST(PlaceboTest, NonFiniteTreatedPostPeriodRejected) {
  // Unchecked, a NaN/Inf post-period yields effect = NaN/Inf and a
  // "significant" p-value.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    core::Rng rng(7);
    auto input = MakeInput(120, 80, 20, 0.0, 0.5, rng);
    input.treated_name = "unit";
    input.treated[100] = bad;
    auto result = RunPlaceboAnalysis(input);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code(), core::ErrorCode::kInvalidArgument);
    EXPECT_NE(result.error().message().find("treated series 'unit'"),
              std::string::npos);
    EXPECT_NE(result.error().message().find("period 100"), std::string::npos);
  }
}

TEST(PlaceboTest, NonFiniteDonorCellRejected) {
  core::Rng rng(8);
  auto input = MakeInput(120, 80, 20, 0.0, 0.5, rng);
  input.donors(30, 4) = std::numeric_limits<double>::quiet_NaN();
  auto result = RunPlaceboAnalysis(input);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), core::ErrorCode::kInvalidArgument);
  EXPECT_NE(result.error().message().find("donor 'd4'"), std::string::npos);
  EXPECT_NE(result.error().message().find("period 30"), std::string::npos);
}

// ---- Degenerate panels: a Status, never an exception or ratio 0 ------------

/// `input` with every treated and donor entry multiplied by `factor`.
SyntheticControlInput Scaled(SyntheticControlInput input, double factor) {
  for (double& value : input.treated) value *= factor;
  for (std::size_t t = 0; t < input.donors.rows(); ++t) {
    for (double& value : input.donors.Row(t)) value *= factor;
  }
  return input;
}

constexpr SyntheticControlMethod kMethods[] = {
    SyntheticControlMethod::kClassical, SyntheticControlMethod::kRobust};

TEST(PlaceboDegenerateTest, OverflowingPanelIsANumericalFailure) {
  // Finite entries of 1e300: every sum of squares a fit forms overflows.
  // Neither method may throw (ProjectToSimplex's precondition) or blame
  // the input for a non-finite entry it does not hold.
  core::Rng rng(70);
  const auto input = Scaled(MakeInput(40, 30, 8, 2.0, 0.5, rng), 1e300);
  ASSERT_TRUE(std::isfinite(input.donors(0, 0)));
  for (const SyntheticControlMethod method : kMethods) {
    PlaceboOptions options;
    options.method = method;
    core::Result<PlaceboResult> result =
        core::Error(core::ErrorCode::kInvalidArgument, "not run");
    ASSERT_NO_THROW(result = RunPlaceboAnalysis(input, options));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code(), core::ErrorCode::kNumericalFailure);
    EXPECT_NE(result.error().message().find("overflow"), std::string::npos)
        << result.error().message();
    EXPECT_EQ(result.error().message().find("non-finite"), std::string::npos)
        << result.error().message();
  }
}

TEST(PlaceboDegenerateTest, ZeroRmsePanelsAreRejectedNotRatioZero) {
  // An all-zero panel, and one scaled to 1e-300 (whose squares underflow),
  // fit with zero error before and after treatment: the RMSE ratio is
  // undefined, not 0 with p = 1.
  core::Rng rng(71);
  const auto base = MakeInput(40, 30, 8, 2.0, 0.5, rng);
  const SyntheticControlInput panels[] = {Scaled(base, 0.0),
                                          Scaled(base, 1e-300)};
  for (const SyntheticControlInput& input : panels) {
    for (const SyntheticControlMethod method : kMethods) {
      PlaceboOptions options;
      options.method = method;
      const auto result = RunPlaceboAnalysis(input, options);
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.error().code(), core::ErrorCode::kNumericalFailure);
      EXPECT_NE(result.error().message().find("below the 1e-09 floor"),
                std::string::npos)
          << result.error().message();
    }
  }
}

// ---- Seeded degenerate panels: finite numbers or a Status ------------------

enum class Degeneracy {
  kConstantDonor,    // one donor's series is flat
  kDuplicateDonors,  // six copies of one donor: rank-deficient factors
                     // that Jacobi deflates, inside one lockstep batch
  kMaskedPrePeriod,  // one donor has no observed pre-period
  kThreeDonors,      // the smallest pool the engine accepts
  kWidePool,         // fewer periods than donors: no shared QR
};

SyntheticControlInput DegeneratePanel(Degeneracy kind, core::Rng& rng) {
  const double effect = 4.0 * rng.NextDouble() - 2.0;
  const double noise = 0.1 + rng.NextDouble();
  switch (kind) {
    case Degeneracy::kThreeDonors:
      return MakeInput(120, 80, 3, effect, noise, rng);
    case Degeneracy::kWidePool:
      return MakeInput(24, 16, 30, effect, noise, rng);
    default:
      break;
  }
  SyntheticControlInput input = MakeInput(120, 80, 14, effect, noise, rng);
  const std::size_t j = static_cast<std::size_t>(rng.NextDouble() * 14.0);
  if (kind == Degeneracy::kConstantDonor) {
    input.donors.SetColumn(j, stats::Vector(input.donors.rows(), 20.0));
  } else if (kind == Degeneracy::kDuplicateDonors) {
    for (std::size_t copy = 1; copy <= 5; ++copy) {
      input.donors.SetColumn((j + copy) % 14, input.donors.Column(j));
    }
  } else {
    input.treated_observed.assign(input.treated.size(), 1.0);
    input.donor_observed =
        stats::Matrix(input.donors.rows(), input.donors.cols(), 1.0);
    for (std::size_t t = 0; t < input.donors.rows(); ++t) {
      for (std::size_t c = 0; c < input.donors.cols(); ++c) {
        if (t < input.pre_periods ? c == j : rng.Bernoulli(0.1)) {
          input.donor_observed(t, c) = 0.0;
        }
      }
    }
  }
  return input;
}

/// Runs a placebo analysis of `input` under both methods: each returns
/// finite numbers or a Status, never a throw or a NaN.
void ExpectFiniteNumbersOrAStatus(const SyntheticControlInput& input) {
  for (const SyntheticControlMethod method : kMethods) {
    SCOPED_TRACE("method " + std::to_string(static_cast<int>(method)));
    PlaceboOptions options;
    options.method = method;
    core::Result<PlaceboResult> result =
        core::Error(core::ErrorCode::kInvalidArgument, "not run");
    ASSERT_NO_THROW(result = RunPlaceboAnalysis(input, options));
    if (!result.ok()) {
      EXPECT_FALSE(result.error().message().empty());
      continue;
    }
    const PlaceboResult& placebo = result.value();
    const SyntheticControlFit& fit = placebo.treated_fit;
    for (const double x : {fit.average_effect, fit.rmse_pre, fit.rmse_post,
                           fit.rmse_ratio, placebo.p_value}) {
      EXPECT_TRUE(std::isfinite(x)) << x;
    }
    for (const stats::Vector* values :
         {&fit.weights, &fit.synthetic, &fit.post_effects,
          &placebo.placebo_ratios}) {
      for (const double x : *values) EXPECT_TRUE(std::isfinite(x)) << x;
    }
    EXPECT_GT(placebo.p_value, 0.0);
    EXPECT_LE(placebo.p_value, 1.0);
    EXPECT_EQ(placebo.placebo_ratios.size() + placebo.skipped_donors,
              input.donors.cols());
  }
}

class PlaceboDegeneratePanelTest : public ::testing::TestWithParam<Degeneracy> {
};

TEST_P(PlaceboDegeneratePanelTest, FiniteNumbersOrAStatusUnderBothMethods) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    core::Rng rng(800 + seed);
    ExpectFiniteNumbersOrAStatus(DegeneratePanel(GetParam(), rng));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, PlaceboDegeneratePanelTest,
    ::testing::Values(Degeneracy::kConstantDonor, Degeneracy::kDuplicateDonors,
                      Degeneracy::kMaskedPrePeriod, Degeneracy::kThreeDonors,
                      Degeneracy::kWidePool));

// Panels of short seeded campaigns over random three-tier internets,
// built by the campaign from its store: a few treated units, each against
// every other kept unit, through both methods.
TEST(PlaceboRandomInternetTest, FiniteNumbersOrAStatusUnderBothMethods) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    netsim::RandomInternetOptions world_options;
    world_options.access_count = 16;
    world_options.seed = seed;
    netsim::RandomInternet world = netsim::BuildRandomInternet(world_options);
    measure::PlatformOptions platform_options;
    platform_options.server = world.content[0];
    measure::Platform platform(*world.simulator, platform_options);
    measure::VantageConfig vantage;
    vantage.baseline_tests_per_day = 12.0;
    vantage.user_tests_per_day = 4.0;
    for (const netsim::PopIndex pop : world.access) {
      vantage.pop = pop;
      platform.AddVantage(vantage);
    }
    measure::StreamingOptions campaign_options;
    campaign_options.panel.periods = 4 * 8;  // 8 days of 6h buckets
    measure::StreamingCampaign campaign(platform_options.validation,
                                        campaign_options);
    core::Rng rng(seed);
    platform.Run(core::SimTime::FromDays(8), rng, campaign);
    const measure::Panel panel = campaign.FinalizePanel();
    ASSERT_GE(panel.units.size(), 6u);

    std::vector<std::string> units;
    for (const measure::UnitSeries& series : panel.units) {
      units.push_back(series.unit);
    }
    for (std::size_t treated = 0; treated < 3; ++treated) {
      SCOPED_TRACE("treated " + units[treated]);
      auto input = measure::MakeSyntheticControlInput(
          panel, units[treated], units, core::SimTime::FromDays(4));
      ASSERT_TRUE(input.ok()) << input.error().message();
      ExpectFiniteNumbersOrAStatus(input.value());
    }
  }
}

// A donor with no observed pre-period is not uniformly missing: zero
// filled and rescaled by 1/p̂, it moved these panels' robust effect by up
// to 204 ms. The fit refuses it by name instead (by index when the input
// has no names), and so does a robust placebo analysis.
TEST(PlaceboMaskedDonorTest, NoObservedPrePeriodFailsTheRobustFit) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    core::Rng rng(800 + seed);
    SyntheticControlInput input =
        DegeneratePanel(Degeneracy::kMaskedPrePeriod, rng);
    std::size_t masked = input.donors.cols();
    for (std::size_t c = 0; c < input.donors.cols(); ++c) {
      if (input.donor_observed(0, c) == 0.0) masked = c;
    }
    ASSERT_LT(masked, input.donors.cols());
    SCOPED_TRACE("seed " + std::to_string(seed) + ", donor " +
                 std::to_string(masked));
    const auto expect_refused = [](const auto& result,
                                   const std::string& donor) {
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.error().code(), core::ErrorCode::kNumericalFailure);
      EXPECT_EQ(result.error().message(),
                "FitRobustSyntheticControl: donor " + donor +
                    " has no observed pre-period");
    };
    const std::string name = "'d" + std::to_string(masked) + "'";
    expect_refused(FitRobustSyntheticControl(input), name);
    PlaceboOptions options;
    options.method = SyntheticControlMethod::kRobust;
    expect_refused(RunPlaceboAnalysis(input, options), name);
    input.donor_names.clear();
    expect_refused(FitRobustSyntheticControl(input), std::to_string(masked));
  }
}

// ---- Shared-QR rotations vs explicitly built leave-one-out fits ------------

/// The placebo input of rotation j, built independently of placebo.cc:
/// donor j becomes the treated series (with its mask), the rest the pool.
SyntheticControlInput LeaveOneOut(const SyntheticControlInput& input,
                                  std::size_t j) {
  SyntheticControlInput out;
  out.pre_periods = input.pre_periods;
  out.treated = input.donors.Column(j);
  std::vector<stats::Vector> pool, masks;
  for (std::size_t c = 0; c < input.donors.cols(); ++c) {
    if (c == j) continue;
    pool.push_back(input.donors.Column(c));
    if (!input.donor_observed.empty()) {
      masks.push_back(input.donor_observed.Column(c));
    }
  }
  out.donors = stats::Matrix::FromColumns(pool);
  if (!input.donor_observed.empty()) {
    out.treated_observed = input.donor_observed.Column(j);
    out.donor_observed = stats::Matrix::FromColumns(masks);
  }
  return out;
}

void ExpectNear(double actual, double expected, const std::string& what) {
  EXPECT_NEAR(actual, expected, 1e-9 * std::max(std::abs(expected), 1e-12))
      << what;
}

/// Every rotation's RMSE ratio and skip decision, and the treated fit,
/// must equal single fits of the explicitly built inputs through
/// FitRobustSyntheticControl; so must every point of the event study of
/// the same input: its gap, and its band edges over the gaps of the
/// rotations that fit.
void ExpectRotationsMatchSingleFits(const SyntheticControlInput& input) {
  const PlaceboOptions options;
  auto result = RunPlaceboAnalysis(input, options);
  ASSERT_TRUE(result.ok()) << result.error().ToText();
  auto treated = FitRobustSyntheticControl(input, options.robust);
  ASSERT_TRUE(treated.ok());
  ExpectNear(result.value().treated_fit.average_effect,
             treated.value().base.average_effect, "treated effect");
  ExpectNear(result.value().treated_fit.rmse_ratio,
             treated.value().base.rmse_ratio, "treated RMSE ratio");
  stats::Vector ratios;
  std::size_t skipped = 0;
  std::vector<stats::Vector> placebo_gaps;  // one per rotation that fits
  for (std::size_t j = 0; j < input.donors.cols(); ++j) {
    const SyntheticControlInput rotation = LeaveOneOut(input, j);
    auto fit = FitRobustSyntheticControl(rotation, options.robust);
    if (fit.ok()) {
      placebo_gaps.push_back(
          stats::Subtract(rotation.treated, fit.value().base.synthetic));
    }
    if (!fit.ok() ||
        fit.value().base.rmse_pre >
            options.max_pre_rmse_multiple *
                std::max(treated.value().base.rmse_pre, 1e-9)) {
      ++skipped;
      continue;
    }
    ratios.push_back(fit.value().base.rmse_ratio);
  }
  EXPECT_EQ(result.value().skipped_donors, skipped);
  ASSERT_EQ(result.value().placebo_ratios.size(), ratios.size());
  for (std::size_t i = 0; i < ratios.size(); ++i) {
    ExpectNear(result.value().placebo_ratios[i], ratios[i],
               "placebo ratio " + std::to_string(i));
  }

  const EventStudyOptions study_options;
  auto study = RunEventStudy(input, study_options);
  ASSERT_TRUE(study.ok()) << study.error().ToText();
  ASSERT_EQ(study.value().points.size(), input.treated.size());
  for (std::size_t t = 0; t < input.treated.size(); ++t) {
    const EventStudyPoint& point = study.value().points[t];
    stats::Vector column;
    for (const stats::Vector& gaps : placebo_gaps) column.push_back(gaps[t]);
    const std::string at = " at period " + std::to_string(t);
    ExpectNear(point.gap, input.treated[t] - treated.value().base.synthetic[t],
               "gap" + at);
    ExpectNear(point.band_low,
               stats::Quantile(column, study_options.band_lower_quantile),
               "band_low" + at);
    ExpectNear(point.band_high,
               stats::Quantile(column, study_options.band_upper_quantile),
               "band_high" + at);
  }
}

TEST(PlaceboRotationTest, UnmaskedPanelMatchesSingleFits) {
  core::Rng rng(60);
  ExpectRotationsMatchSingleFits(MakeInput(120, 80, 20, 3.0, 0.5, rng));
}

TEST(PlaceboRotationTest, MaskedPanelMatchesSingleFits) {
  core::Rng rng(61);
  auto input = MakeInput(120, 80, 16, 3.0, 0.5, rng);
  input.treated_observed.assign(input.treated.size(), 1.0);
  input.donor_observed =
      stats::Matrix(input.donors.rows(), input.donors.cols(), 1.0);
  for (std::size_t t = 0; t < input.donors.rows(); ++t) {
    for (std::size_t j = 0; j < input.donors.cols(); ++j) {
      if (rng.Bernoulli(0.2)) input.donor_observed(t, j) = 0.0;
    }
  }
  // Donor 0 is observed in one pre-period only: too few for its own
  // rotation (min_observed_pre_periods is 2), which must be skipped, and
  // enough to stay in every other fit's pool.
  for (std::size_t t = 0; t < input.pre_periods; ++t) {
    input.donor_observed(t, 0) = t == 0 ? 1.0 : 0.0;
  }
  ExpectRotationsMatchSingleFits(input);
  auto result = RunPlaceboAnalysis(input);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result.value().skipped_donors, 1u);

  // The event study runs the analysis's engine: one shared QR, and the
  // same SVDs and fit attempts.
  obs::Registry::Enable(true);
  const auto counts = [] {
    const obs::Registry& registry = obs::Registry::Global();
    return std::array{registry.CounterValue("stats.qr.calls"),
                      registry.CounterValue("stats.svd.calls"),
                      registry.CounterValue("causal.rsc.fits_attempted")};
  };
  const auto before = counts();
  (void)RunPlaceboAnalysis(input);
  const auto middle = counts();
  (void)RunEventStudy(input);
  const auto after = counts();
  obs::Registry::Enable(false);
  EXPECT_EQ(middle[0] - before[0], 1u) << "stats.qr.calls";
  const char* names[] = {"stats.qr.calls", "stats.svd.calls",
                         "causal.rsc.fits_attempted"};
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(after[k] - middle[k], middle[k] - before[k]) << names[k];
  }
}

TEST(PlaceboRotationTest, DuplicateDonorPanelMatchesSingleFits) {
  // Donors 3 and 9 are the same series: the pool is rank-deficient, and
  // so is every rotation that keeps both.
  core::Rng rng(62);
  auto input = MakeInput(120, 80, 14, 3.0, 0.5, rng);
  input.donors.SetColumn(9, input.donors.Column(3));
  ExpectRotationsMatchSingleFits(input);
}

TEST(PlaceboRotationTest, WidePanelMatchesSingleFits) {
  // Fewer periods than donors: no thin QR, every fit factorizes itself.
  core::Rng rng(63);
  ExpectRotationsMatchSingleFits(MakeInput(24, 16, 30, 3.0, 0.5, rng));
}

TEST(PlaceboRotationTest, EventStudyIsLaneCountInvariant) {
  core::Rng rng(65);
  const auto input = MakeInput(120, 80, 18, 3.0, 0.5, rng);
  const auto run = [&](std::size_t lanes) {
    core::ThreadPool::SetGlobalThreadCount(lanes);
    auto study = RunEventStudy(input);
    core::ThreadPool::SetGlobalThreadCount(0);
    return study;
  };
  const auto serial = run(1);
  const auto parallel = run(8);
  ASSERT_TRUE(serial.ok()) << serial.error().ToText();
  ASSERT_TRUE(parallel.ok());
  const EventStudyResult& a = serial.value();
  const EventStudyResult& b = parallel.value();
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t t = 0; t < a.points.size(); ++t) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.points[t].gap),
              std::bit_cast<std::uint64_t>(b.points[t].gap));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.points[t].band_low),
              std::bit_cast<std::uint64_t>(b.points[t].band_low));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.points[t].band_high),
              std::bit_cast<std::uint64_t>(b.points[t].band_high));
    EXPECT_EQ(a.points[t].outside_band, b.points[t].outside_band);
  }
  EXPECT_EQ(a.pre_exceedance, b.pre_exceedance);
  EXPECT_EQ(a.post_exceedance, b.post_exceedance);
  EXPECT_EQ(a.treated_fit.weights, b.treated_fit.weights);
}

// A rotation whose pool fails the observed-fraction check fails before
// its SVD, so it stays out of its group's lockstep batch: the analysis
// takes the SVDs (spectra and ridge solves) and fit attempts that plain
// fits of its treated and leave-one-out inputs take, and no more.
TEST(PlaceboRotationTest, RotationFailingObservedFractionTakesNoSvd) {
  core::Rng rng(64);
  auto input = MakeInput(120, 80, 8, 3.0, 0.5, rng);
  input.treated_observed.assign(input.treated.size(), 1.0);
  // Donor 0 is fully observed; donors 1..7 only in 3 pre-periods each, so
  // rotation 0's pool has p̂ = 3/120 < 0.05 and every other pool passes.
  input.donor_observed =
      stats::Matrix(input.donors.rows(), input.donors.cols(), 0.0);
  for (std::size_t t = 0; t < input.donors.rows(); ++t) {
    input.donor_observed(t, 0) = 1.0;
  }
  for (std::size_t j = 1; j < input.donors.cols(); ++j) {
    for (std::size_t t = j; t < 60; t += 20) input.donor_observed(t, j) = 1.0;
  }
  const PlaceboOptions options;
  ASSERT_FALSE(RobustObservedFraction(LeaveOneOut(input, 0), options.robust)
                   .ok());
  obs::Registry::Enable(true);
  const auto counts = [] {
    const obs::Registry& registry = obs::Registry::Global();
    return std::pair{registry.CounterValue("stats.svd.calls"),
                     registry.CounterValue("causal.rsc.fits_attempted")};
  };
  const auto before = counts();
  (void)RunPlaceboAnalysis(input, options);
  const auto middle = counts();
  (void)FitRobustSyntheticControl(input, options.robust);
  for (std::size_t j = 0; j < input.donors.cols(); ++j) {
    (void)FitRobustSyntheticControl(LeaveOneOut(input, j), options.robust);
  }
  const auto after = counts();
  obs::Registry::Enable(false);
  EXPECT_EQ(middle.first - before.first, after.first - middle.first)
      << "stats.svd.calls";
  EXPECT_EQ(middle.second - before.second, after.second - middle.second)
      << "causal.rsc.fits_attempted";
  EXPECT_EQ(middle.second - before.second, 9u);
}

// Calibration sweep: under the null, the placebo p-value should be
// roughly uniform — reject at 10% no more than ~a third of the time on
// a handful of seeds (loose, but catches systematic anti-conservatism).
class PlaceboCalibrationTest : public ::testing::TestWithParam<int> {};

TEST_P(PlaceboCalibrationTest, NullNotRejectedAggressively) {
  core::Rng rng(static_cast<std::uint64_t>(50 + GetParam()));
  const auto input = MakeInput(100, 70, 16, 0.0, 0.6, rng);
  auto result = RunPlaceboAnalysis(input);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().p_value, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlaceboCalibrationTest,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace sisyphus::causal
