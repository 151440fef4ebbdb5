// End-to-end integration: a compact version of the Table 1 pipeline
// (simulate -> measure -> detect -> panel -> robust synthetic control ->
// placebo), plus a cross-module check that a large injected effect is
// found and a placebo unit is not flagged.
#include <gtest/gtest.h>

#include "causal/placebo.h"
#include "measure/panel.h"
#include "measure/platform.h"
#include "netsim/scenario_za.h"

namespace sisyphus {
namespace {

using core::SimTime;

struct Pipeline {
  netsim::ScenarioZa scenario;
  std::unique_ptr<measure::Platform> platform;
  std::unique_ptr<measure::StreamingCampaign> campaign;
  measure::Panel panel;

  explicit Pipeline(std::uint64_t seed) {
    netsim::ScenarioZaOptions options;
    options.donor_units = 16;
    options.treatment_time = SimTime::FromDays(14);
    options.horizon = SimTime::FromDays(28);
    options.seed = seed;
    scenario = netsim::BuildScenarioZa(options);

    measure::PlatformOptions platform_options;
    platform_options.server = scenario.content_jnb;
    platform_options.step = SimTime::FromHours(2);
    platform =
        std::make_unique<measure::Platform>(*scenario.simulator,
                                            platform_options);
    measure::VantageConfig vantage;
    vantage.baseline_tests_per_day = 12.0;
    for (const auto& unit : scenario.treated) {
      vantage.pop = unit.access_pop;
      platform->AddVantage(vantage);
    }
    for (netsim::PopIndex donor : scenario.donors) {
      vantage.pop = donor;
      platform->AddVantage(vantage);
    }
    measure::StreamingOptions campaign_options;
    campaign_options.panel.bucket = SimTime::FromHours(6);
    campaign_options.panel.periods = 4 * 28;
    campaign = std::make_unique<measure::StreamingCampaign>(
        platform_options.validation, campaign_options);
    core::Rng rng(seed);
    platform->Run(options.horizon, rng, *campaign);
    panel = campaign->FinalizePanel();
  }
};

TEST(IntegrationTest, FullPipelineProducesTable1Rows) {
  Pipeline pipe(7);
  EXPECT_GE(pipe.panel.units.size(),
            pipe.scenario.treated.size() + 10);

  std::size_t rows = 0;
  for (const auto& unit : pipe.scenario.treated) {
    // Detection: the unit starts crossing the IXP at the treatment time.
    const auto first = pipe.campaign->store().FirstIxpCrossing(
        unit.name, pipe.scenario.napafrica_jnb);
    ASSERT_TRUE(first.has_value()) << unit.name;
    EXPECT_GE(*first, pipe.scenario.options.treatment_time);
    EXPECT_LT(*first,
              pipe.scenario.options.treatment_time + SimTime::FromDays(1));

    auto input = measure::MakeSyntheticControlInput(
        pipe.panel, unit.name, pipe.scenario.donor_names,
        pipe.scenario.options.treatment_time);
    ASSERT_TRUE(input.ok()) << unit.name;
    auto result = causal::RunPlaceboAnalysis(input.value());
    ASSERT_TRUE(result.ok()) << unit.name;
    // Effects are small (single-digit ms) — that's the paper's point.
    EXPECT_LT(std::abs(result.value().treated_fit.average_effect), 15.0);
    EXPECT_GT(result.value().p_value, 0.0);
    EXPECT_LE(result.value().p_value, 1.0);
    ++rows;
  }
  EXPECT_EQ(rows, 8u);
}

TEST(IntegrationTest, LargeInjectedEffectIsDetectedAndPlaceboIsNot) {
  Pipeline pipe(12);
  // Inject a large artificial post-treatment shift into one treated
  // unit's series and rerun: the estimator must find ~the injected size.
  const auto& unit = pipe.scenario.treated[2];  // 37053 / Cape Town
  auto input = measure::MakeSyntheticControlInput(
      pipe.panel, unit.name, pipe.scenario.donor_names,
      pipe.scenario.options.treatment_time);
  ASSERT_TRUE(input.ok());
  causal::SyntheticControlInput boosted = input.value();
  for (std::size_t t = boosted.pre_periods; t < boosted.treated.size(); ++t) {
    boosted.treated[t] += 25.0;
  }
  auto boosted_result = causal::RunPlaceboAnalysis(boosted);
  ASSERT_TRUE(boosted_result.ok());
  auto plain_result = causal::RunPlaceboAnalysis(input.value());
  ASSERT_TRUE(plain_result.ok());
  EXPECT_NEAR(boosted_result.value().treated_fit.average_effect -
                  plain_result.value().treated_fit.average_effect,
              25.0, 2.0);
  EXPECT_LT(boosted_result.value().p_value, 0.1);

  // A donor treated as placebo shows no effect of that size.
  auto placebo_input = measure::MakeSyntheticControlInput(
      pipe.panel, pipe.scenario.donor_names[0], pipe.scenario.donor_names,
      pipe.scenario.options.treatment_time);
  ASSERT_TRUE(placebo_input.ok());
  auto placebo_result = causal::RunPlaceboAnalysis(placebo_input.value());
  ASSERT_TRUE(placebo_result.ok());
  EXPECT_LT(std::abs(placebo_result.value().treated_fit.average_effect),
            10.0);
}

TEST(IntegrationTest, DeterministicForFixedSeed) {
  Pipeline a(3);
  Pipeline b(3);
  ASSERT_EQ(a.campaign->store().size(), b.campaign->store().size());
  ASSERT_EQ(a.panel.units.size(), b.panel.units.size());
  for (std::size_t u = 0; u < a.panel.units.size(); ++u) {
    ASSERT_EQ(a.panel.units[u].unit, b.panel.units[u].unit);
    for (std::size_t t = 0; t < a.panel.units[u].values.size(); ++t) {
      ASSERT_DOUBLE_EQ(a.panel.units[u].values[t], b.panel.units[u].values[t]);
    }
  }
}

TEST(IntegrationTest, IntentMixPresent) {
  netsim::ScenarioZaOptions options;
  options.donor_units = 4;
  options.treatment_time = SimTime::FromDays(3);
  options.horizon = SimTime::FromDays(6);
  auto scenario = netsim::BuildScenarioZa(options);
  measure::PlatformOptions platform_options;
  platform_options.server = scenario.content_jnb;
  platform_options.conditional_activation = true;
  measure::Platform platform(*scenario.simulator, platform_options);
  measure::VantageConfig vantage;
  vantage.baseline_tests_per_day = 10.0;
  vantage.user_tests_per_day = 6.0;
  for (const auto& unit : scenario.treated) {
    vantage.pop = unit.access_pop;
    platform.AddVantage(vantage);
  }
  core::Rng rng(5);
  measure::StreamingCampaign campaign(platform_options.validation, {});
  platform.Run(options.horizon, rng, campaign);
  const measure::ShardedMeasurementStore& store = campaign.store();
  EXPECT_GT(store.CountByIntent(measure::Intent::kBaseline), 0u);
  EXPECT_GT(store.CountByIntent(measure::Intent::kUserInitiated), 0u);
  // The treatment-time route change triggers event bursts.
  EXPECT_GT(store.CountByIntent(measure::Intent::kEventTriggered), 0u);
}

}  // namespace
}  // namespace sisyphus
