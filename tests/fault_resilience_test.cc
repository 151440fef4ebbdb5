// End-to-end degraded-data acceptance: the Table 1 pipeline (ScenarioZa
// campaign -> panel -> masked robust synthetic control) run under the
// fault plan from DESIGN.md's failure model — 20% random probe loss plus
// two 10-period vantage outages — must stay within 25% relative error of
// the clean estimate, and a fixed FaultPlan seed must replay a
// byte-identical record stream. Mirrors bench/exp_fault_resilience.cc.
#include <gtest/gtest.h>

#include <cmath>

#include "causal/robust_synthetic_control.h"
#include "measure/faults.h"
#include "measure/panel.h"
#include "measure/platform.h"
#include "netsim/scenario_za.h"

namespace sisyphus {
namespace {

struct CampaignResult {
  double mean_effect = 0.0;
  std::size_t units_fit = 0;
  std::size_t quarantined = 0;
  std::string store_csv;
};

CampaignResult RunCampaign(const measure::FaultPlan* plan,
                           bool keep_csv = false) {
  netsim::ScenarioZaOptions scenario_options;
  netsim::ScenarioZa scenario = netsim::BuildScenarioZa(scenario_options);

  measure::PlatformOptions platform_options;
  platform_options.server = scenario.content_jnb;
  platform_options.step = core::SimTime::FromHours(1);
  measure::Platform platform(*scenario.simulator, platform_options);

  // Dense schedule: per-bucket medians must be tight enough that the
  // 25% budget measures fault-induced bias, not sampling noise (the
  // bench prints the reseeding noise floor for exactly this reason).
  measure::VantageConfig vantage;
  vantage.baseline_tests_per_day = 40.0;
  vantage.user_tests_per_day = 4.0;
  for (const auto& unit : scenario.treated) {
    vantage.pop = unit.access_pop;
    platform.AddVantage(vantage);
  }
  for (netsim::PopIndex donor : scenario.donors) {
    vantage.pop = donor;
    platform.AddVantage(vantage);
  }

  measure::FaultInjector injector(plan != nullptr ? *plan
                                                  : measure::FaultPlan{});
  if (plan != nullptr) platform.SetFaultInjector(&injector);

  measure::StreamingOptions campaign_options;
  campaign_options.panel.bucket = core::SimTime::FromHours(6);
  campaign_options.panel.periods = static_cast<std::size_t>(
      scenario_options.horizon.minutes() /
      campaign_options.panel.bucket.minutes());
  measure::StreamingCampaign campaign(platform_options.validation,
                                      campaign_options);
  core::Rng rng(scenario_options.seed);
  platform.Run(scenario_options.horizon, rng, campaign);
  const measure::Panel panel = campaign.FinalizePanel();

  CampaignResult out;
  out.quarantined = campaign.store().quarantined();
  if (keep_csv) out.store_csv = campaign.store().ToCsv();
  double sum = 0.0;
  for (const auto& unit : scenario.treated) {
    auto input = measure::MakeSyntheticControlInput(
        panel, unit.name, scenario.donor_names,
        scenario_options.treatment_time);
    if (!input.ok()) continue;
    auto fit = causal::FitRobustSyntheticControl(input.value());
    if (!fit.ok()) continue;
    sum += fit.value().base.average_effect;
    ++out.units_fit;
  }
  if (out.units_fit > 0) {
    out.mean_effect = sum / static_cast<double>(out.units_fit);
  }
  return out;
}

/// 20% probe loss + two 10-period (60h at 6h buckets) vantage outages.
measure::FaultPlan AcceptancePlan(std::uint64_t seed) {
  const netsim::ScenarioZa scenario = netsim::BuildScenarioZa({});
  measure::FaultPlan plan;
  plan.seed = seed;
  plan.probe_loss_probability = 0.20;
  const core::SimTime duration = core::SimTime::FromHours(60);
  plan.vantage_outages.push_back(
      {scenario.treated[0].access_pop,
       {{core::SimTime::FromDays(10),
         core::SimTime::FromDays(10) + duration}}});
  plan.vantage_outages.push_back(
      {scenario.treated[1].access_pop,
       {{core::SimTime::FromDays(40),
         core::SimTime::FromDays(40) + duration}}});
  return plan;
}

TEST(FaultResilienceTest, MaskedEstimateWithin25PercentOfClean) {
  const CampaignResult clean = RunCampaign(nullptr);
  ASSERT_EQ(clean.units_fit, 8u);
  ASSERT_LT(clean.mean_effect, 0.0);  // Table 1: IXP lowered mean RTT

  const measure::FaultPlan plan = AcceptancePlan(42);
  const CampaignResult faulty = RunCampaign(&plan);
  ASSERT_EQ(faulty.units_fit, 8u);
  const double rel_err = std::abs(faulty.mean_effect - clean.mean_effect) /
                         std::abs(clean.mean_effect);
  EXPECT_LE(rel_err, 0.25)
      << "clean " << clean.mean_effect << " ms vs faulty "
      << faulty.mean_effect << " ms";
}

TEST(FaultResilienceTest, FixedSeedReplaysByteIdenticalStream) {
  const measure::FaultPlan plan = AcceptancePlan(42);
  const CampaignResult a = RunCampaign(&plan, /*keep_csv=*/true);
  const CampaignResult b = RunCampaign(&plan, /*keep_csv=*/true);
  ASSERT_GT(a.store_csv.size(), 1000u);
  EXPECT_EQ(a.store_csv, b.store_csv);
}

TEST(FaultResilienceTest, DirtyCollectorNeverPoisonsThePanel) {
  measure::FaultPlan plan;
  plan.seed = 77;
  plan.corruption_probability = 0.05;
  plan.duplicate_probability = 0.03;
  plan.max_clock_skew = core::SimTime(3);
  const CampaignResult dirty = RunCampaign(&plan);
  EXPECT_GT(dirty.quarantined, 100u);
  // The estimator still runs on all treated units: corrupt records were
  // intercepted at ingest, not passed through the panel.
  EXPECT_EQ(dirty.units_fit, 8u);
}

}  // namespace
}  // namespace sisyphus
