// E8 — the paper's §4 "causal protocol", executed end-to-end on the IXP
// case-study data:
//
//   "specify the causal graph, identify confounders and instruments,
//    validate assumptions, and report uncertainty in causal estimates."
//
// Concretely: (1) the DAG for the IXP question with a latent deployment
// driver; (2) identification + conditional-instrument search; (3) the
// DoWhy-style refutation battery on a unit-level adjusted estimate;
// (4) an event-study with placebo bands and an E-value sensitivity
// statement for the headline number. This is the extension layer on top
// of Table 1 — what a paper following the proposed protocol would report
// alongside the table.
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "causal/dag_parser.h"
#include "causal/event_study.h"
#include "causal/identification.h"
#include "causal/refutation.h"
#include "causal/sensitivity.h"
#include "measure/panel.h"
#include "measure/platform.h"
#include "netsim/scenario_za.h"
#include "stats/descriptive.h"
#include "stats/logistic.h"

namespace {

using namespace sisyphus;
using core::SimTime;

int Main() {
  bench::PrintHeader("E8", "the section-4 causal protocol, end to end",
                     "section 4 'causal protocol' (specify graph -> "
                     "identify -> validate -> report uncertainty)");

  // ---- Step 1: specify the graph ----
  auto dag = causal::ParseDag(
      "Deployment [latent];"
      "Deployment -> IxpMember; Deployment -> RttMs;"
      "TrafficLoad -> IxpMember; TrafficLoad -> RttMs;"
      "IxpMember -> RttMs;"
      "RegulatorMandate -> IxpMember");
  std::printf("step 1 — DAG: %s\n\n", dag.value().ToText().c_str());

  // ---- Step 2: identification ----
  auto how = causal::Identify(dag.value(), "IxpMember", "RttMs");
  std::printf("step 2 — identification: %s\n  %s\n",
              causal::ToString(how.value().strategy),
              how.value().explanation.c_str());
  const auto instruments = causal::FindConditionalInstruments(
      dag.value(), dag.value().Node("IxpMember").value(),
      dag.value().Node("RttMs").value());
  std::printf("  conditional instruments found: %zu", instruments.size());
  for (const auto& ci : instruments) {
    std::printf(" [%s | %zu conditions]",
                dag.value().Name(ci.instrument).c_str(),
                ci.conditioning.size());
  }
  std::printf("\n  (a regulator-mandated membership push is the natural "
              "experiment the graph licenses)\n\n");

  // ---- Step 3: validate with the refutation battery ----
  // Cross-sectional unit-level data from the ZA scenario at day 40:
  // treatment = crosses IXP, outcome = median RTT, covariate = distance
  // of the unit's city from Johannesburg (the structural driver of RTT
  // levels in the donor pool).
  netsim::ScenarioZaOptions options;
  options.donor_units = 30;
  auto scenario = netsim::BuildScenarioZa(options);
  measure::PlatformOptions platform_options;
  platform_options.server = scenario.content_jnb;
  measure::Platform platform(*scenario.simulator, platform_options);
  measure::VantageConfig vantage;
  vantage.baseline_tests_per_day = 10.0;
  for (const auto& unit : scenario.treated) {
    vantage.pop = unit.access_pop;
    platform.AddVantage(vantage);
  }
  for (auto donor : scenario.donors) {
    vantage.pop = donor;
    platform.AddVantage(vantage);
  }
  measure::StreamingOptions campaign_options;
  campaign_options.panel.bucket = SimTime::FromHours(6);
  campaign_options.panel.periods = static_cast<std::size_t>(
      options.horizon.minutes() / campaign_options.panel.bucket.minutes());
  measure::StreamingCampaign campaign(platform_options.validation,
                                      campaign_options);
  core::Rng rng(options.seed);
  platform.Run(options.horizon, rng, campaign);
  const measure::ShardedMeasurementStore& store = campaign.store();

  const auto& topo = scenario.simulator->topology();
  const auto jnb = topo.cities().Find("Johannesburg").value();
  std::vector<double> member, rtt, distance;
  for (const std::string& unit : store.Units()) {
    const auto [arena, rows] = store.RowsOf(unit);
    std::vector<double> post_rtts;
    for (const std::size_t i : rows) {
      if (SimTime(arena->time_minutes[i]) >= options.treatment_time) {
        post_rtts.push_back(arena->rtt_ms[i]);
      }
    }
    if (post_rtts.size() < 10) continue;
    const double share = store.IxpCrossingShare(
        unit, scenario.napafrica_jnb, options.treatment_time, options.horizon);
    member.push_back(share > 0.5 ? 1.0 : 0.0);
    rtt.push_back(stats::Median(post_rtts));
    distance.push_back(topo.cities().DistanceKm(
        topo.GetPop(arena->vantage_pop[rows.front()]).city, jnb));
  }
  causal::Dataset data;
  (void)data.AddColumn("IxpMember", member);
  (void)data.AddColumn("RttMs", rtt);
  (void)data.AddColumn("DistanceKm", distance);
  std::printf("step 3 — refutation battery on the adjusted cross-section "
              "(%zu units):\n",
              data.rows());
  auto battery = causal::RunRefutationBattery(
      data, "IxpMember", "RttMs", {"DistanceKm"},
      causal::MakeRegressionAdjustmentEstimator(), rng);
  bench::TableWriter table({{"refuter", 22}, {"original", 9},
                            {"refuted", 9}, {"verdict", 8}});
  for (const auto& result : battery.value()) {
    table.Cell(result.refuter);
    table.Cell(result.original_effect, "%+.2f");
    table.Cell(result.refuted_effect, "%+.2f");
    table.Cell(result.passed ? "pass" : "FAIL");
  }

  // ---- Step 4: report uncertainty ----
  // 4a. Event study with placebo bands for one treated unit.
  const auto panel = campaign.FinalizePanel();
  const auto& unit = scenario.treated[0];  // 3741 / East London
  auto input = measure::MakeSyntheticControlInput(
      panel, unit.name, scenario.donor_names, options.treatment_time);
  if (!input.ok()) {
    std::printf("\nstep 4a — %s: %s\nshape check: FAIL\n", unit.name.c_str(),
                input.error().ToText().c_str());
    return 1;
  }
  auto study = causal::RunEventStudy(input.value());
  if (!study.ok()) {
    std::printf("\nstep 4a — event study for %s: %s\nshape check: FAIL\n",
                unit.name.c_str(), study.error().ToText().c_str());
    return 1;
  }
  std::printf("\nstep 4a — event study for %s: pre-band exceedance %.0f%% "
              "(fit quality), post-band exceedance %.0f%% (effect "
              "visibility)\n",
              unit.name.c_str(), 100.0 * study.value().pre_exceedance,
              100.0 * study.value().post_exceedance);

  // Compact ASCII strip of the gap vs band, 1 char per 4 periods.
  std::printf("    gap trace (.=inside band, *=outside, | = treatment): ");
  for (std::size_t t = 0; t < study.value().points.size(); t += 4) {
    if (study.value().points[t].relative_period >= 0 &&
        study.value().points[t].relative_period < 4) {
      std::printf("|");
    }
    std::printf("%c", study.value().points[t].outside_band ? '*' : '.');
  }
  std::printf("\n");

  // 4b. Sensitivity: how strong must a hidden confounder be to explain
  // the cross-sectional membership "effect" away?
  const double estimate = battery.value()[0].original_effect;
  const auto grid = causal::LinearSensitivityGrid(
      estimate, {0.5, 1.0, 2.0}, {1.0, 2.0, 4.0});
  std::size_t flips = 0;
  for (const auto& point : grid) {
    if (point.sign_flips) ++flips;
  }
  std::printf("\nstep 4b — sensitivity: estimate %+.2f ms; breakeven "
              "hidden-confounding product %.2f; sign flips in %zu/%zu "
              "grid cells\n",
              estimate, causal::BreakevenConfounding(estimate), flips,
              grid.size());
  std::printf("\npaper: 'We envision future measurement studies adopting "
              "a causal protocol' — this binary IS that protocol, "
              "executable.\n");

  bool all_passed = true;
  for (const auto& result : battery.value()) all_passed &= result.passed;
  std::printf("shape check: %s\n", all_passed ? "PASS" : "FAIL");
  return all_passed ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  sisyphus::bench::ApplyThreadsFlag(argc, argv);
  return Main();
}
