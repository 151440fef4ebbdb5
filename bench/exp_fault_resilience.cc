// F1 — Fault resilience of the Table 1 pipeline.
//
// The paper's warning made executable: real archives are not clean panels.
// This bench re-runs the Table 1 case study (ScenarioZa campaign → panel →
// robust synthetic control) under increasingly hostile fault plans — probe
// loss (optionally MNAR-coupled to congestion), vantage outage windows,
// collector outages, truncated traceroutes, duplicated and corrupted
// records, clock skew — and reports how far the estimated IXP effect
// drifts from the clean-data estimate.
//
// Two invariants are checked and printed:
//   1. determinism — the same FaultPlan seed reproduces a byte-identical
//      record stream (the CSV of the store is compared across two runs);
//   2. robustness — at 20% probe loss plus two 10-period vantage outages,
//      the masked robust-synthetic-control estimate stays within 25%
//      relative error of the clean estimate (mirrored by a tier-1 test).
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "causal/robust_synthetic_control.h"
#include "core/hash.h"
#include "core/rng.h"
#include "measure/export.h"
#include "measure/faults.h"
#include "measure/panel.h"
#include "measure/platform.h"
#include "netsim/scenario_za.h"

namespace {

using namespace sisyphus;

struct CampaignResult {
  double mean_effect = 0.0;   ///< mean RTT delta across treated units
  std::size_t units_fit = 0;  ///< treated units with a successful fit
  std::size_t records = 0;
  std::size_t quarantined = 0;
  std::size_t failures = 0;
  std::size_t panel_units = 0;
  std::size_t panel_dropped = 0;
  std::string store_csv;      ///< for the determinism check
};

/// One full campaign + estimation pass under `plan` (nullptr = clean).
/// `label` names this campaign's lineage run ledger (ids restart at 1 per
/// campaign, so each needs its own waterfall to reconcile against).
/// `platform_seed` = 0 means "use the scenario seed"; any other value
/// reseeds the platform RNG, which gives the estimator's noise floor.
CampaignResult RunCampaign(const std::string& label,
                           const measure::FaultPlan* plan,
                           bool keep_csv = false,
                           std::uint64_t platform_seed = 0) {
  SISYPHUS_LINEAGE(BeginRun(label));
  netsim::ScenarioZaOptions scenario_options;
  netsim::ScenarioZa scenario = netsim::BuildScenarioZa(scenario_options);

  measure::PlatformOptions platform_options;
  platform_options.server = scenario.content_jnb;
  platform_options.step = core::SimTime::FromHours(1);
  measure::Platform platform(*scenario.simulator, platform_options);

  // Denser schedule than table1: the acceptance bar compares a faulty
  // estimate against the clean one within 25%, so per-bucket medians must
  // be tight enough that reseeding noise stays well inside that budget.
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

  measure::PanelOptions panel_options;
  panel_options.bucket = core::SimTime::FromHours(6);
  panel_options.periods = static_cast<std::size_t>(
      scenario_options.horizon.minutes() / panel_options.bucket.minutes());

  core::Rng rng(platform_seed != 0 ? platform_seed : scenario_options.seed);
  measure::StreamingOptions streaming_options;
  streaming_options.panel = panel_options;
  measure::StreamingCampaign stream(platform_options.validation,
                                    streaming_options);
  platform.Run(scenario_options.horizon, rng, stream);
  const measure::Panel panel = stream.FinalizePanel();
  CampaignResult out;
  out.records = stream.store().size();
  out.quarantined = stream.store().quarantined();
  if (keep_csv) out.store_csv = stream.store().ToCsv();
  out.failures = platform.failures().size();
  out.panel_units = panel.units.size();
  out.panel_dropped = panel.dropped.size();

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
    if (obs::Lineage::enabled()) {
      obs::Lineage::Global().AddEstimate(
          "robust." + unit.name, unit.name, input.value().donor_names,
          fit.value().base.average_effect,
          std::numeric_limits<double>::quiet_NaN());
    }
  }
  if (out.units_fit > 0) out.mean_effect = sum / static_cast<double>(out.units_fit);
  return out;
}

/// The acceptance-criteria fault plan: 20% probe loss, two 10-period
/// (= 60h at 6h buckets) outages on the first two treated vantages.
measure::FaultPlan AcceptancePlan(const netsim::ScenarioZa& scenario,
                                  std::uint64_t seed) {
  measure::FaultPlan plan;
  plan.seed = seed;
  plan.probe_loss_probability = 0.20;
  const core::SimTime duration = core::SimTime::FromHours(60);
  plan.vantage_outages.push_back(
      {scenario.treated[0].access_pop,
       {{core::SimTime::FromDays(10), core::SimTime::FromDays(10) + duration}}});
  plan.vantage_outages.push_back(
      {scenario.treated[1].access_pop,
       {{core::SimTime::FromDays(40), core::SimTime::FromDays(40) + duration}}});
  return plan;
}

int Main(const std::string& obs_dir) {
  bench::PrintHeader("F1", "fault resilience of the Table 1 pipeline",
                     "robustness extension (degraded-data semantics, "
                     "DESIGN.md failure model)");

  const netsim::ScenarioZaOptions scenario_defaults;
  bench::ObsRun obs("exp_fault_resilience", obs_dir, scenario_defaults.seed);
  obs::RunManifest& manifest = obs.manifest();
  manifest.AddOption("horizon_days",
                     std::to_string(scenario_defaults.horizon.days()));
  manifest.AddOption("acceptance_plan_seed", "42");

  std::unique_ptr<obs::ScopedPhase> phase =
      std::make_unique<obs::ScopedPhase>(manifest, "clean_campaign");
  const CampaignResult clean = RunCampaign("clean", nullptr);
  std::printf("clean campaign: %zu records, %zu panel units, mean IXP "
              "effect %+.3f ms over %zu treated units\n\n",
              clean.records, clean.panel_units, clean.mean_effect,
              clean.units_fit);

  // ---- Sweep: probe loss x outages x record corruption ----
  struct SweepPoint {
    const char* label;
    double loss;
    double mnar_gain;
    std::size_t outages;       ///< 60h windows spread over treated vantages
    double corruption;
    double duplication;
  };
  const SweepPoint sweep[] = {
      {"loss 5%", 0.05, 0.0, 0, 0.0, 0.0},
      {"loss 20%", 0.20, 0.0, 0, 0.0, 0.0},
      {"loss 40%", 0.40, 0.0, 0, 0.0, 0.0},
      {"loss 20% + outages", 0.20, 0.0, 2, 0.0, 0.0},
      {"loss 20% MNAR", 0.20, 2.0, 0, 0.0, 0.0},
      {"dirty collector", 0.10, 0.0, 1, 0.02, 0.03},
  };

  netsim::ScenarioZa reference = netsim::BuildScenarioZa({});

  // Estimator noise floor: clean data, different platform RNG seeds. Fault
  // plans below perturb the RNG stream too, so drift smaller than this
  // floor is sampling noise, not fault-induced bias.
  phase = std::make_unique<obs::ScopedPhase>(manifest, "noise_floor");
  for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
    const CampaignResult reseed = RunCampaign(
        "noise_floor.seed" + std::to_string(seed), nullptr, false, seed);
    std::printf("noise floor (clean, platform seed %llu): effect %+.3f ms "
                "(rel. drift %.2f)\n",
                static_cast<unsigned long long>(seed), reseed.mean_effect,
                std::abs(reseed.mean_effect - clean.mean_effect) /
                    std::max(std::abs(clean.mean_effect), 1e-9));
  }
  std::printf("\n");

  phase = std::make_unique<obs::ScopedPhase>(manifest, "fault_sweep");
  bench::TableWriter table({{"fault plan", 20},
                            {"records", 8},
                            {"quar.", 6},
                            {"failures", 9},
                            {"panel", 6},
                            {"effect (ms)", 11},
                            {"rel. err", 8}});
  for (const SweepPoint& point : sweep) {
    measure::FaultPlan plan;
    plan.seed = 7;
    plan.probe_loss_probability = point.loss;
    plan.mnar_loss_gain = point.mnar_gain;
    plan.corruption_probability = point.corruption;
    plan.duplicate_probability = point.duplication;
    plan.max_clock_skew = core::SimTime(point.corruption > 0 ? 3 : 0);
    const core::SimTime duration = core::SimTime::FromHours(60);
    for (std::size_t i = 0; i < point.outages; ++i) {
      const core::SimTime start =
          core::SimTime::FromDays(10 + 30 * static_cast<double>(i));
      plan.vantage_outages.push_back(
          {reference.treated[i % reference.treated.size()].access_pop,
           {{start, start + duration}}});
    }
    const CampaignResult result = RunCampaign(point.label, &plan);
    const double rel_err =
        std::abs(result.mean_effect - clean.mean_effect) /
        std::max(std::abs(clean.mean_effect), 1e-9);
    table.Cell(point.label);
    table.Cell(static_cast<double>(result.records), "%.0f");
    table.Cell(static_cast<double>(result.quarantined), "%.0f");
    table.Cell(static_cast<double>(result.failures), "%.0f");
    table.Cell(static_cast<double>(result.panel_units), "%.0f");
    table.Cell(result.mean_effect, "%+.3f");
    table.Cell(rel_err, "%.2f");
  }

  // ---- Invariant 1: determinism under a fixed FaultPlan seed ----
  phase = std::make_unique<obs::ScopedPhase>(manifest, "determinism_check");
  const measure::FaultPlan acceptance = AcceptancePlan(reference, 42);
  manifest.fault_plan_hash =
      core::Fnv1a64Hex(measure::FaultPlanFingerprint(acceptance));
  const CampaignResult run_a = RunCampaign("acceptance.run_a", &acceptance,
                                           /*keep_csv=*/true);
  const CampaignResult run_b = RunCampaign("acceptance.run_b", &acceptance,
                                           /*keep_csv=*/true);
  const bool deterministic = run_a.store_csv == run_b.store_csv;
  if (!deterministic) {
    // Leave the evidence where a human can diff it.
    (void)measure::WriteTextFile("/tmp/exp_fault_resilience_run_a.csv",
                                 run_a.store_csv);
    (void)measure::WriteTextFile("/tmp/exp_fault_resilience_run_b.csv",
                                 run_b.store_csv);
    std::printf("determinism FAILED: diverging streams dumped to "
                "/tmp/exp_fault_resilience_run_{a,b}.csv\n");
  }
  std::printf("\ndeterminism: two runs with FaultPlan seed 42 produce %s "
              "record streams (%zu records)\n",
              deterministic ? "byte-identical" : "DIFFERENT", run_a.records);

  // ---- Invariant 2: 25% relative-error budget on the acceptance plan ----
  const double rel_err =
      std::abs(run_a.mean_effect - clean.mean_effect) /
      std::max(std::abs(clean.mean_effect), 1e-9);
  std::printf("acceptance plan (20%% loss + two 10-period outages): effect "
              "%+.3f ms vs clean %+.3f ms -> relative error %.1f%% "
              "(budget 25%%)\n",
              run_a.mean_effect, clean.mean_effect, 100.0 * rel_err);

  const bool ok = deterministic && rel_err <= 0.25;
  std::printf("\nconclusion: the masked estimator %s the paper's degraded-"
              "data bar.\n", ok ? "clears" : "MISSES");
  phase.reset();
  const int obs_status = obs.Finish();
  return ok ? obs_status : 1;
}

}  // namespace

int main(int argc, char** argv) {
  sisyphus::bench::ApplyThreadsFlag(argc, argv);
  std::string obs_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--obs-out") == 0 && i + 1 < argc) {
      obs_dir = argv[++i];
    }
  }
  return Main(obs_dir);
}
