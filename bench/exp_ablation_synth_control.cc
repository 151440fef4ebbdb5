// A1 — ablations of the Table 1 estimator (DESIGN.md §4 "ablation
// candidates"): on the same ZA panel with a KNOWN injected effect,
// compare
//   * robust synthetic control (the paper's choice),
//   * classical simplex-weight synthetic control,
//   * naive pre/post difference,
//   * two-period difference-in-differences vs the donor mean,
// sweep the RSC singular-value threshold, and toggle the placebo
// pre-RMSE filter. Ground truth is available because we inject the
// effect ourselves into an otherwise untreated unit.
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "causal/placebo.h"
#include "core/rng.h"
#include "measure/panel.h"
#include "measure/platform.h"
#include "netsim/scenario_za.h"
#include "stats/descriptive.h"

namespace {

using namespace sisyphus;
using core::SimTime;

int Main() {
  bench::PrintHeader("A1", "synthetic-control design ablations",
                     "DESIGN.md section 4 (ablation candidates for the "
                     "Table 1 estimator)");

  // ---- Panel from the ZA scenario, but treat a DONOR and inject a
  // known effect so ground truth is exact. ----
  netsim::ScenarioZaOptions options;
  options.donor_units = 30;
  auto scenario = netsim::BuildScenarioZa(options);
  measure::PlatformOptions platform_options;
  platform_options.server = scenario.content_jnb;
  measure::Platform platform(*scenario.simulator, platform_options);
  measure::VantageConfig vantage;
  vantage.baseline_tests_per_day = 10.0;
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
  core::Rng rng(7);
  platform.Run(options.horizon, rng, campaign);
  const auto panel = campaign.FinalizePanel();

  const double kInjectedEffect = 4.0;
  auto input = measure::MakeSyntheticControlInput(
                   panel, scenario.donor_names[2], scenario.donor_names,
                   options.treatment_time)
                   .value();
  for (std::size_t t = input.pre_periods; t < input.treated.size(); ++t) {
    input.treated[t] += kInjectedEffect;
  }
  // Common regional drift shared by EVERY unit (subscriber growth slowly
  // congesting the metro): naive pre/post confounds this with the
  // treatment; donor-based estimators must absorb it.
  const double kDriftPerPeriod = 0.02;
  for (std::size_t t = 0; t < input.treated.size(); ++t) {
    const double drift = kDriftPerPeriod * static_cast<double>(t);
    input.treated[t] += drift;
    for (std::size_t j = 0; j < input.donors.cols(); ++j) {
      input.donors(t, j) += drift;
    }
  }
  std::printf("panel: %zu donors x %zu periods; injected effect "
              "+%.1f ms at period %zu, plus a shared regional drift of "
              "+%.2f ms/period\n\n",
              input.donors.cols(), input.treated.size(), kInjectedEffect,
              input.pre_periods, kDriftPerPeriod);

  // ---- Estimator comparison ----
  bench::TableWriter table({{"estimator", 36}, {"estimate (ms)", 13},
                            {"abs bias", 9}});
  auto report = [&](const char* name, double estimate) {
    table.Cell(name);
    table.Cell(estimate, "%+.2f");
    table.Cell(std::abs(estimate - kInjectedEffect), "%.2f");
    return std::abs(estimate - kInjectedEffect);
  };

  auto rsc = causal::FitRobustSyntheticControl(input);
  const double rsc_bias =
      report("robust synthetic control (paper)", rsc.value().base.average_effect);

  auto classical = causal::FitSyntheticControl(input);
  report("classical synthetic control", classical.value().average_effect);

  // Naive pre/post on the treated unit alone.
  std::span<const double> treated(input.treated);
  const double naive =
      stats::Mean(treated.subspan(input.pre_periods)) -
      stats::Mean(treated.subspan(0, input.pre_periods));
  const double naive_bias = report("naive pre/post difference", naive);

  // DiD vs the donor-pool mean.
  double donor_pre = 0.0, donor_post = 0.0;
  for (std::size_t j = 0; j < input.donors.cols(); ++j) {
    const auto col = input.donors.Column(j);
    std::span<const double> series(col);
    donor_pre += stats::Mean(series.subspan(0, input.pre_periods));
    donor_post += stats::Mean(series.subspan(input.pre_periods));
  }
  donor_pre /= static_cast<double>(input.donors.cols());
  donor_post /= static_cast<double>(input.donors.cols());
  report("DiD vs donor-pool mean", naive - (donor_post - donor_pre));

  // ---- RSC threshold sweep ----
  // Sweep points are independent fits: fan them out across the pool and
  // print in sweep order afterwards (deterministic stdout, DESIGN.md §7).
  std::printf("\nRSC singular-value threshold sweep (auto picks via the "
              "universal-threshold heuristic):\n");
  bench::TableWriter sweep({{"threshold", 10}, {"rank kept", 9},
                            {"estimate", 9}, {"pre-RMSE", 9}});
  const std::vector<double> thresholds = {-1.0, 0.0, 50.0, 200.0, 1000.0};
  struct SweepPoint {
    bool ok = false;
    std::size_t retained_rank = 0;
    double estimate = 0.0;
    double rmse_pre = 0.0;
  };
  const auto sweep_points = core::ParallelMap(
      thresholds.size(), [&](std::size_t i) {
        causal::RobustSyntheticControlOptions rsc_options;
        rsc_options.singular_value_threshold = thresholds[i];
        SweepPoint point;
        auto fit = causal::FitRobustSyntheticControl(input, rsc_options);
        if (fit.ok()) {
          point.ok = true;
          point.retained_rank = fit.value().retained_rank;
          point.estimate = fit.value().base.average_effect;
          point.rmse_pre = fit.value().base.rmse_pre;
        }
        return point;
      });
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    if (!sweep_points[i].ok) continue;
    sweep.Cell(thresholds[i] < 0
                   ? std::string("auto")
                   : std::to_string(static_cast<int>(thresholds[i])));
    sweep.Cell(static_cast<double>(sweep_points[i].retained_rank), "%.0f");
    sweep.Cell(sweep_points[i].estimate, "%+.2f");
    sweep.Cell(sweep_points[i].rmse_pre, "%.2f");
  }

  // ---- Placebo pre-RMSE filter on/off ----
  std::printf("\nplacebo pre-RMSE filter (drops badly-fit placebo runs "
              "from the null distribution):\n");
  for (double multiple : {0.0, 5.0}) {
    causal::PlaceboOptions placebo_options;
    placebo_options.max_pre_rmse_multiple = multiple;
    auto placebo = causal::RunPlaceboAnalysis(input, placebo_options);
    if (!placebo.ok()) continue;
    std::printf("  filter %-8s -> pool %2zu placebos, p = %.3f\n",
                multiple == 0.0 ? "off" : "5x",
                placebo.value().placebo_ratios.size(),
                placebo.value().p_value);
  }

  const bool shape = rsc_bias < naive_bias;
  std::printf("\nshape check: RSC bias (%.2f) < naive pre/post bias "
              "(%.2f): %s — time-varying donors matter, exactly why the "
              "paper reaches for synthetic control.\n",
              rsc_bias, naive_bias, shape ? "PASS" : "FAIL");
  return shape ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  sisyphus::bench::ApplyThreadsFlag(argc, argv);
  return Main();
}
