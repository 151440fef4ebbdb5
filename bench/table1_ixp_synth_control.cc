// Table 1 — "Estimated RTT change for paths that begin crossing
// NAPAfrica-JNB" (the paper's case study: does joining an IXP reduce
// latency?).
//
// Pipeline, mirroring the paper:
//   1. simulate the South African edge for 56 days; eight treated
//      ⟨ASN, city⟩ units turn up NAPAfrica-JNB peering at day 28;
//   2. run an M-Lab-style measurement campaign (scheduled + user-initiated
//      speed tests with post-test traceroutes) through the one campaign
//      driver: the sharded store and incremental panel, or with
//      --durable-dir the durable service;
//   3. detect IXP crossings by matching hop IPs against the IXP LAN (each
//      record carries the IXP its traceroute first crosses);
//   4. per treated unit: robust synthetic control against the
//      never-crossing donor pool; placebo p-values from donor RMSE-ratio
//      ranks.
//
// Expected shape (paper): small mixed RTT deltas (-7.3 .. +3.4 ms), mostly
// high p-values; a couple of units marginal (p < 0.10); the largest drop
// NOT significant. Pass --ablation to also run the classical
// simplex-weight estimator for comparison (DESIGN.md §4).
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <system_error>

#include "bench_util.h"
#include "causal/event_study.h"
#include "causal/placebo.h"
#include "core/hash.h"
#include "core/rng.h"
#include "durable/service.h"
#include "measure/export.h"
#include "measure/panel.h"
#include "measure/platform.h"
#include "netsim/scenario_za.h"

namespace {

using namespace sisyphus;

/// Durability flags: with --durable-dir the campaign runs under the
/// DurableStreamingService (write-ahead journal + periodic
/// snapshots), --resume recovers a killed run from that directory, and
/// --chaos arms the kill/corrupt harness (DESIGN.md §11).
struct DurableArgs {
  std::string dir;
  bool resume = false;
  std::uint64_t snapshot_every = 16;
  std::uint64_t fsync_every = 8;
  std::uint64_t shed_max = 0;
  std::string chaos_spec;
};

struct Row {
  std::string unit;
  double delta = 0.0;
  double rmse_ratio = 0.0;
  double p_value = 0.0;
  double paper_delta = 0.0;
};

/// --export-dir: writes the raw measurements (one row per archived record
/// copy, with the IXP it crosses), the panel, and per-unit event-study gap
/// series as CSV for external plotting (gnuplot / R / matplotlib) — the
/// paper's public-repo artifacts, regenerated.
int ExportArtifacts(const std::string& directory,
                    const measure::ShardedMeasurementStore& store,
                    const measure::Panel& panel,
                    const netsim::ScenarioZa& scenario) {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  auto write = [&](const std::string& name, const std::string& text) {
    const auto status = measure::WriteTextFile(directory + "/" + name, text);
    if (!status.ok()) {
      std::printf("export failed: %s\n", status.error().ToText().c_str());
      return false;
    }
    std::printf("wrote %s/%s\n", directory.c_str(), name.c_str());
    return true;
  };
  if (!write("speedtests.csv", store.ToCsv())) return 1;
  if (!write("panel.csv", measure::PanelToCsv(panel))) {
    return 1;
  }
  // Event-study gap series per treated unit: one CSV with columns
  // relative_period, gap, band_low, band_high per unit.
  for (const auto& unit : scenario.treated) {
    auto input = measure::MakeSyntheticControlInput(
        panel, unit.name, scenario.donor_names,
        scenario.options.treatment_time);
    if (!input.ok()) continue;
    auto study = causal::RunEventStudy(input.value());
    if (!study.ok()) continue;
    std::string csv = "relative_period,gap,band_low,band_high\n";
    for (const auto& point : study.value().points) {
      char line[128];
      std::snprintf(line, sizeof(line), "%d,%.4f,%.4f,%.4f\n",
                    point.relative_period, point.gap, point.band_low,
                    point.band_high);
      csv += line;
    }
    std::string slug = unit.name;
    for (char& c : slug) {
      if (c == ' ' || c == '/') c = '_';
    }
    if (!write("event_study_" + slug + ".csv", csv)) return 1;
  }
  return 0;
}

int Main(bool ablation, const std::string& export_dir,
         const std::string& obs_dir, double scale,
         const DurableArgs& durable_args) {
  bench::PrintHeader("T1", "IXP case study via robust synthetic control",
                     "Table 1 (HotNets '25 Sisyphus paper)");

  // ---- 1. Scenario + campaign ----
  netsim::ScenarioZaOptions scenario_options;

  bench::ObsRun obs("table1_ixp_synth_control", obs_dir,
                    scenario_options.seed);
  obs::RunManifest& manifest = obs.manifest();
  manifest.AddOption("ablation", ablation ? "true" : "false");
  manifest.AddOption("scale", std::to_string(scale));
  manifest.AddOption("horizon_days",
                     std::to_string(scenario_options.horizon.days()));
  manifest.AddOption("treatment_day",
                     std::to_string(scenario_options.treatment_time.days()));
  manifest.AddOption("donor_units",
                     std::to_string(scenario_options.donor_units));

  std::unique_ptr<obs::ScopedPhase> phase =
      std::make_unique<obs::ScopedPhase>(manifest, "build_scenario");
  netsim::ScenarioZa scenario = netsim::BuildScenarioZa(scenario_options);
  manifest.scenario_hash = core::Fnv1a64Hex(
      "za seed=" + std::to_string(scenario_options.seed) +
      " donors=" + std::to_string(scenario_options.donor_units) +
      " treatment_min=" +
      std::to_string(scenario_options.treatment_time.minutes()) +
      " horizon_min=" + std::to_string(scenario_options.horizon.minutes()) +
      " pops=" + std::to_string(scenario.simulator->topology().PopCount()) +
      " links=" + std::to_string(scenario.simulator->topology().LinkCount()));

  phase = std::make_unique<obs::ScopedPhase>(manifest, "run_campaign");
  measure::PlatformOptions platform_options;
  platform_options.server = scenario.content_jnb;
  platform_options.step = core::SimTime::FromHours(1);
  measure::Platform platform(*scenario.simulator, platform_options);

  measure::VantageConfig vantage;
  vantage.baseline_tests_per_day = 10.0 * scale;
  vantage.user_tests_per_day = 4.0 * scale;
  for (const auto& unit : scenario.treated) {
    vantage.pop = unit.access_pop;
    platform.AddVantage(vantage);
  }
  for (netsim::PopIndex donor : scenario.donors) {
    vantage.pop = donor;
    platform.AddVantage(vantage);
  }

  // Panel geometry is fixed up front: the campaign folds records into
  // cells as they arrive, so it needs the bucket grid before it starts.
  measure::PanelOptions panel_options;
  panel_options.bucket = core::SimTime::FromHours(6);
  panel_options.periods = static_cast<std::size_t>(
      scenario_options.horizon.minutes() / panel_options.bucket.minutes());

  core::Rng rng(scenario_options.seed);
  bool partial_run = false;
  measure::StreamingOptions streaming_options;
  streaming_options.panel = panel_options;
  measure::StreamingCampaign stream(platform_options.validation,
                                    streaming_options);
  if (!durable_args.dir.empty()) {
    durable::InstallSignalHandlers();
    durable::DurableOptions durable_options;
    durable_options.dir = durable_args.dir;
    durable_options.snapshot_every = durable_args.snapshot_every;
    durable_options.fsync_every = durable_args.fsync_every;
    durable_options.max_step_records = durable_args.shed_max;
    if (!durable_args.chaos_spec.empty()) {
      auto chaos = durable::ParseChaosSpec(durable_args.chaos_spec);
      if (!chaos.ok()) {
        std::printf("%s\n", chaos.error().ToText().c_str());
        return 2;
      }
      durable_options.chaos = chaos.value();
    }
    durable::DurableStreamingService service(platform, stream,
                                             durable_options);
    auto run = durable_args.resume
                   ? service.Resume(scenario_options.horizon, rng)
                   : service.Run(scenario_options.horizon, rng);
    if (!run.ok()) {
      std::printf("durable run failed: %s\n", run.error().ToText().c_str());
      return 1;
    }
    const durable::RunStats& stats = run.value();
    partial_run = stats.outcome == durable::RunOutcome::kInterrupted;
    manifest.durable.enabled = true;
    manifest.durable.resumed = stats.resumed;
    manifest.durable.partial = partial_run;
    manifest.durable.snapshot_seq = stats.snapshot_seq;
    manifest.durable.journal_high_water = stats.journal_high_water;
    manifest.durable.journal_entries = stats.journal_entries;
    manifest.durable.shed_records = stats.shed_records;
    std::printf("durable: %llu live steps (%llu rebuilt from the journal, "
                "%llu replayed under journal verification), snapshot seq "
                "%llu, journal high-water %llu%s%s\n",
                static_cast<unsigned long long>(stats.steps),
                static_cast<unsigned long long>(stats.rebuilt_steps),
                static_cast<unsigned long long>(stats.replayed_steps),
                static_cast<unsigned long long>(stats.snapshot_seq),
                static_cast<unsigned long long>(stats.journal_high_water),
                stats.resumed ? ", resumed" : "",
                partial_run ? ", PARTIAL (interrupted)" : "");
  } else {
    platform.Run(scenario_options.horizon, rng, stream);
  }
  phase->SetSimSpan(core::SimTime(0), scenario_options.horizon);
  const measure::ShardedMeasurementStore& store = stream.store();
  std::printf("campaign: %llu speed tests over %.0f days (%llu baseline, "
              "%llu user-initiated)\n",
              static_cast<unsigned long long>(store.size()),
              scenario_options.horizon.days(),
              static_cast<unsigned long long>(
                  store.CountByIntent(measure::Intent::kBaseline)),
              static_cast<unsigned long long>(
                  store.CountByIntent(measure::Intent::kUserInitiated)));

  // ---- 2. Detection: which units began crossing the IXP? ----
  phase = std::make_unique<obs::ScopedPhase>(manifest, "detect_crossings");
  std::size_t detected = 0;
  for (const auto& unit : scenario.treated) {
    if (store.FirstIxpCrossing(unit.name, scenario.napafrica_jnb)) ++detected;
  }
  std::printf("IXP-crossing detection: %zu / %zu treated units observed "
              "crossing NAPAfrica-JNB after day %.0f\n\n",
              detected, scenario.treated.size(),
              scenario_options.treatment_time.days());

  // ---- 3. Panel (incremental finalize) ----
  phase = std::make_unique<obs::ScopedPhase>(manifest, "build_panel");
  const measure::Panel panel = stream.FinalizePanel();
  std::printf("panel: %zu units x %zu periods (6h median RTT buckets)\n\n",
              panel.units.size(), panel_options.periods);

  // ---- 4. Robust synthetic control + placebo per treated unit ----
  // Treated units are independent analyses, so they fan out across the
  // thread pool; errors and rows are collected per unit and emitted in
  // unit order afterwards, keeping stdout byte-identical at any
  // SISYPHUS_THREADS / --threads setting (DESIGN.md §7).
  phase = std::make_unique<obs::ScopedPhase>(manifest, "synthetic_control");
  auto run_method = [&](causal::SyntheticControlMethod method) {
    struct UnitOutcome {
      bool ok = false;
      std::string error;
      Row row;
      std::vector<std::string> donors;  ///< usable donor pool (lineage)
    };
    const auto outcomes = core::ParallelMap(
        scenario.treated.size(), [&](std::size_t u) {
          const auto& unit = scenario.treated[u];
          UnitOutcome outcome;
          std::vector<std::string> skipped;
          auto input = measure::MakeSyntheticControlInput(
              panel, unit.name, scenario.donor_names,
              scenario_options.treatment_time, &skipped);
          if (!input.ok()) {
            outcome.error = input.error().ToText();
            return outcome;
          }
          causal::PlaceboOptions placebo_options;
          placebo_options.method = method;
          auto result =
              causal::RunPlaceboAnalysis(input.value(), placebo_options);
          if (!result.ok()) {
            outcome.error = result.error().ToText();
            return outcome;
          }
          outcome.ok = true;
          outcome.row.unit = unit.name;
          outcome.row.delta = result.value().treated_fit.average_effect;
          outcome.row.rmse_ratio = result.value().treated_fit.rmse_ratio;
          outcome.row.p_value = result.value().p_value;
          outcome.row.paper_delta = unit.paper_delta_ms;
          outcome.donors = input.value().donor_names;
          return outcome;
        });
    std::vector<Row> rows;
    const char* method_label =
        method == causal::SyntheticControlMethod::kRobust ? "robust"
                                                          : "classical";
    for (std::size_t u = 0; u < outcomes.size(); ++u) {
      if (!outcomes[u].ok) {
        std::printf("  %s: %s\n", scenario.treated[u].name.c_str(),
                    outcomes[u].error.c_str());
        continue;
      }
      // Headline estimates into metrics.json (one gauge pair per treated
      // unit), written during the ordered merge so the snapshot is
      // byte-identical at any thread count.
      const std::string prefix =
          std::string("table1.") + method_label + ".unit" + std::to_string(u);
      obs::Registry::Global().GetGauge(prefix + ".effect_ms")
          ->Set(outcomes[u].row.delta);
      obs::Registry::Global().GetGauge(prefix + ".p_value")
          ->Set(outcomes[u].row.p_value);
      // Lineage: the estimate and the units backing it, registered in the
      // same ordered merge so audit.bin is thread-count-invariant.
      if (obs::Lineage::enabled()) {
        obs::Lineage::Global().AddEstimate(
            prefix, scenario.treated[u].name, outcomes[u].donors,
            outcomes[u].row.delta, outcomes[u].row.p_value);
      }
      rows.push_back(outcomes[u].row);
    }
    return rows;
  };

  const auto rows = run_method(causal::SyntheticControlMethod::kRobust);
  std::printf("Robust synthetic control (paper's estimator):\n");
  bench::TableWriter table({{"ASN / City", 22},
                            {"RTT delta (ms)", 14},
                            {"RMSE ratio", 10},
                            {"p", 6},
                            {"paper delta", 11}});
  for (const auto& row : rows) {
    table.Cell(row.unit);
    table.Cell(row.delta, "%+.2f");
    table.Cell(row.rmse_ratio, "%.1f");
    table.Cell(row.p_value, "%.3f");
    table.Cell(row.paper_delta, "%+.2f");
  }

  // Shape checks the paper reports in prose.
  std::size_t marginal = 0;
  double largest_drop = 0.0;
  double largest_drop_p = 1.0;
  for (const auto& row : rows) {
    if (row.p_value < 0.10) ++marginal;
    if (row.delta < largest_drop) {
      largest_drop = row.delta;
      largest_drop_p = row.p_value;
    }
  }
  std::printf("\nshape: %zu/%zu units with p < 0.10 (paper: 2/8); largest "
              "drop %.2f ms at p = %.2f (paper: -7.28 ms, p = 0.33)\n",
              marginal, rows.size(), largest_drop, largest_drop_p);
  std::printf("conclusion (paper): RTT occasionally decreases after the "
              "IXP, but the effect is neither consistent nor robust.\n");

  if (!export_dir.empty()) {
    std::printf("\nexporting artifacts:\n");
    if (const int status =
            ExportArtifacts(export_dir, stream.store(), panel, scenario);
        status != 0) {
      return status;
    }
  }

  if (ablation) {
    std::printf("\nAblation — classical (simplex-weight) synthetic "
                "control:\n");
    const auto classical = run_method(causal::SyntheticControlMethod::kClassical);
    bench::TableWriter ablation_table({{"ASN / City", 22},
                                       {"RTT delta (ms)", 14},
                                       {"RMSE ratio", 10},
                                       {"p", 6}});
    for (const auto& row : classical) {
      ablation_table.Cell(row.unit);
      ablation_table.Cell(row.delta, "%+.2f");
      ablation_table.Cell(row.rmse_ratio, "%.1f");
      ablation_table.Cell(row.p_value, "%.3f");
    }
  }
  phase.reset();
  const int status = obs.Finish();
  // Interrupted-but-flushed runs leave valid artifacts (manifest marks
  // them partial) and exit 130, the conventional SIGINT status.
  if (partial_run) return 130;
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  sisyphus::bench::ApplyThreadsFlag(argc, argv);
  bool ablation = false;
  double scale = 1.0;
  std::string export_dir;
  std::string obs_dir;
  DurableArgs durable_args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ablation") == 0) {
      ablation = true;
    } else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      scale = std::atof(argv[++i]);
      if (!(scale > 0.0)) {
        std::fprintf(stderr, "--scale must be a positive number\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--export-dir") == 0 && i + 1 < argc) {
      export_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--obs-out") == 0 && i + 1 < argc) {
      obs_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--durable-dir") == 0 && i + 1 < argc) {
      durable_args.dir = argv[++i];
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      durable_args.resume = true;
    } else if (std::strcmp(argv[i], "--snapshot-every") == 0 && i + 1 < argc) {
      durable_args.snapshot_every =
          static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--fsync-every") == 0 && i + 1 < argc) {
      durable_args.fsync_every =
          static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--shed-max") == 0 && i + 1 < argc) {
      durable_args.shed_max =
          static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--chaos") == 0 && i + 1 < argc) {
      durable_args.chaos_spec = argv[++i];
    }
  }
  if (durable_args.dir.empty() &&
      (durable_args.resume || !durable_args.chaos_spec.empty())) {
    std::fprintf(stderr, "--resume/--chaos require --durable-dir\n");
    return 2;
  }
  return Main(ablation, export_dir, obs_dir, scale, durable_args);
}
