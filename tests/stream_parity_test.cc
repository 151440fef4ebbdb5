// Streaming-vs-batch byte-identity: the full Table 1 campaign (ScenarioZa
// under a fault plan) must produce the same panel CSV, the same metrics
// registry snapshot, and the same audit.bin whether records flow
// through the batch merge or the sharded streaming ingest, at any thread
// count (here 1 and 8). This is the property the streaming ctest fixture
// and the CI streaming-smoke job enforce on the shipped binaries; this
// test enforces it in-process where a diff is debuggable.
#include <gtest/gtest.h>

#include <string>

#include "audit/writer.h"
#include "core/parallel.h"
#include "measure/export.h"
#include "measure/faults.h"
#include "measure/panel.h"
#include "measure/platform.h"
#include "netsim/scenario_za.h"
#include "obs/lineage.h"
#include "obs/metrics.h"

namespace sisyphus {
namespace {

struct Artifacts {
  std::string panel_csv;
  std::string metrics_json;
  std::string audit_bin;
};

measure::FaultPlan ParityPlan() {
  measure::FaultPlan plan;
  plan.seed = 42;
  plan.probe_loss_probability = 0.15;
  plan.duplicate_probability = 0.02;
  plan.corruption_probability = 0.01;
  plan.max_clock_skew = core::SimTime(3);
  return plan;
}

/// One campaign; every obs global is reset first so the snapshots cover
/// exactly this run. The run label is fixed so ledgers are comparable.
Artifacts RunCampaign(bool streaming, std::size_t threads) {
  core::ThreadPool::SetGlobalThreadCount(threads);
  obs::Registry::Global().ResetAll();
  obs::Lineage::Global().Reset();
  obs::Lineage::Global().BeginRun("parity");

  netsim::ScenarioZaOptions scenario_options;
  netsim::ScenarioZa scenario = netsim::BuildScenarioZa(scenario_options);

  measure::PlatformOptions platform_options;
  platform_options.server = scenario.content_jnb;
  platform_options.step = core::SimTime::FromHours(1);
  measure::Platform platform(*scenario.simulator, platform_options);

  measure::VantageConfig vantage;
  vantage.baseline_tests_per_day = 10.0;
  vantage.user_tests_per_day = 4.0;
  for (const auto& unit : scenario.treated) {
    vantage.pop = unit.access_pop;
    platform.AddVantage(vantage);
  }
  for (netsim::PopIndex donor : scenario.donors) {
    vantage.pop = donor;
    platform.AddVantage(vantage);
  }

  const measure::FaultPlan plan = ParityPlan();
  measure::FaultInjector injector(plan);
  platform.SetFaultInjector(&injector);

  measure::PanelOptions panel_options;
  panel_options.bucket = core::SimTime::FromHours(6);
  panel_options.periods = static_cast<std::size_t>(
      scenario_options.horizon.minutes() / panel_options.bucket.minutes());

  core::Rng rng(scenario_options.seed);
  Artifacts out;
  if (streaming) {
    measure::StreamingOptions streaming_options;
    streaming_options.panel = panel_options;
    measure::StreamingCampaign stream(platform_options.validation,
                                      streaming_options);
    platform.RunStreaming(scenario_options.horizon, rng, stream);
    out.panel_csv = measure::PanelToCsv(stream.FinalizePanel());
  } else {
    platform.Run(scenario_options.horizon, rng);
    out.panel_csv = measure::PanelToCsv(
        measure::BuildRttPanel(platform.store(), panel_options));
  }
  out.metrics_json = obs::Registry::Global().SnapshotJson();
  out.audit_bin = audit::BuildAuditArtifact(obs::Lineage::Global());
  return out;
}

TEST(StreamParityTest, StreamingMatchesBatchByteForByteAtAnyThreadCount) {
  const bool metrics_were_enabled = obs::Registry::enabled();
  const bool lineage_was_enabled = obs::Lineage::enabled();
  obs::Registry::Enable(true);
  obs::Lineage::Enable(true);

  const Artifacts batch = RunCampaign(/*streaming=*/false, /*threads=*/1);
  ASSERT_FALSE(batch.panel_csv.empty());

  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    const Artifacts streamed = RunCampaign(/*streaming=*/true, threads);
    EXPECT_EQ(streamed.panel_csv, batch.panel_csv)
        << "panel diverged at " << threads << " threads";
    EXPECT_EQ(streamed.metrics_json, batch.metrics_json)
        << "metrics diverged at " << threads << " threads";
    EXPECT_EQ(streamed.audit_bin, batch.audit_bin)
        << "lineage diverged at " << threads << " threads";
  }

  // The batch path itself must also be thread-count invariant.
  const Artifacts batch8 = RunCampaign(/*streaming=*/false, /*threads=*/8);
  EXPECT_EQ(batch8.metrics_json, batch.metrics_json);
  EXPECT_EQ(batch8.audit_bin, batch.audit_bin);

  obs::Registry::Global().ResetAll();
  obs::Lineage::Global().Reset();
  obs::Registry::Enable(metrics_were_enabled);
  obs::Lineage::Enable(lineage_was_enabled);
  core::ThreadPool::SetGlobalThreadCount(0);
}

}  // namespace
}  // namespace sisyphus
