// Streaming-vs-batch byte-identity: the full Table 1 campaign (ScenarioZa
// under a fault plan) must produce the same panel CSV, the same metrics
// registry snapshot, and the same audit.bin whether records flow
// through the batch merge or the sharded streaming ingest, at any thread
// count (here 1 and 8). This is the property the streaming ctest fixture
// and the CI streaming-smoke job enforce on the shipped binaries; this
// test enforces it in-process where a diff is debuggable. A second plan
// adds traceroute truncation: streaming records carry no traceroute, so
// their lineage `truncated` bit must come from the path's hop count.
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

measure::FaultPlan TruncationPlan() {
  measure::FaultPlan plan = ParityPlan();
  plan.traceroute_truncation_probability = 0.3;
  return plan;
}

/// One campaign; every obs global is reset first so the snapshots cover
/// exactly this run. The run label is fixed so ledgers are comparable.
Artifacts RunCampaign(const measure::FaultPlan& plan, bool streaming,
                      std::size_t threads) {
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

/// Turns on the metrics registry and lineage for each test and restores
/// their previous state, the pool size and empty globals afterwards.
class StreamParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics_were_enabled_ = obs::Registry::enabled();
    lineage_was_enabled_ = obs::Lineage::enabled();
    obs::Registry::Enable(true);
    obs::Lineage::Enable(true);
  }

  void TearDown() override {
    obs::Registry::Global().ResetAll();
    obs::Lineage::Global().Reset();
    obs::Registry::Enable(metrics_were_enabled_);
    obs::Lineage::Enable(lineage_was_enabled_);
    core::ThreadPool::SetGlobalThreadCount(0);
  }

  /// Runs `plan` through the batch merge at one lane and returns it after
  /// checking that streaming at 1 and 8 lanes reproduces it byte for byte.
  static Artifacts ExpectStreamingMatchesBatch(const measure::FaultPlan& plan) {
    Artifacts batch = RunCampaign(plan, /*streaming=*/false, /*threads=*/1);
    EXPECT_FALSE(batch.panel_csv.empty());
    for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      const Artifacts streamed =
          RunCampaign(plan, /*streaming=*/true, threads);
      EXPECT_EQ(streamed.panel_csv, batch.panel_csv)
          << "panel diverged at " << threads << " threads";
      EXPECT_EQ(streamed.metrics_json, batch.metrics_json)
          << "metrics diverged at " << threads << " threads";
      EXPECT_EQ(streamed.audit_bin, batch.audit_bin)
          << "lineage diverged at " << threads << " threads";
    }
    return batch;
  }

 private:
  bool metrics_were_enabled_ = false;
  bool lineage_was_enabled_ = false;
};

TEST_F(StreamParityTest, StreamingMatchesBatchByteForByteAtAnyThreadCount) {
  const measure::FaultPlan plan = ParityPlan();
  const Artifacts batch = ExpectStreamingMatchesBatch(plan);

  // The batch path itself must also be thread-count invariant.
  const Artifacts batch8 =
      RunCampaign(plan, /*streaming=*/false, /*threads=*/8);
  EXPECT_EQ(batch8.metrics_json, batch.metrics_json);
  EXPECT_EQ(batch8.audit_bin, batch.audit_bin);
}

TEST_F(StreamParityTest, TracerouteTruncationMatchesBatchAtAnyThreadCount) {
  ExpectStreamingMatchesBatch(TruncationPlan());
}

}  // namespace
}  // namespace sisyphus
