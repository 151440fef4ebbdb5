// Lane-count byte-identity: the full Table 1 campaign (ScenarioZa under a
// fault plan) must produce the same panel CSV, the same metrics registry
// snapshot, and the same audit.bin at any thread count (here 1 and 8).
// This is the property the table1 parity fixtures and the CI parity job
// enforce on the shipped binaries; this test enforces it in-process where
// a diff is debuggable. A second plan adds traceroute truncation, which
// clears a record's IXP crossing when it cuts the crossing hop: each
// treated unit's first crossing and post-treatment crossing share are
// pinned to the values the traceroute-keeping archive this campaign
// driver replaced reported for the same campaign.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

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
  /// Per treated unit: FirstIxpCrossing of NAPAfrica-JNB in minutes (-1
  /// for none) and the crossing share from the treatment to the horizon.
  std::vector<std::pair<std::int64_t, double>> crossings;
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
Artifacts RunCampaign(const measure::FaultPlan& plan, std::size_t threads) {
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

  measure::StreamingOptions streaming_options;
  streaming_options.panel = panel_options;
  measure::StreamingCampaign stream(platform_options.validation,
                                    streaming_options);
  core::Rng rng(scenario_options.seed);
  platform.Run(scenario_options.horizon, rng, stream);
  Artifacts out;
  out.panel_csv = measure::PanelToCsv(stream.FinalizePanel());
  for (const auto& unit : scenario.treated) {
    const auto first =
        stream.store().FirstIxpCrossing(unit.name, scenario.napafrica_jnb);
    out.crossings.emplace_back(
        first.has_value() ? first->minutes() : -1,
        stream.store().IxpCrossingShare(unit.name, scenario.napafrica_jnb,
                                        scenario_options.treatment_time,
                                        scenario_options.horizon));
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

  /// Runs `plan` at one lane and returns it after checking that 8 lanes
  /// reproduce it byte for byte.
  static Artifacts ExpectSameAt1And8Lanes(const measure::FaultPlan& plan) {
    Artifacts one = RunCampaign(plan, /*threads=*/1);
    EXPECT_FALSE(one.panel_csv.empty());
    const Artifacts eight = RunCampaign(plan, /*threads=*/8);
    EXPECT_EQ(eight.panel_csv, one.panel_csv);
    EXPECT_EQ(eight.metrics_json, one.metrics_json);
    EXPECT_EQ(eight.audit_bin, one.audit_bin);
    EXPECT_EQ(eight.crossings, one.crossings);
    return one;
  }

 private:
  bool metrics_were_enabled_ = false;
  bool lineage_was_enabled_ = false;
};

TEST_F(StreamParityTest, ArtifactsByteIdenticalAt1And8Lanes) {
  ExpectSameAt1And8Lanes(ParityPlan());
}

TEST_F(StreamParityTest, TruncationKeepsTheArchivedCrossings) {
  const Artifacts run = ExpectSameAt1And8Lanes(TruncationPlan());
  // Recorded from the traceroute-keeping batch store's FirstIxpCrossing
  // and IxpCrossingShare (hop matching on each kept, possibly truncated,
  // traceroute) for this campaign; treatment is day 28 (minute 40320).
  const std::vector<std::pair<std::int64_t, double>> expected = {
      {40322, 0.6875},               // 3741 / East London
      {40320, 0.69689737470167068},  // 3741 / Johannesburg
      {40621, 0.71246819338422396},  // 37053 / Cape Town
      {40619, 0.66884531590413943},  // 37611 / Edenvale
      {40560, 0.68876080691642649},  // 37680 / Durban
      {40438, 0.74285714285714288},  // 327966 / Polokwane
      {40560, 0.68461538461538463},  // 328622 / eMuziwezinto
      {40440, 0.671264367816092},    // 328745 / Johannesburg
  };
  EXPECT_EQ(run.crossings, expected);
}

}  // namespace
}  // namespace sisyphus
