// Tests for obs::RunManifest / ScopedPhase / WriteRunArtifacts, the
// determinism contract (a seeded in-process campaign snapshots to
// byte-identical metrics JSON on repeat runs), and the trace's pool-region
// spans.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "core/json.h"
#include "core/parallel.h"
#include "measure/platform.h"
#include "netsim/simulator.h"
#include "netsim/topology.h"
#include "obs/lineage.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sisyphus::obs {
namespace {

using core::Asn;
using core::SimTime;
using netsim::AsRole;
using netsim::Relationship;
using netsim::Topology;

class ManifestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Registry::Enable(true);
    Registry::Global().ResetAll();
    Tracer::Global().Clear();
    Tracer::Global().Enable(true);
  }
  void TearDown() override {
    Tracer::Global().Enable(false);
    Tracer::Global().Clear();
    Registry::Global().ResetAll();
    Registry::Enable(false);
  }
};

/// Runs a tiny two-vantage campaign and returns the resulting metric
/// snapshot. Everything is seeded, so two calls must match byte for byte.
std::string RunSeededCampaignSnapshot(std::uint64_t seed) {
  Registry::Global().ResetAll();
  Topology topo;
  const auto city = topo.cities().Add({"X", {0, 0}, 2.0});
  const auto user = topo.AddPop(Asn{100}, city, AsRole::kAccess).value();
  const auto transit = topo.AddPop(Asn{2}, city, AsRole::kTransit).value();
  const auto server =
      topo.AddPop(Asn{4}, city, AsRole::kMeasurement).value();
  EXPECT_TRUE(topo.AddLink(user, transit, Relationship::kCustomerToProvider,
                           std::nullopt, 0.5)
                  .ok());
  EXPECT_TRUE(topo.AddLink(server, transit, Relationship::kCustomerToProvider,
                           std::nullopt, 0.3)
                  .ok());
  netsim::NetworkSimulator sim(std::move(topo));
  measure::PlatformOptions options;
  options.server = server;
  measure::Platform platform(sim, options);
  measure::VantageConfig vantage;
  vantage.pop = user;
  vantage.baseline_tests_per_day = 24.0;
  platform.AddVantage(vantage);
  measure::StreamingCampaign campaign(options.validation, {});
  core::Rng rng(seed);
  platform.Run(SimTime::FromDays(2), rng, campaign);
  return Registry::Global().SnapshotJson();
}

TEST_F(ManifestTest, SeededCampaignSnapshotsAreByteIdentical) {
  const std::string first = RunSeededCampaignSnapshot(7);
  const std::string second = RunSeededCampaignSnapshot(7);
  EXPECT_EQ(first, second);
  // And the campaign actually recorded probe activity.
  auto parsed = core::json::Parse(first);
  ASSERT_TRUE(parsed.ok());
  const auto* attempted =
      parsed.value().Find("counters")->Find("measure.probes.attempted");
  ASSERT_NE(attempted, nullptr);
  EXPECT_GT(attempted->number, 0.0);
}

TEST_F(ManifestTest, ScopedPhaseAppendsTimings) {
  RunManifest manifest;
  manifest.tool = "unit_test";
  {
    ScopedPhase phase(manifest, "first");
    phase.SetSimSpan(SimTime(0), SimTime::FromDays(1));
  }
  { ScopedPhase phase(manifest, "second"); }
  ASSERT_EQ(manifest.phases.size(), 2u);
  EXPECT_EQ(manifest.phases[0].name, "first");
  EXPECT_GE(manifest.phases[0].wall_ms, 0.0);
  EXPECT_EQ(manifest.phases[0].sim_start_min, 0);
  EXPECT_EQ(manifest.phases[0].sim_end_min,
            SimTime::FromDays(1).minutes());
  EXPECT_EQ(manifest.phases[1].name, "second");
  EXPECT_EQ(manifest.phases[1].sim_start_min, -1);
}

TEST_F(ManifestTest, StopIsIdempotent) {
  RunManifest manifest;
  ScopedPhase phase(manifest, "once");
  phase.Stop();
  phase.Stop();
  EXPECT_EQ(manifest.phases.size(), 1u);
}

TEST_F(ManifestTest, ToJsonCarriesProvenanceAndMetrics) {
  Registry::Global().GetCounter("measure.probes.attempted")->Add(12);
  RunManifest manifest;
  manifest.tool = "unit_test";
  manifest.seed = 2025;
  manifest.scenario_hash = "deadbeefcafef00d";
  manifest.AddOption("horizon_days", "56");
  manifest.AddPhase("build", 1.5);

  const Lineage empty_ledger;
  auto parsed =
      core::json::Parse(manifest.ToJson(Registry::Global(), empty_ledger));
  ASSERT_TRUE(parsed.ok());
  const auto& root = parsed.value();
  EXPECT_EQ(root.Find("schema")->string, "sisyphus.run_manifest/1");
  EXPECT_EQ(root.Find("tool")->string, "unit_test");
  EXPECT_DOUBLE_EQ(root.Find("seed")->number, 2025.0);
  EXPECT_EQ(root.Find("scenario_hash")->string, "deadbeefcafef00d");
  EXPECT_EQ(root.Find("options")->Find("horizon_days")->string, "56");
  ASSERT_EQ(root.Find("phases")->array.size(), 1u);
  EXPECT_EQ(root.Find("phases")->array[0].Find("name")->string, "build");
  const auto* metrics = root.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_DOUBLE_EQ(metrics->Find("measure.probes.attempted")->number, 12.0);
  // The lineage block is always written; an empty ledger rolls up to zero.
  const auto* lineage = root.Find("lineage");
  ASSERT_NE(lineage, nullptr);
  EXPECT_DOUBLE_EQ(lineage->Find("runs")->number, 0.0);
  EXPECT_DOUBLE_EQ(lineage->Find("emitted")->number, 0.0);
}

TEST_F(ManifestTest, WriteRunArtifactsEmitsParsableTrio) {
  Registry::Global().GetCounter("measure.probes.attempted")->Add(3);
  Tracer::Global().RecordSimSpan("campaign", "measure", SimTime(0),
                                 SimTime::FromDays(1));
  RunManifest manifest;
  manifest.tool = "unit_test";
  manifest.seed = 1;

  // A three-record ledger: two archived, one quarantined.
  Lineage lineage;
  Lineage::Enable(true);
  lineage.BeginRun("unit_test");
  for (std::uint64_t id = 1; id <= 3; ++id) {
    LineageRecordInfo info;
    info.id = id;
    info.archived = id != 3;
    lineage.RecordEmitted(info);
  }
  Lineage::Enable(false);

  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "obs_manifest_test";
  std::filesystem::create_directories(dir);
  const auto status =
      WriteRunArtifacts(dir.string(), manifest, Registry::Global(),
                        Tracer::Global(), lineage);
  ASSERT_TRUE(status.ok()) << status.error().ToText();

  std::map<std::string, core::json::Value> parsed;
  for (const char* file : {"manifest.json", "metrics.json", "trace.json"}) {
    std::ifstream in(dir / file, std::ios::binary);
    ASSERT_TRUE(in.good()) << file;
    std::ostringstream text;
    text << in.rdbuf();
    auto json = core::json::Parse(text.str());
    ASSERT_TRUE(json.ok()) << file;
    parsed[file] = json.value();
  }

  // The manifest's lineage block: run count, emitted, and one terminal
  // total per stage, in legend order.
  const core::json::Value* block = parsed["manifest.json"].Find("lineage");
  ASSERT_NE(block, nullptr);
  const core::json::Value* terminal = block->Find("terminal");
  ASSERT_NE(terminal, nullptr);
  ASSERT_EQ(terminal->object.size(), kLineageStageCount);
  for (std::size_t s = 0; s < kLineageStageCount; ++s) {
    EXPECT_EQ(terminal->object[s].first,
              ToString(static_cast<LineageStage>(s)));
  }
  EXPECT_DOUBLE_EQ(block->Find("runs")->number, 1.0);
  EXPECT_DOUBLE_EQ(block->Find("emitted")->number, 3.0);
  EXPECT_DOUBLE_EQ(terminal->Find("archived")->number, 2.0);
  EXPECT_DOUBLE_EQ(terminal->Find("quarantined")->number, 1.0);
}

TEST_F(ManifestTest, TraceJsonUsesSeparateTracks) {
  Tracer::Global().RecordSimSpan("sim", "measure", SimTime(0), SimTime(5));
  auto parsed = core::json::Parse(Tracer::Global().ToChromeTraceJson());
  ASSERT_TRUE(parsed.ok());
  const auto* events = parsed.value().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 1u);
  const auto& event = events->array[0];
  EXPECT_EQ(event.Find("ph")->string, "X");
  EXPECT_DOUBLE_EQ(event.Find("tid")->number, 1.0);
  EXPECT_DOUBLE_EQ(event.Find("dur")->number, 5.0);
}

// Tracing a pool region costs one span, not one per task: a multi-lane
// region records one "parallel.region" wall span, a region nested in one
// of its tasks (inline, one lane) adds none, and on a one-lane pool no
// region records a span. Task durations stay in the manifest's pool stats.
TEST_F(ManifestTest, PoolRegionsTraceOneSpanEach) {
  const auto region_spans = [] {
    std::size_t spans = 0;
    for (const TraceEvent& event : Tracer::Global().events()) {
      EXPECT_EQ(event.name, "parallel.region");
      EXPECT_EQ(event.category, "parallel");
      EXPECT_FALSE(event.sim_clock);
      ++spans;
    }
    return spans;
  };
  core::ThreadPool::SetGlobalThreadCount(4);
  core::ParallelFor(16, [](std::size_t) {
    core::ParallelFor(3, [](std::size_t) {});
  });
  core::ParallelFor(8, [](std::size_t) {});
  EXPECT_EQ(region_spans(), 2u);

  Tracer::Global().Clear();
  core::ThreadPool::SetGlobalThreadCount(1);
  core::ParallelFor(16, [](std::size_t) {});
  EXPECT_EQ(region_spans(), 0u);
  core::ThreadPool::SetGlobalThreadCount(0);
}

}  // namespace
}  // namespace sisyphus::obs
