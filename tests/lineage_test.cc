// Tests for the measurement lineage ledger: IdRunSet encoding and the
// conservation invariant (every emitted record lands in exactly one
// terminal state, and the waterfall reconciles with the store and the
// platform) under every fault scenario. The determinism headline — the
// ledger's artifact, audit.bin, is byte-identical at 1 and 8 lanes — is
// audit_test's ByteIdenticalAt1And8Lanes.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "causal/placebo.h"
#include "causal/robust_synthetic_control.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "measure/faults.h"
#include "measure/panel.h"
#include "measure/platform.h"
#include "netsim/scenario_za.h"
#include "obs/lineage.h"

namespace sisyphus {
namespace {

using core::SimTime;
using measure::FaultPlan;
using obs::IdRunSet;
using obs::Lineage;
using obs::LineageWaterfall;
using Ids = std::vector<std::uint64_t>;

TEST(IdRunSetTest, RoundTripsSortedIds) {
  const std::vector<std::uint64_t> ids = {1, 2, 3, 7, 8, 20};
  const IdRunSet set = IdRunSet::FromSorted(ids);
  EXPECT_EQ(set.size(), ids.size());
  EXPECT_EQ(set.Expand(), ids);
  // Three runs -> six encoded values ([gap, len] pairs).
  EXPECT_EQ(set.encoded().size(), 6u);
}

TEST(IdRunSetTest, CollapsesDuplicates) {
  const IdRunSet set = IdRunSet::FromSorted(Ids{5, 5, 6, 6, 6, 7});
  EXPECT_EQ(set.Expand(), (std::vector<std::uint64_t>{5, 6, 7}));
  EXPECT_EQ(set.encoded(), (std::vector<std::uint64_t>{5, 3}));
  // The encoder FromSorted wraps, fed one id at a time as the audit
  // writer feeds its posting lists.
  IdRunSet::Encoder encoder;
  for (std::uint64_t id : {2, 2, 3, 4, 9, 9, 10, 12}) encoder.Append(id);
  EXPECT_EQ(encoder.size(), 6u);
  EXPECT_EQ(encoder.Finish(), (std::vector<std::uint64_t>{2, 3, 4, 2, 1, 1}));
}

TEST(IdRunSetTest, EmptyAndDigest) {
  const IdRunSet empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);
  const IdRunSet a = IdRunSet::FromSorted(Ids{1, 2, 3});
  const IdRunSet b = IdRunSet::FromSorted(Ids{1, 2, 3});
  const IdRunSet c = IdRunSet::FromSorted(Ids{1, 2, 4});
  // The digest is a pure function of the member set.
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_NE(a.digest(), c.digest());
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

/// RAII: turns the lineage ledger on for one test, off afterwards so the
/// remaining tests in this binary see the default-disabled fast path.
struct ScopedLineage {
  ScopedLineage() {
    Lineage::Enable(true);
    Lineage::Global().Reset();
  }
  ~ScopedLineage() { Lineage::Enable(false); }
};

/// Runs a small ZA campaign under `plan` (nullptr = no faults), builds the
/// panel, and fits the robust estimator for the first treated unit, which
/// exercises the full emit -> panel -> estimate lineage path.
struct CampaignOutcome {
  std::size_t archived = 0;
  std::size_t quarantined = 0;
  std::size_t probe_failures = 0;
};

CampaignOutcome RunLineageCampaign(const FaultPlan* plan) {
  netsim::ScenarioZaOptions options;
  options.donor_units = 6;
  options.treatment_time = SimTime::FromDays(3);
  options.horizon = SimTime::FromDays(6);
  auto scenario = netsim::BuildScenarioZa(options);
  measure::PlatformOptions platform_options;
  platform_options.server = scenario.content_jnb;
  measure::Platform platform(*scenario.simulator, platform_options);
  measure::FaultInjector injector(plan != nullptr ? *plan : FaultPlan{});
  if (plan != nullptr) platform.SetFaultInjector(&injector);
  measure::VantageConfig vantage;
  vantage.baseline_tests_per_day = 10.0;
  vantage.user_tests_per_day = 3.0;
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
  campaign_options.panel.periods = 4 * 6;
  campaign_options.panel.max_missing_fraction = 0.9;
  measure::StreamingCampaign campaign(platform_options.validation,
                                      campaign_options);
  core::Rng rng(29);
  platform.Run(options.horizon, rng, campaign);
  const auto panel = campaign.FinalizePanel();
  auto input = measure::MakeSyntheticControlInput(
      panel, scenario.treated[0].name, scenario.donor_names,
      options.treatment_time);
  if (input.ok()) {
    (void)causal::FitRobustSyntheticControl(input.value());
  }

  CampaignOutcome outcome;
  outcome.archived = campaign.store().size();
  outcome.quarantined = campaign.store().quarantined();
  outcome.probe_failures = platform.failures().size();
  return outcome;
}

/// The conservation invariant, checked against ground truth from the
/// platform itself: terminal stages partition the emitted records, and
/// copy counts reconcile with what the store actually archived and
/// quarantined.
void ExpectConservation(const CampaignOutcome& outcome) {
  const LineageWaterfall totals = Lineage::Global().Totals();
  EXPECT_EQ(totals.untracked, 0u);
  EXPECT_EQ(totals.probes_failed, outcome.probe_failures);
  EXPECT_EQ(totals.probes_attempted, totals.emitted + totals.probes_failed);
  std::uint64_t terminal_sum = 0;
  for (std::uint64_t count : totals.terminal) terminal_sum += count;
  EXPECT_EQ(terminal_sum, totals.emitted);
  EXPECT_EQ(totals.archived_copies, outcome.archived);
  EXPECT_EQ(totals.quarantined_copies, outcome.quarantined);
  EXPECT_EQ(totals.delivered, totals.archived_copies + totals.quarantined_copies);
  EXPECT_GT(totals.emitted, 0u);
}

class LineageConservationTest : public ::testing::Test {};

TEST_F(LineageConservationTest, CleanCampaign) {
  ScopedLineage scoped;
  Lineage::Global().BeginRun("clean");
  ExpectConservation(RunLineageCampaign(nullptr));
}

TEST_F(LineageConservationTest, ProbeLoss) {
  FaultPlan plan;
  plan.seed = 99;
  plan.probe_loss_probability = 0.3;
  ScopedLineage scoped;
  Lineage::Global().BeginRun("probe_loss");
  const auto outcome = RunLineageCampaign(&plan);
  ExpectConservation(outcome);
  EXPECT_GT(outcome.probe_failures, 0u);
}

TEST_F(LineageConservationTest, MnarLoss) {
  FaultPlan plan;
  plan.seed = 5;
  plan.probe_loss_probability = 0.05;
  plan.mnar_loss_gain = 20.0;
  ScopedLineage scoped;
  Lineage::Global().BeginRun("mnar");
  ExpectConservation(RunLineageCampaign(&plan));
}

TEST_F(LineageConservationTest, Outages) {
  FaultPlan plan;
  plan.seed = 7;
  plan.vantage_outages.push_back(
      {0, {{SimTime::FromHours(10), SimTime::FromHours(30)}}});
  plan.collector_outages.push_back(
      {SimTime::FromHours(50), SimTime::FromHours(60)});
  ScopedLineage scoped;
  Lineage::Global().BeginRun("outages");
  ExpectConservation(RunLineageCampaign(&plan));
}

TEST_F(LineageConservationTest, Truncation) {
  FaultPlan plan;
  plan.seed = 11;
  plan.traceroute_truncation_probability = 1.0;
  plan.truncation_min_hops = 2;
  ScopedLineage scoped;
  Lineage::Global().BeginRun("truncation");
  ExpectConservation(RunLineageCampaign(&plan));
}

TEST_F(LineageConservationTest, CorruptionFillsQuarantine) {
  FaultPlan plan;
  plan.seed = 13;
  plan.corruption_probability = 1.0;
  ScopedLineage scoped;
  Lineage::Global().BeginRun("corruption");
  const auto outcome = RunLineageCampaign(&plan);
  ExpectConservation(outcome);
  EXPECT_GT(outcome.quarantined, 0u);
  // Every record was corrupted in flight, so every record carries the bit.
  const LineageWaterfall totals = Lineage::Global().Totals();
  EXPECT_EQ(totals.terminal[static_cast<std::size_t>(
                obs::LineageStage::kQuarantined)],
            totals.emitted);
}

TEST_F(LineageConservationTest, ClockSkew) {
  FaultPlan plan;
  plan.seed = 17;
  plan.max_clock_skew = SimTime(5);
  ScopedLineage scoped;
  Lineage::Global().BeginRun("skew");
  ExpectConservation(RunLineageCampaign(&plan));
}

TEST_F(LineageConservationTest, DuplicationDeliversExtraCopies) {
  FaultPlan plan;
  plan.seed = 19;
  plan.duplicate_probability = 0.5;
  ScopedLineage scoped;
  Lineage::Global().BeginRun("duplication");
  ExpectConservation(RunLineageCampaign(&plan));
  const LineageWaterfall totals = Lineage::Global().Totals();
  // ~half the records were delivered twice; copies exceed distinct ids.
  EXPECT_GT(totals.delivered, totals.emitted);
}

TEST_F(LineageConservationTest, CombinedPlan) {
  FaultPlan plan;
  plan.seed = 23;
  plan.probe_loss_probability = 0.1;
  plan.mnar_loss_gain = 5.0;
  plan.traceroute_truncation_probability = 0.2;
  plan.truncation_min_hops = 2;
  plan.corruption_probability = 0.05;
  plan.duplicate_probability = 0.1;
  plan.max_clock_skew = SimTime(3);
  plan.collector_outages.push_back(
      {SimTime::FromHours(40), SimTime::FromHours(44)});
  ScopedLineage scoped;
  Lineage::Global().BeginRun("combined");
  ExpectConservation(RunLineageCampaign(&plan));
}

TEST_F(LineageConservationTest, PlaceboAnalysisMarksRotatedDonors) {
  ScopedLineage scoped;
  Lineage::Global().BeginRun("placebo");
  netsim::ScenarioZaOptions options;
  options.donor_units = 8;
  options.treatment_time = SimTime::FromDays(3);
  options.horizon = SimTime::FromDays(6);
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
  campaign_options.panel.periods = 4 * 6;
  measure::StreamingCampaign campaign(platform_options.validation,
                                      campaign_options);
  core::Rng rng(17);
  platform.Run(options.horizon, rng, campaign);
  const auto panel = campaign.FinalizePanel();
  auto input = measure::MakeSyntheticControlInput(
      panel, scenario.treated[0].name, scenario.donor_names,
      options.treatment_time);
  ASSERT_TRUE(input.ok());
  ASSERT_TRUE(causal::RunPlaceboAnalysis(input.value()).ok());
  // Placebo rotations fit each donor as a pseudo-treated unit, but those
  // fits must not promote donors to the treated terminal stage: only the
  // real treated unit's records end as kTreated.
  const LineageWaterfall totals = Lineage::Global().Totals();
  EXPECT_EQ(totals.untracked, 0u);
  EXPECT_GT(totals.terminal[static_cast<std::size_t>(
                obs::LineageStage::kTreated)],
            0u);
  EXPECT_GT(totals.terminal[static_cast<std::size_t>(
                obs::LineageStage::kDonor)],
            0u);
}

// ---------------------------------------------------------------------------
// In-place verdicts. Pool tasks write their records' entries without the
// ledger lock, so they may only write inside the column sized before the
// region: growing it would move it under the other tasks.

TEST(LineageVerdictTest, TasksWriteOnlyInsideTheReservedColumn) {
  ScopedLineage scoped;
  if (!Lineage::enabled()) GTEST_SKIP() << "lineage compiled out";
  core::ThreadPool::SetGlobalThreadCount(4);
  Lineage::Global().BeginRun("in-place");
  Lineage::Global().ReserveRecords(8);
  const auto emit = [](std::uint64_t first_id) {
    core::ParallelFor(8, [&](std::size_t i) {
      obs::LineageRecordInfo info;
      info.id = first_id + i;
      info.archived = true;
      Lineage::Global().RecordEmitted(info);
    });
  };
  emit(1);
  EXPECT_EQ(Lineage::Global().Totals().emitted, 8u);
  EXPECT_THROW(emit(2), std::logic_error);  // id 9 was never reserved
  core::ThreadPool::SetGlobalThreadCount(0);
}

// ---------------------------------------------------------------------------
// Ledger writes from pool tasks. The fit marks may come from the tasks of
// a multi-lane region; every other mutator is serial and refuses one.

std::string MarkUnit(std::size_t i) { return "unit-" + std::to_string(i); }

/// One run of eight kept units, unit i holding records 2i+1 and 2i+2.
void BuildMarkLedger() {
  Lineage& lineage = Lineage::Global();
  lineage.Reset();
  lineage.BeginRun("marks");
  for (std::uint64_t id = 1; id <= 16; ++id) {
    obs::LineageRecordInfo info;
    info.id = id;
    info.archived = true;
    lineage.RecordEmitted(info);
  }
  for (std::uint64_t u = 0; u < 8; ++u) {
    lineage.PanelUnitKept(MarkUnit(u), 0.0, 1, 0);
    lineage.PanelCell(MarkUnit(u), 0,
                      IdRunSet::FromSorted(Ids{2 * u + 1, 2 * u + 2}));
  }
}

TEST(LineageTaskTest, FitMarksFromTasksMatchASerialLoop) {
  ScopedLineage scoped;
  core::ThreadPool::SetGlobalThreadCount(4);
  // Task i marks unit i treated when i is even and its neighbour donor, as
  // a fit and its placebo rotations would.
  const auto mark = [](std::size_t i) {
    if (i % 2 == 0) Lineage::Global().MarkTreated(MarkUnit(i));
    Lineage::Global().MarkDonor(MarkUnit((i + 1) % 8));
  };
  BuildMarkLedger();
  for (std::size_t i = 0; i < 8; ++i) mark(i);
  const LineageWaterfall serial = Lineage::Global().Totals();
  BuildMarkLedger();
  core::ParallelFor(8, mark);
  const LineageWaterfall tasks = Lineage::Global().Totals();
  core::ThreadPool::SetGlobalThreadCount(0);

  EXPECT_EQ(tasks.terminal, serial.terminal);
  EXPECT_EQ(tasks.emitted, serial.emitted);
  EXPECT_EQ(tasks.units_kept, serial.units_kept);
  EXPECT_EQ(serial.terminal[static_cast<std::size_t>(
                obs::LineageStage::kTreated)],
            8u);
  EXPECT_EQ(serial.terminal[static_cast<std::size_t>(
                obs::LineageStage::kDonor)],
            8u);
}

TEST(LineageTaskTest, SerialMutatorsRefuseAMultiLaneTask) {
  ScopedLineage scoped;
  core::ThreadPool::SetGlobalThreadCount(4);
  Lineage::Global().BeginRun("serial");
  const auto expect_refused = [](const std::string& mutator,
                                 const std::function<void()>& write) {
    try {
      core::ParallelFor(8, [&](std::size_t) { write(); });
      ADD_FAILURE() << mutator << " wrote the ledger from a pool task";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("Lineage::" + mutator),
                std::string::npos)
          << e.what();
    }
  };
  expect_refused("PanelCell", [] {
    Lineage::Global().PanelCell("unit", 0, IdRunSet::FromSorted(Ids{1}));
  });
  expect_refused("AddEstimate", [] {
    Lineage::Global().AddEstimate("est", "unit", {}, 0.0, 0.0);
  });
  expect_refused("BeginRun", [] { Lineage::Global().BeginRun("task"); });
  const auto cells_and_estimates = [] {
    std::size_t count = 0;
    Lineage::Global().VisitRuns(
        [&](const std::vector<Lineage::RunLedger>& runs) {
      EXPECT_EQ(runs.size(), 1u);
      for (const auto& [name, unit] : runs.back().units) {
        count += unit.cells.size();
      }
      count += runs.back().estimates.size();
    });
    return count;
  };
  EXPECT_EQ(cells_and_estimates(), 0u);

  // At one lane the region runs inline on the caller, in index order, so
  // the same writes are serial and allowed.
  core::ThreadPool::SetGlobalThreadCount(1);
  core::ParallelFor(2, [](std::size_t i) {
    Lineage::Global().PanelCell("unit", static_cast<std::uint32_t>(i),
                                IdRunSet::FromSorted(Ids{i + 1}));
  });
  core::ThreadPool::SetGlobalThreadCount(0);
  EXPECT_EQ(cells_and_estimates(), 2u);
}

}  // namespace
}  // namespace sisyphus
