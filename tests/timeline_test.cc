// Tests for the deterministic telemetry timeline (src/obs/timeline,
// DESIGN.md §15): detector semantics against hand-computed recurrences,
// dense-fill and epoch invariants, rejection of hostile counts in the
// artifact's schema (its container is section_file_test's), a
// cross-commit byte pin, and the two byte-identity
// properties the artifact exists for — 1-vs-8-thread identity of a full
// campaign's timeline.bin, and kill-at-every-step/resume identity under
// the durable service.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "core/hash.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/sim_time.h"
#include "durable/service.h"
#include "measure/faults.h"
#include "measure/panel.h"
#include "measure/platform.h"
#include "netsim/scenario_za.h"
#include "obs/lineage.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "section_file_test.h"

namespace sisyphus {
namespace {

namespace fs = std::filesystem;
using namespace section_file_test;  // NOLINT

using obs::ChurnConfig;
using obs::DetectionEvent;
using obs::DetectorKind;
using obs::LevelShiftConfig;
using obs::Timeline;
using obs::TimelineReader;

class TimelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    timeline_was_enabled_ = Timeline::enabled();
    Timeline::Enable(true);
    Timeline::Global().Reset();
  }
  void TearDown() override {
    Timeline::Global().Reset();
    Timeline::Enable(timeline_was_enabled_);
  }

 private:
  bool timeline_was_enabled_ = false;
};

/// Commits one step carrying one gauge sample.
void GaugeStep(Timeline& timeline, std::uint64_t step, std::uint32_t id,
               double value) {
  timeline.SampleGauge(step, id, value);
  timeline.CommitStep(step);
}

void CounterStep(Timeline& timeline, std::uint64_t step, std::uint32_t id,
                 std::uint64_t value) {
  timeline.SampleCounter(step, id, value);
  timeline.CommitStep(step);
}

void ExpectOk(const core::Status& status) {
  EXPECT_TRUE(status.ok()) << status.error().message();
}

/// Series `id`'s decoded values; a decode failure fails the test.
std::vector<double> Values(const TimelineReader& reader, std::uint32_t id) {
  core::Result<std::vector<double>> values = reader.SeriesValues(id);
  EXPECT_TRUE(values.ok()) << values.error().message();
  return values.ok() ? std::move(values).value() : std::vector<double>{};
}

// ---------------------------------------------------------------------------
// Detector semantics (worked recurrences from DESIGN.md §15).

// With {alpha=0.05, drift=0.5, threshold=8, min_samples=4}, a level at
// 10.0 for 20 steps then 16.0:
//   step 21: S+ = max(0, 0 + 6.0 - 0.5) = 5.5 (no fire), mu -> 10.3
//   step 22: S+ = 5.5 + (16 - 10.3) - 0.5 = 10.7 > 8 -> fire, +5.7
// and nothing afterwards (the detector re-centers on 16).
TEST_F(TimelineTest, CusumFiresAtTheHandComputedStep) {
  Timeline timeline;
  LevelShiftConfig config;
  config.ewma_alpha = 0.05;
  config.drift = 0.5;
  config.threshold = 8.0;
  config.min_samples = 4;
  const std::uint32_t id = timeline.DeclareGauge("test.level", &config);

  for (std::uint64_t step = 1; step <= 20; ++step) {
    GaugeStep(timeline, step, id, 10.0);
  }
  ASSERT_TRUE(timeline.Events().empty());
  for (std::uint64_t step = 21; step <= 28; ++step) {
    GaugeStep(timeline, step, id, 16.0);
  }

  const std::vector<DetectionEvent> events = timeline.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].step, 22u);
  EXPECT_EQ(events[0].series, id);
  EXPECT_EQ(events[0].direction, 1);
  EXPECT_NEAR(events[0].magnitude, 5.7, 1e-9);
  EXPECT_EQ(events[0].fingerprint, config.Fingerprint());
}

TEST_F(TimelineTest, CusumFiresDownwardOnADrop) {
  Timeline timeline;
  LevelShiftConfig config;
  config.ewma_alpha = 0.05;
  config.drift = 0.5;
  config.threshold = 8.0;
  config.min_samples = 4;
  const std::uint32_t id = timeline.DeclareGauge("test.level", &config);

  for (std::uint64_t step = 1; step <= 20; ++step) {
    GaugeStep(timeline, step, id, 10.0);
  }
  for (std::uint64_t step = 21; step <= 28; ++step) {
    GaugeStep(timeline, step, id, 4.0);
  }

  const std::vector<DetectionEvent> events = timeline.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].step, 22u);
  EXPECT_EQ(events[0].direction, -1);
}

// A quiet plan fires nothing: constant level, and jitter inside the
// per-sample drift slack, never accumulate.
TEST_F(TimelineTest, QuietSeriesFiresNothing) {
  Timeline timeline;
  LevelShiftConfig config;
  config.drift = 0.5;
  config.threshold = 8.0;
  config.min_samples = 4;
  const std::uint32_t flat = timeline.DeclareGauge("test.flat", &config);
  const std::uint32_t jitter = timeline.DeclareGauge("test.jitter", &config);

  for (std::uint64_t step = 1; step <= 100; ++step) {
    timeline.SampleGauge(step, flat, 10.0);
    timeline.SampleGauge(step, jitter, step % 2 == 0 ? 10.2 : 9.8);
    timeline.CommitStep(step);
  }
  EXPECT_TRUE(timeline.Events().empty());
}

TEST_F(TimelineTest, ChurnFiresOnCounterDeltas) {
  Timeline timeline;
  ChurnConfig config;
  config.min_delta = 5;
  const std::uint32_t id = timeline.DeclareCounter("test.churn", &config);

  // Per-step deltas: 0, 2, 5 (fire), 0, 5 (fire), 1.
  const std::uint64_t values[] = {0, 2, 7, 7, 12, 13};
  for (std::uint64_t step = 1; step <= 6; ++step) {
    CounterStep(timeline, step, id, values[step - 1]);
  }

  const std::vector<DetectionEvent> events = timeline.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].step, 3u);
  EXPECT_EQ(events[0].direction, 1);
  EXPECT_DOUBLE_EQ(events[0].magnitude, 5.0);
  EXPECT_EQ(events[0].fingerprint, config.Fingerprint());
  EXPECT_EQ(events[1].step, 5u);
  EXPECT_DOUBLE_EQ(events[1].magnitude, 5.0);
}

// Running-mean series store the running mean but feed the detector the
// per-step *increment* mean, so a level shift in fresh observations fires
// immediately instead of being diluted by the accumulated history.
TEST_F(TimelineTest, RunningMeanDetectorSeesIncrementMean) {
  Timeline timeline;
  LevelShiftConfig config;
  config.ewma_alpha = 0.05;
  config.drift = 0.5;
  config.threshold = 8.0;
  config.min_samples = 4;
  const std::uint32_t id = timeline.DeclareRunningMean("test.mean", &config);

  // One new observation per step: 10.0 for 20 steps, then 16.0 — the same
  // increment sequence as the gauge test, so the same firing step.
  std::uint64_t count = 0;
  double sum = 0.0;
  for (std::uint64_t step = 1; step <= 28; ++step) {
    ++count;
    sum += step <= 20 ? 10.0 : 16.0;
    timeline.SampleRunningMean(step, id, count, sum);
    timeline.CommitStep(step);
  }

  const std::vector<DetectionEvent> events = timeline.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].step, 22u);
  EXPECT_EQ(events[0].direction, 1);

  // The stored samples are the running means, not the increments.
  TimelineReader reader;
  ExpectOk(reader.Parse(timeline.BuildArtifact()));
  const std::vector<double> values = Values(reader, id);
  ASSERT_EQ(values.size(), 28u);
  EXPECT_DOUBLE_EQ(values[0], 10.0);
  EXPECT_DOUBLE_EQ(values[20], (20 * 10.0 + 16.0) / 21.0);
}

// ---------------------------------------------------------------------------
// Sampling invariants.

// A declared series not sampled at a committed step repeats its previous
// value (counters: zero delta), and a series first sampled mid-run is
// dense from its first step onward.
TEST_F(TimelineTest, DenseFillRepeatsLastValue) {
  Timeline timeline;
  const std::uint32_t counter = timeline.DeclareCounter("test.counter");
  const std::uint32_t gauge = timeline.DeclareGauge("test.gauge");
  const std::uint32_t late = timeline.DeclareGauge("test.late");

  for (std::uint64_t step = 1; step <= 6; ++step) {
    if (step % 2 == 1) {
      timeline.SampleCounter(step, counter, step * 10);
      timeline.SampleGauge(step, gauge, static_cast<double>(step));
    }
    if (step >= 4) timeline.SampleGauge(step, late, 99.0);
    timeline.CommitStep(step);
  }

  TimelineReader reader;
  ExpectOk(reader.Parse(timeline.BuildArtifact()));
  EXPECT_EQ(reader.steps(), 6u);

  EXPECT_EQ(Values(reader, counter),
            (std::vector<double>{10, 10, 30, 30, 50, 50}));
  EXPECT_EQ(Values(reader, gauge), (std::vector<double>{1, 1, 3, 3, 5, 5}));

  const obs::TimelineSeriesView* late_view = reader.FindSeries("test.late");
  ASSERT_NE(late_view, nullptr);
  EXPECT_EQ(late_view->first_step, 4u);
  EXPECT_EQ(late_view->sample_count, 3u);

  // ValuesAt skips the late series before its first step.
  const auto at2 = reader.ValuesAt(2);
  ASSERT_TRUE(at2.ok()) << at2.error().message();
  EXPECT_EQ(at2.value().size(), 2u);
  const auto at5 = reader.ValuesAt(5);
  ASSERT_TRUE(at5.ok()) << at5.error().message();
  EXPECT_EQ(at5.value().size(), 3u);
  const auto unknown = reader.SeriesValues(99);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.error().code(), core::ErrorCode::kNotFound);
}

// A second campaign in the same process restarts its step counter at 1;
// the timeline must offset it into a new epoch and stay monotone.
TEST_F(TimelineTest, SecondCampaignGetsANewEpoch) {
  Timeline timeline;
  const std::uint32_t id = timeline.DeclareCounter("test.counter");
  for (std::uint64_t step = 1; step <= 5; ++step) {
    CounterStep(timeline, step, id, step);
  }
  for (std::uint64_t step = 1; step <= 5; ++step) {
    CounterStep(timeline, step, id, 100 + step);
  }
  const Timeline::Summary summary = timeline.GetSummary();
  EXPECT_EQ(summary.steps, 10u);
  EXPECT_EQ(summary.first_step, 1u);
  EXPECT_EQ(summary.last_step, 10u);

  TimelineReader reader;
  ExpectOk(reader.Parse(timeline.BuildArtifact()));
  const std::vector<double> values = Values(reader, id);
  ASSERT_EQ(values.size(), 10u);
  EXPECT_DOUBLE_EQ(values[4], 5.0);
  EXPECT_DOUBLE_EQ(values[5], 101.0);
}

// ---------------------------------------------------------------------------
// Cross-commit byte pin, the counterpart of
// AuditStoreTest.EdgeCaseLedgerBytesArePinned: the other timeline fixtures
// compare two runs of one build, so a writer change that moved a byte on
// both sides would pass them all. The plain series plus a churn counter
// that fires once cover every section kind, both series encodings and a
// detector's meta fields. The masked constant is the FNV-1a of the
// artifact with its version word and every checksum zeroed; all three
// constants were read from the build before the container writer moved to
// core/section_file.

/// PlainTimelineArtifact's two series plus a churn counter that fires
/// once, at step 6.
std::string FlapArtifact() {
  Timeline timeline;
  PlainTimelineArtifact(timeline);
  ChurnConfig churn;
  churn.min_delta = 5;
  const std::uint32_t flaps = timeline.DeclareCounter("pin.flaps", &churn);
  CounterStep(timeline, 5, flaps, 2);  // delta 2: quiet
  CounterStep(timeline, 6, flaps, 9);  // delta 7: fires
  EXPECT_EQ(timeline.Events().size(), 1u);
  return timeline.BuildArtifact();
}

TEST_F(TimelineTest, ArtifactBytesArePinned) {
  const std::string artifact = FlapArtifact();
  EXPECT_EQ(artifact.size(), 576u);
  EXPECT_EQ(core::Fnv1a64(artifact), 0xad61a833ff1cabf8ull);

  std::string masked = artifact;
  const std::uint64_t count = GetU64At(masked, 16);
  const std::uint64_t table = GetU64At(masked, 24);
  masked.replace(8, 4, 4, '\0');   // version word
  masked.replace(40, 8, 8, '\0');  // header checksum
  for (std::uint64_t i = 0; i < count; ++i) {
    masked.replace(table + i * kEntrySize + 32, 8, 8, '\0');
  }
  masked.replace(table + count * kEntrySize, 8, 8, '\0');
  EXPECT_EQ(core::Fnv1a64(masked), 0x15adae3c0cba3c88ull);
}

// ---------------------------------------------------------------------------
// Hostile counts in the schema: each file below carries one count or
// reference the rest of the file contradicts, with every checksum
// recomputed so it reaches the decoder. Each must fail with the message of
// the check that caught it — never read out of bounds or allocate for a
// count the bytes cannot hold. The container's own cases (truncation,
// corruption, table counts and spans, old versions) are section_file_test's.

/// File offset of series `id`'s first_step field in the meta section of a
/// PlainTimelineArtifact; its sample_count follows at +8.
std::size_t FirstStepFieldOf(const std::string& file, std::uint64_t id) {
  std::size_t pos = SectionOf(file, obs::TimelineSectionKind::kMeta);
  pos += 8 + GetU64At(file, pos);  // schema
  pos += 5 * 8;  // step count, first, last, series count, event count
  for (std::uint64_t series = 0;; ++series) {
    pos += 8 + GetU64At(file, pos);  // name
    pos += 2 + 8;                    // kind, detector, fingerprint
    if (series == id) return pos;
    pos += 16;  // first_step, sample_count
  }
}

TEST_F(TimelineTest, ArtifactRejectsHostileCounts) {
  Timeline timeline;
  const std::string good = PlainTimelineArtifact(timeline);
  TimelineReader reader;
  ExpectOk(reader.Parse(good));
  const auto parse = [](const std::string& bad) {
    return TimelineReader().Parse(bad);
  };

  // Sample counts past what the payload holds, kept dense to the last
  // step by moving first_step back by the same amount: 2^61 more gauge
  // samples wrap count * 8 back to the payload size, and 2^40 more
  // counter deltas would be reserved before the first one is read.
  for (const auto& [series, extra] :
       {std::pair<std::uint64_t, std::uint64_t>{1, std::uint64_t{1} << 61},
        std::pair<std::uint64_t, std::uint64_t>{0, std::uint64_t{1} << 40}}) {
    std::string samples = good;
    const std::size_t field = FirstStepFieldOf(samples, series);
    PutU64At(samples, field, GetU64At(samples, field) - extra);
    PutU64At(samples, field + 8, GetU64At(samples, field + 8) + extra);
    Reseal(samples);
    ExpectParseError(parse(samples), "payload cannot hold its sample count");
  }

  // One sample short of the last step.
  std::string sparse = good;
  const std::size_t field = FirstStepFieldOf(sparse, 1);
  PutU64At(sparse, field + 8, GetU64At(sparse, field + 8) - 1);
  Reseal(sparse);
  ExpectParseError(parse(sparse),
                   "series 'plain.level' is not dense to the last step");

  // An event naming a series the meta section does not declare. Events
  // are u64 count, then {u64 step, u32 series, ...} each.
  std::string orphan = FlapArtifact();
  ExpectOk(parse(orphan));
  orphan[SectionOf(orphan, obs::TimelineSectionKind::kEvents) + 16] = 7;
  Reseal(orphan);
  ExpectParseError(parse(orphan), "event references unknown series 7");
}

// ---------------------------------------------------------------------------
// Byte-identity of a real campaign's timeline, across thread counts and
// across kill/resume. Harnesses mirror stream_parity_test and
// durable_stream_test (small two-day scenario: 48 one-hour steps).

constexpr std::uint64_t kTotalSteps = 48;

netsim::ScenarioZaOptions SmallScenario() {
  netsim::ScenarioZaOptions options;
  options.donor_units = 6;
  options.treatment_time = core::SimTime::FromDays(1);
  options.horizon = core::SimTime::FromDays(2);
  return options;
}

measure::FaultPlan SmallPlan() {
  measure::FaultPlan plan;
  plan.seed = 42;
  plan.probe_loss_probability = 0.15;
  plan.duplicate_probability = 0.02;
  plan.corruption_probability = 0.01;
  plan.max_clock_skew = core::SimTime(3);
  return plan;
}

/// Builds the scenario/platform/campaign exactly as the durable resume
/// contract requires and runs it; returns the global timeline's artifact.
struct CampaignSpec {
  std::size_t threads = 1;
  // When `dir` is set the campaign runs under the durable service.
  std::string dir;
  bool resume = false;
  std::uint64_t stop_after = 0;
};

struct CampaignResult {
  bool completed = false;
  std::string artifact;  ///< filled only when the campaign completed
};

CampaignResult RunTimelineCampaign(const CampaignSpec& spec) {
  core::ThreadPool::SetGlobalThreadCount(spec.threads);
  obs::Registry::Global().ResetAll();
  obs::Lineage::Global().Reset();
  obs::Lineage::Global().BeginRun("timeline");
  Timeline::Global().Reset();

  const netsim::ScenarioZaOptions scenario_options = SmallScenario();
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
  const measure::FaultPlan plan = SmallPlan();
  measure::FaultInjector injector(plan);
  platform.SetFaultInjector(&injector);

  measure::PanelOptions panel_options;
  panel_options.bucket = core::SimTime::FromHours(6);
  panel_options.periods = static_cast<std::size_t>(
      scenario_options.horizon.minutes() / panel_options.bucket.minutes());

  core::Rng rng(scenario_options.seed);
  CampaignResult result;
  measure::StreamingOptions streaming_options;
  streaming_options.panel = panel_options;
  measure::StreamingCampaign stream(platform_options.validation,
                                    streaming_options);
  if (spec.dir.empty()) {
    platform.Run(scenario_options.horizon, rng, stream);
    result.completed = true;
  } else {
    durable::DurableOptions durable_options;
    durable_options.dir = spec.dir;
    durable_options.snapshot_every = 5;
    durable_options.fsync_every = 3;
    durable_options.stop_after_steps = spec.stop_after;
    durable::DurableStreamingService service(platform, stream,
                                             durable_options);
    const core::Result<durable::RunStats> run =
        spec.resume ? service.Resume(scenario_options.horizon, rng)
                    : service.Run(scenario_options.horizon, rng);
    EXPECT_TRUE(run.ok()) << run.error().message();
    result.completed =
        run.ok() && run.value().outcome == durable::RunOutcome::kCompleted;
  }
  if (result.completed) result.artifact = Timeline::Global().BuildArtifact();
  return result;
}

std::string MakeDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

class TimelineCampaignTest : public TimelineTest {
 protected:
  void SetUp() override {
    TimelineTest::SetUp();
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
    TimelineTest::TearDown();
  }

 private:
  bool metrics_were_enabled_ = false;
  bool lineage_was_enabled_ = false;
};

TEST_F(TimelineCampaignTest, StreamingTimelineByteIdenticalAt1And8Threads) {
  CampaignSpec one;
  one.threads = 1;
  const CampaignResult first = RunTimelineCampaign(one);
  ASSERT_TRUE(first.completed);
  ASSERT_FALSE(first.artifact.empty());

  CampaignSpec eight;
  eight.threads = 8;
  const CampaignResult second = RunTimelineCampaign(eight);
  ASSERT_TRUE(second.completed);
  EXPECT_EQ(first.artifact, second.artifact);

  // The scenario's treatment-time route flap is the only route change, so
  // the churn detector must pinpoint it: one churn event, in the step
  // ending at the treatment time (day 1 -> step 24 at one-hour steps).
  TimelineReader reader;
  ExpectOk(reader.Parse(first.artifact));
  EXPECT_EQ(reader.steps(), kTotalSteps);
  std::vector<DetectionEvent> churn_events;
  for (const DetectionEvent& event : reader.events()) {
    if (reader.series()[event.series].detector == DetectorKind::kChurn) {
      churn_events.push_back(event);
    }
  }
  ASSERT_EQ(churn_events.size(), 1u);
  EXPECT_EQ(churn_events[0].step, 24u);
  EXPECT_EQ(
      reader.series()[churn_events[0].series].name,
      "netsim.bgp.invalidated_destinations");
}

// Kill after EVERY step (a crash whose journal survived), resume at the
// other thread count, and the finished timeline.bin must match an
// uninterrupted run byte for byte — the resume re-samples and re-commits
// every step it rebuilds from the journal.
TEST_F(TimelineCampaignTest, KillAtEveryStepResumesByteIdentical) {
  CampaignSpec reference_spec;
  reference_spec.dir = MakeDir("timeline-reference");
  const CampaignResult reference = RunTimelineCampaign(reference_spec);
  ASSERT_TRUE(reference.completed);
  ASSERT_FALSE(reference.artifact.empty());

  // The plain streaming run and the durable run must agree first.
  CampaignSpec plain;
  const CampaignResult streamed = RunTimelineCampaign(plain);
  ASSERT_TRUE(streamed.completed);
  ASSERT_EQ(streamed.artifact, reference.artifact);

  for (std::uint64_t k = 1; k < kTotalSteps; ++k) {
    const std::string dir = MakeDir("timeline-crash");
    CampaignSpec crash;
    crash.dir = dir;
    crash.threads = 1;
    crash.stop_after = k;
    const CampaignResult stopped = RunTimelineCampaign(crash);
    ASSERT_FALSE(stopped.completed) << "step " << k;

    CampaignSpec resume;
    resume.dir = dir;
    resume.resume = true;
    resume.threads = 8;
    const CampaignResult resumed = RunTimelineCampaign(resume);
    ASSERT_TRUE(resumed.completed) << "resume after step " << k;
    ASSERT_EQ(resumed.artifact, reference.artifact)
        << "timeline diverged after a kill at step " << k;
  }
}

}  // namespace
}  // namespace sisyphus
