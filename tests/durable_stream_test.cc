// Durability properties of the streaming service (DESIGN.md §11), enforced
// in-process where a diff is debuggable:
//
//   * crash-at-every-step: stop after step k with no final snapshot (a
//     crash whose journal survived), resume, and the panel CSV, metrics
//     snapshot, and audit.bin must be byte-identical to an
//     uninterrupted run — for every k, at 1 and 8 threads;
//   * a torn tail from a crash mid-journal-write is benign;
//   * a corrupt newest snapshot falls back to the previous one; when every
//     snapshot is corrupt the resume fails loudly;
//   * journal corruption before the tail fails loudly;
//   * the supervisor names the step whose ingest failed, and a resume
//     recovers that step from the journal;
//   * a resume on a platform with a different vantage count fails loudly;
//   * a covered journal frame that passes its checksum but does not decode
//     fails the resume naming the frame, and a snapshot whose record-id
//     watermark disagrees with its frame, or whose payload has trailing
//     bytes, is fallen back from;
//   * a snapshot's size grows neither with the record count nor with the
//     step count, and only names that SnapshotPath writes are snapshots;
//   * an edge-steered platform is refused;
//   * shed-on-overload preserves byte-identity;
//   * SIGTERM interrupts cleanly and the run resumes to the same bytes.
//
// The chaos ctest fixtures and the CI chaos-smoke job enforce the same
// properties on the shipped table1 binary across real process kills.
#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "audit/writer.h"
#include "core/binio.h"
#include "core/hash.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/sim_time.h"
#include "durable/journal.h"
#include "durable/service.h"
#include "durable/snapshot.h"
#include "measure/export.h"
#include "measure/faults.h"
#include "measure/panel.h"
#include "measure/platform.h"
#include "netsim/scenario_za.h"
#include "obs/lineage.h"
#include "obs/metrics.h"
#include "obs/timeline.h"

namespace sisyphus {
namespace {

namespace fs = std::filesystem;

struct Artifacts {
  std::string panel_csv;
  std::string metrics_json;
  std::string audit_bin;
};

// Two days at one-hour steps: 48 steps, small enough that crashing after
// every single step stays fast, large enough to cross the treatment time
// and several snapshot boundaries.
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

struct RunSpec {
  std::string dir;
  bool resume = false;
  std::size_t threads = 1;
  std::uint64_t stop_after = 0;
  std::uint64_t snapshot_every = 5;  ///< deliberately coprime with nothing
  std::uint64_t fsync_every = 3;
  std::uint64_t shed_max = 0;
  /// Registers one donor vantage fewer than the reference campaign.
  bool drop_last_donor = false;
  double baseline_tests_per_day = 10.0;
  /// Installs SmallPlan's fault injector.
  bool faults = true;
  std::function<void(std::uint64_t)> ingest_fault;
};

struct RunResult {
  bool ok = false;
  std::string error;
  durable::RunStats stats;
  std::uint64_t ingested = 0;  ///< record copies the campaign ingested
  Artifacts artifacts;  ///< filled only when the run completed
};

/// The scenario and the platform, vantages registered, of a durable
/// campaign: what a resume must reconstruct identically.
struct Campaign {
  netsim::ScenarioZa scenario;
  std::unique_ptr<measure::Platform> platform;
};

Campaign MakeCampaign(const RunSpec& spec) {
  Campaign campaign{netsim::BuildScenarioZa(SmallScenario()), nullptr};
  const netsim::ScenarioZa& scenario = campaign.scenario;
  measure::PlatformOptions platform_options;
  platform_options.server = scenario.content_jnb;
  platform_options.step = core::SimTime::FromHours(1);
  campaign.platform = std::make_unique<measure::Platform>(*scenario.simulator,
                                                          platform_options);

  measure::VantageConfig vantage;
  vantage.baseline_tests_per_day = spec.baseline_tests_per_day;
  vantage.user_tests_per_day = 4.0;
  for (const auto& unit : scenario.treated) {
    vantage.pop = unit.access_pop;
    campaign.platform->AddVantage(vantage);
  }
  const std::size_t donors =
      scenario.donors.size() - (spec.drop_last_donor ? 1 : 0);
  for (std::size_t i = 0; i < donors; ++i) {
    vantage.pop = scenario.donors[i];
    campaign.platform->AddVantage(vantage);
  }
  return campaign;
}

/// One durable campaign over a fresh platform + campaign, exactly as the
/// resume contract requires (identical reconstruction). Every obs global
/// is reset first; the run label is fixed so ledgers are comparable.
RunResult RunDurable(const RunSpec& spec) {
  core::ThreadPool::SetGlobalThreadCount(spec.threads);
  obs::Registry::Global().ResetAll();
  obs::Lineage::Global().Reset();
  obs::Lineage::Global().BeginRun("durable");
  obs::Timeline::Global().Reset();

  const netsim::ScenarioZaOptions scenario_options = SmallScenario();
  Campaign campaign = MakeCampaign(spec);
  measure::Platform& platform = *campaign.platform;

  const measure::FaultPlan plan = SmallPlan();
  measure::FaultInjector injector(plan);
  if (spec.faults) platform.SetFaultInjector(&injector);

  measure::PanelOptions panel_options;
  panel_options.bucket = core::SimTime::FromHours(6);
  panel_options.periods = static_cast<std::size_t>(
      scenario_options.horizon.minutes() / panel_options.bucket.minutes());

  measure::StreamingOptions streaming_options;
  streaming_options.panel = panel_options;
  measure::StreamingCampaign stream(platform.options().validation,
                                    streaming_options);

  durable::DurableOptions durable_options;
  durable_options.dir = spec.dir;
  durable_options.snapshot_every = spec.snapshot_every;
  durable_options.fsync_every = spec.fsync_every;
  durable_options.max_step_records = spec.shed_max;
  durable_options.stop_after_steps = spec.stop_after;
  durable_options.ingest_fault = spec.ingest_fault;

  durable::DurableStreamingService service(platform, stream, durable_options);
  core::Rng rng(scenario_options.seed);
  const core::Result<durable::RunStats> run =
      spec.resume ? service.Resume(scenario_options.horizon, rng)
                  : service.Run(scenario_options.horizon, rng);

  RunResult result;
  result.ok = run.ok();
  if (!run.ok()) {
    result.error = run.error().message();
    return result;
  }
  result.stats = run.value();
  result.ingested = stream.ingested();
  if (result.stats.outcome == durable::RunOutcome::kCompleted) {
    result.artifacts.panel_csv = measure::PanelToCsv(stream.FinalizePanel());
    result.artifacts.metrics_json = obs::Registry::Global().SnapshotJson();
    result.artifacts.audit_bin =
        audit::BuildAuditArtifact(obs::Lineage::Global());
  }
  return result;
}

/// Fresh per-test durable directory.
std::string MakeDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

void FlipByteAt(const std::string& path, std::uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  ASSERT_TRUE(f.good()) << "offset " << offset << " past end of " << path;
  c = static_cast<char>(c ^ 0x5a);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

std::string NewestSnapshot(const std::string& dir) {
  const auto snaps = durable::ListSnapshots(dir);
  EXPECT_FALSE(snaps.empty());
  return snaps.empty() ? std::string() : snaps.back().path;
}

/// Rewrites the journal at `path` from `frames` through the real writer,
/// so every frame — a doctored one included — carries a valid
/// FrameChecksum and passes ScanJournal.
void WriteJournal(const std::string& path,
                  const std::vector<durable::JournalFrame>& frames) {
  durable::Journal journal;
  ASSERT_TRUE(journal.Open(path, 0, 1));
  for (const durable::JournalFrame& frame : frames) {
    ASSERT_TRUE(journal.Append(frame.seq, frame.payload));
  }
}

class DurableStreamTest : public ::testing::Test {
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
    obs::Timeline::Global().Reset();
    obs::Timeline::Enable(false);
    obs::Registry::Enable(metrics_were_enabled_);
    obs::Lineage::Enable(lineage_was_enabled_);
    core::ThreadPool::SetGlobalThreadCount(0);
    durable::ClearInterruptFlag();
  }

  /// The uninterrupted reference run (computed once per test that needs it).
  Artifacts Reference() {
    RunSpec spec;
    spec.dir = MakeDir("durable-reference");
    const RunResult ref = RunDurable(spec);
    EXPECT_TRUE(ref.ok) << ref.error;
    EXPECT_EQ(ref.stats.outcome, durable::RunOutcome::kCompleted);
    EXPECT_EQ(ref.stats.steps, kTotalSteps);
    EXPECT_EQ(ref.stats.journal_high_water, kTotalSteps);
    EXPECT_EQ(ref.stats.snapshot_seq, kTotalSteps);
    EXPECT_FALSE(ref.artifacts.panel_csv.empty());
    return ref.artifacts;
  }

  void ExpectIdentical(const Artifacts& got, const Artifacts& want,
                       const std::string& context) {
    EXPECT_EQ(got.panel_csv, want.panel_csv) << "panel diverged: " << context;
    EXPECT_EQ(got.metrics_json, want.metrics_json)
        << "metrics diverged: " << context;
    EXPECT_EQ(got.audit_bin, want.audit_bin)
        << "lineage diverged: " << context;
  }

 private:
  bool metrics_were_enabled_ = false;
  bool lineage_was_enabled_ = false;
};

// The wrapper must not perturb the campaign: a durable run produces the
// same artifacts as the plain streaming path.
TEST_F(DurableStreamTest, DurableRunMatchesPlainStreaming) {
  const Artifacts reference = Reference();

  core::ThreadPool::SetGlobalThreadCount(1);
  obs::Registry::Global().ResetAll();
  obs::Lineage::Global().Reset();
  obs::Lineage::Global().BeginRun("durable");

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
  measure::StreamingOptions streaming_options;
  streaming_options.panel = panel_options;
  measure::StreamingCampaign stream(platform_options.validation,
                                    streaming_options);
  core::Rng rng(scenario_options.seed);
  platform.Run(scenario_options.horizon, rng, stream);

  Artifacts plain;
  plain.panel_csv = measure::PanelToCsv(stream.FinalizePanel());
  plain.metrics_json = obs::Registry::Global().SnapshotJson();
  plain.audit_bin = audit::BuildAuditArtifact(obs::Lineage::Global());
  ExpectIdentical(reference, plain, "durable wrapper vs plain streaming");
}

// The tentpole property: crash after EVERY step, resume, byte-identity —
// across thread counts, including a crash at thread count 1 resumed at 8.
TEST_F(DurableStreamTest, CrashAtEveryStepResumesByteIdentical) {
  const Artifacts reference = Reference();

  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    for (std::uint64_t k = 1; k < kTotalSteps; ++k) {
      const std::string dir = MakeDir("durable-crash");
      RunSpec crash;
      crash.dir = dir;
      crash.threads = threads;
      crash.stop_after = k;
      const RunResult stopped = RunDurable(crash);
      ASSERT_TRUE(stopped.ok) << stopped.error;
      ASSERT_EQ(stopped.stats.outcome, durable::RunOutcome::kStopped);
      ASSERT_EQ(stopped.stats.steps, k);

      RunSpec resume;
      resume.dir = dir;
      resume.resume = true;
      // Crash at `threads`, resume at the other thread count: durability
      // must compose with the parallel-ingest determinism guarantee.
      resume.threads = threads == 1 ? 8 : 1;
      const RunResult resumed = RunDurable(resume);
      ASSERT_TRUE(resumed.ok) << resumed.error;
      ASSERT_EQ(resumed.stats.outcome, durable::RunOutcome::kCompleted);
      EXPECT_TRUE(resumed.stats.resumed);
      EXPECT_EQ(resumed.stats.snapshot_seq, kTotalSteps);
      ExpectIdentical(resumed.artifacts, reference,
                      "crash after step " + std::to_string(k) + " at " +
                          std::to_string(threads) + " threads");
    }
  }
}

// A crash mid-journal-write leaves a torn final frame; recovery treats it
// as a benign tail, truncates it, and regenerates the step.
TEST_F(DurableStreamTest, TornJournalTailIsBenign) {
  const Artifacts reference = Reference();
  const std::string dir = MakeDir("durable-torn");

  RunSpec crash;
  crash.dir = dir;
  crash.stop_after = 7;
  ASSERT_TRUE(RunDurable(crash).ok);

  const std::string journal = dir + "/journal.bin";
  const std::uint64_t size = fs::file_size(journal);
  fs::resize_file(journal, size - 5);  // torn trailer on the last frame

  RunSpec resume;
  resume.dir = dir;
  resume.resume = true;
  const RunResult resumed = RunDurable(resume);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  ASSERT_EQ(resumed.stats.outcome, durable::RunOutcome::kCompleted);
  ExpectIdentical(resumed.artifacts, reference, "torn journal tail");
}

// A flipped byte in the newest snapshot must fail its checksum and fall
// back to the previous snapshot — same bytes, longer replay.
TEST_F(DurableStreamTest, CorruptNewestSnapshotFallsBack) {
  const Artifacts reference = Reference();
  const std::string dir = MakeDir("durable-snapfall");

  RunSpec crash;
  crash.dir = dir;
  crash.stop_after = 12;  // snapshots at 5 and 10
  ASSERT_TRUE(RunDurable(crash).ok);
  ASSERT_GE(durable::ListSnapshots(dir).size(), 2u);

  FlipByteAt(NewestSnapshot(dir), 20);

  RunSpec resume;
  resume.dir = dir;
  resume.resume = true;
  const RunResult resumed = RunDurable(resume);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  ASSERT_EQ(resumed.stats.outcome, durable::RunOutcome::kCompleted);
  ExpectIdentical(resumed.artifacts, reference, "corrupt newest snapshot");
}

TEST_F(DurableStreamTest, AllSnapshotsCorruptFailsLoudly) {
  const std::string dir = MakeDir("durable-snapdead");
  RunSpec crash;
  crash.dir = dir;
  crash.stop_after = 12;
  ASSERT_TRUE(RunDurable(crash).ok);

  for (const auto& snap : durable::ListSnapshots(dir)) {
    FlipByteAt(snap.path, 20);
  }

  RunSpec resume;
  resume.dir = dir;
  resume.resume = true;
  const RunResult resumed = RunDurable(resume);
  ASSERT_FALSE(resumed.ok);
  EXPECT_NE(resumed.error.find("no valid snapshot"), std::string::npos)
      << resumed.error;
}

// Damage before the journal's tail is corruption, not a torn write, and
// must never be silently replayed over.
TEST_F(DurableStreamTest, JournalCorruptionBeforeTailFailsLoudly) {
  const std::string dir = MakeDir("durable-jrnlbad");
  RunSpec crash;
  crash.dir = dir;
  crash.stop_after = 12;
  ASSERT_TRUE(RunDurable(crash).ok);

  // Offset 26 is inside the FIRST frame's payload — far from the tail.
  FlipByteAt(dir + "/journal.bin", 26);

  RunSpec resume;
  resume.dir = dir;
  resume.resume = true;
  const RunResult resumed = RunDurable(resume);
  ASSERT_FALSE(resumed.ok);
  EXPECT_NE(resumed.error.find("journal corrupt"), std::string::npos)
      << resumed.error;
}

// The supervisor: a failing ingest step surfaces as a deterministic error
// naming the step, and because the step was journaled before it failed, a
// resume recovers it.
TEST_F(DurableStreamTest, SupervisorNamesFailingStepAndResumeRecovers) {
  const Artifacts reference = Reference();

  const std::string dir = MakeDir("durable-supervise");
  RunSpec faulty;
  faulty.dir = dir;
  faulty.ingest_fault = [](std::uint64_t seq) {
    if (seq == 5) throw std::runtime_error("injected ingest fault");
  };
  const RunResult failed = RunDurable(faulty);
  ASSERT_FALSE(failed.ok);
  EXPECT_NE(failed.error.find("streaming ingest failed at step 5"),
            std::string::npos)
      << failed.error;
  EXPECT_NE(failed.error.find("injected ingest fault"), std::string::npos)
      << failed.error;

  RunSpec resume;
  resume.dir = dir;
  resume.resume = true;
  const RunResult resumed = RunDurable(resume);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  ASSERT_EQ(resumed.stats.outcome, durable::RunOutcome::kCompleted);
  ExpectIdentical(resumed.artifacts, reference,
                  "resume after supervised failure");
}

// A snapshot carries one EWMA per vantage. Resuming it on a platform with
// a different vantage count must fail and say so, not restore a prefix of
// the EWMAs and carry on with a different campaign. Stopping at step 10
// with snapshot_every = 5 leaves nothing to replay, so no journal check
// could catch the mismatch either.
TEST_F(DurableStreamTest, ResumeRejectsVantageCountMismatch) {
  const std::string dir = MakeDir("durable-vantages");
  RunSpec crash;
  crash.dir = dir;
  crash.stop_after = 10;
  const RunResult stopped = RunDurable(crash);
  ASSERT_TRUE(stopped.ok) << stopped.error;
  ASSERT_EQ(stopped.stats.snapshot_seq, 10u);

  RunSpec resume;
  resume.dir = dir;
  resume.resume = true;
  resume.drop_last_donor = true;
  const RunResult resumed = RunDurable(resume);
  ASSERT_FALSE(resumed.ok);
  EXPECT_NE(resumed.error.find("vantage"), std::string::npos)
      << resumed.error;
}

// Shed-on-overload: deterministic, lineage-conserving (shed records get a
// terminal shed_overload stage and a matching counter), and byte-stable
// across crash/resume and thread counts.
TEST_F(DurableStreamTest, ShedOverloadIsDeterministicAcrossResume) {
  RunSpec shed_ref;
  shed_ref.dir = MakeDir("durable-shedref");
  shed_ref.shed_max = 3;
  const RunResult reference = RunDurable(shed_ref);
  ASSERT_TRUE(reference.ok) << reference.error;
  ASSERT_EQ(reference.stats.outcome, durable::RunOutcome::kCompleted);
  ASSERT_GT(reference.stats.shed_records, 0u);
  EXPECT_NE(
      reference.artifacts.metrics_json.find("measure.stream.shed_overload"),
      std::string::npos);
  // Every shed record terminates in the ledger as shed_overload.
  EXPECT_EQ(obs::Lineage::Global().Totals().terminal[static_cast<std::size_t>(
                obs::LineageStage::kShedOverload)],
            reference.stats.shed_records);

  const std::string dir = MakeDir("durable-shedcrash");
  RunSpec crash;
  crash.dir = dir;
  crash.shed_max = 3;
  crash.stop_after = 20;
  crash.threads = 8;
  ASSERT_TRUE(RunDurable(crash).ok);

  RunSpec resume;
  resume.dir = dir;
  resume.resume = true;
  resume.shed_max = 3;
  resume.threads = 8;
  const RunResult resumed = RunDurable(resume);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  ASSERT_EQ(resumed.stats.outcome, durable::RunOutcome::kCompleted);
  ExpectIdentical(resumed.artifacts, reference.artifacts,
                  "shed crash/resume at 8 threads");
}

// Frames 1..k of a resume from snapshot k are the source of its ingest
// side, so a frame there that passes its checksum but does not decode
// must fail the resume with a Status naming the frame: no exception, and
// no allocation past what the frames before it hold. Each case rewrites
// frame `victim` (covered by both snapshots, 5 and 10) and re-checksums it.
TEST_F(DurableStreamTest, HostileCoveredFrameFailsResumeNamingIt) {
  const std::string dir = MakeDir("durable-hostile");
  RunSpec crash;
  crash.dir = dir;
  crash.stop_after = 12;
  ASSERT_TRUE(RunDurable(crash).ok);
  const std::string journal = dir + "/journal.bin";
  const durable::JournalScan scan = durable::ScanJournal(journal);
  ASSERT_EQ(scan.frames.size(), 12u);

  // DecodeStep is EncodeStep's exact inverse on every frame of the run.
  const Campaign campaign = MakeCampaign(crash);
  std::vector<measure::StepOutput> steps;
  std::vector<std::uint64_t> first_ids;
  std::uint64_t next_id = 1;
  for (const durable::JournalFrame& frame : scan.frames) {
    core::Result<measure::StepOutput> step =
        durable::DecodeStep(frame.payload, next_id, *campaign.platform);
    ASSERT_TRUE(step.ok()) << "frame " << frame.seq << ": "
                           << step.error().message();
    first_ids.push_back(next_id);
    next_id += step.value().records.size();
    EXPECT_EQ(durable::EncodeStep(step.value(), next_id), frame.payload)
        << "frame " << frame.seq;
    steps.push_back(std::move(step).value());
  }
  std::uint64_t victim = 0;
  for (std::uint64_t seq = 2; seq <= 5 && victim == 0; ++seq) {
    if (!steps[seq - 1].records.empty()) victim = seq;
  }
  ASSERT_NE(victim, 0u) << "no frame in 2..5 has records";
  const measure::StepOutput& step = steps[victim - 1];
  const std::uint64_t first_id = first_ids[victim - 1];
  const std::uint64_t watermark = first_id + step.records.size();
  const std::string& original = scan.frames[victim - 1].payload;

  const auto with = [&](const std::function<void(measure::StepOutput&)>& edit,
                        std::uint64_t mark) {
    measure::StepOutput edited = step;
    edit(edited);
    return durable::EncodeStep(edited, mark);
  };
  std::string huge_count = original;  // the record count is bytes 16..23
  for (int i = 0; i < 8; ++i) {
    huge_count[16 + i] =
        static_cast<char>(((std::uint64_t{1} << 60) >> (8 * i)) & 0xff);
  }
  // Record 0's duplicate flag follows its fixed fields, city string and
  // IXP crossing.
  const measure::SpeedTestRecord& first = step.records[0].record;
  std::string duplicate_two = original;
  duplicate_two[24 + 8 + 8 + 4 + 8 + first.unit.city().size() + 4 + 4 + 8 +
                8 + 8 + 1 + 4 + 2] = 2;
  // A record must name its vantage's unit: a renamed city would otherwise
  // rebuild a phantom unit into the store and the panel. The decoder names
  // the record.
  const std::string atlantis = with(
      [&](measure::StepOutput& s) {
        s.records[0].record.unit =
            measure::Unit::Intern(first.unit.asn(), "Atlantis");
      },
      watermark);
  const std::string vantage_9999 = with(
      [](measure::StepOutput& s) { s.records[0].record.vantage_pop = 9999; },
      watermark);
  // A crossing must name one of the topology's IXPs (ScenarioZa has only
  // NAPAfrica-JNB, id 0).
  const std::string ixp_7 = with(
      [](measure::StepOutput& s) { s.records[0].record.ixp_crossing = 7; },
      watermark);
  // Each case names the decoder message its edit must draw, so an edit
  // whose hand-computed offset lands on another field fails here.
  struct HostileCase {
    std::string name;
    std::string payload;
    std::string message;
  };
  const std::string first_failure = std::to_string(step.failures.size());
  const std::vector<HostileCase> cases = {
      {"first record id 2^40",
       with([](measure::StepOutput& s) {
              s.records[0].record.id = core::MeasurementId(std::uint64_t{1}
                                                           << 40);
            },
            watermark),
       "record 0 has id 1099511627776, expected " + std::to_string(first_id)},
      {"intent byte 7",
       with([](measure::StepOutput& s) {
              s.records[0].record.intent = static_cast<measure::Intent>(7);
            },
            watermark),
       "record 0 has intent byte 7"},
      {"failure-reason byte 9",
       with([](measure::StepOutput& s) {
              s.failures.push_back({s.step_end, 0, measure::Intent::kBaseline,
                                    static_cast<measure::ProbeFault>(9), 3});
            },
            watermark),
       "failure " + first_failure + " has reason byte 9"},
      {"record count 2^60", huge_count,
       "record count 1152921504606846976 exceeds the payload's bytes"},
      {"watermark off by one",
       with([](measure::StepOutput&) {}, watermark + 1),
       "watermark " + std::to_string(watermark + 1) +
           " is not the last id + 1 (" + std::to_string(watermark) + ")"},
      {"one trailing byte", original + std::string(1, '\0'),
       "1 trailing bytes"},
      // The decoder's remaining checks.
      {"fault-mask byte 16",
       with([](measure::StepOutput& s) { s.records[0].fault_mask = 16; },
            watermark),
       "record 0 has fault-mask byte 16"},
      {"failure-intent byte 3",
       with([](measure::StepOutput& s) {
              s.failures.push_back({s.step_end, 0,
                                    static_cast<measure::Intent>(3),
                                    measure::ProbeFault::kProbeLoss, 3});
            },
            watermark),
       "failure " + first_failure + " has intent byte 3"},
      {"duplicate byte 2", duplicate_two, "record 0 has duplicate byte 2"},
      {"one byte short", original.substr(0, original.size() - 1),
       "truncated payload"},
      {"city renamed to Atlantis", atlantis,
       "record 0 names unit " + std::to_string(first.unit.asn().value()) +
           " / Atlantis, not its vantage " +
           std::to_string(first.vantage_pop) + "'s unit " + first.unit.key()},
      {"vantage 9999", vantage_9999,
       "record 0 has vantage 9999, not one of the platform's vantages"},
      {"crossing of IXP 7", ixp_7,
       "record 0 crosses IXP 7, not one of the topology's 1 IXPs"},
      // The rebuilt measure.probes.retried counts attempts after the first.
      {"record attempts 0",
       with([](measure::StepOutput& s) { s.records[0].record.attempts = 0; },
            watermark),
       "record 0 has attempts 0"},
      {"failure attempts 4",
       with([](measure::StepOutput& s) {
              s.failures.push_back({s.step_end, 0, measure::Intent::kBaseline,
                                    measure::ProbeFault::kProbeLoss, 4});
            },
            watermark),
       "failure " + first_failure + " has attempts 4"},
  };
  for (const auto& [name, payload, message] : cases) {
    const core::Result<measure::StepOutput> decoded =
        durable::DecodeStep(payload, first_id, *campaign.platform);
    ASSERT_FALSE(decoded.ok()) << name;
    EXPECT_EQ(decoded.error().message(), message) << name;

    std::vector<durable::JournalFrame> frames = scan.frames;
    frames[victim - 1].payload = payload;
    WriteJournal(journal, frames);
    ASSERT_FALSE(durable::ScanJournal(journal).corrupt) << name;

    RunSpec resume;
    resume.dir = dir;
    resume.resume = true;
    const RunResult resumed = RunDurable(resume);
    ASSERT_FALSE(resumed.ok) << name;
    EXPECT_NE(resumed.error.find("journal frame " + std::to_string(victim) +
                                 " does not decode: " + message),
              std::string::npos)
        << name << ": " << resumed.error;
    // The ledger's record column — what a hostile id would have grown —
    // holds no more than the ids of the frames before the victim.
    std::size_t column = 0;
    obs::Lineage::Global().VisitRuns(
        [&](const std::vector<obs::Lineage::RunLedger>& runs) {
          for (const auto& run : runs) {
            column = std::max(column, run.records.size());
          }
        });
    EXPECT_LE(column, first_id - 1) << name;
  }
}

// A snapshot whose record-id watermark is not its journal frame's would
// restore a platform the rebuilt ingest side disagrees with. It is
// rejected before the fast-forward like a corrupt one: the resume falls
// back to the previous snapshot, rebuilds its 5 frames, and converges.
TEST_F(DurableStreamTest, SnapshotWatermarkMismatchFallsBack) {
  const Artifacts reference = Reference();
  const std::string dir = MakeDir("durable-watermark");
  RunSpec crash;
  crash.dir = dir;
  crash.stop_after = 12;  // snapshots at 5 and 10
  ASSERT_TRUE(RunDurable(crash).ok);

  const std::string newest = NewestSnapshot(dir);
  const durable::SnapshotRead read = durable::ReadSnapshotFile(newest);
  ASSERT_TRUE(read.ok) << read.diagnostic;
  std::string payload = read.payload;
  payload[8] = static_cast<char>(payload[8] + 1);  // the watermark, after seq
  ASSERT_TRUE(durable::WriteSnapshotFile(newest, payload));

  RunSpec resume;
  resume.dir = dir;
  resume.resume = true;
  const RunResult resumed = RunDurable(resume);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  ASSERT_EQ(resumed.stats.outcome, durable::RunOutcome::kCompleted);
  EXPECT_EQ(resumed.stats.rebuilt_steps, 5u);
  EXPECT_EQ(resumed.stats.replayed_steps, 7u);
  ExpectIdentical(resumed.artifacts, reference, "snapshot watermark bumped");
}

// A snapshot payload is exactly the generator state: one with bytes after
// it is undecodable, and the resume falls back to the previous snapshot
// instead of failing.
TEST_F(DurableStreamTest, SnapshotWithTrailingBytesFallsBack) {
  const Artifacts reference = Reference();
  const std::string dir = MakeDir("durable-trailing");
  RunSpec crash;
  crash.dir = dir;
  crash.stop_after = 12;  // snapshots at 5 and 10
  ASSERT_TRUE(RunDurable(crash).ok);

  const std::string newest = NewestSnapshot(dir);
  const durable::SnapshotRead read = durable::ReadSnapshotFile(newest);
  ASSERT_TRUE(read.ok) << read.diagnostic;
  ASSERT_TRUE(
      durable::WriteSnapshotFile(newest, read.payload + std::string(8, '\0')));

  RunSpec resume;
  resume.dir = dir;
  resume.resume = true;
  const RunResult resumed = RunDurable(resume);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  ASSERT_EQ(resumed.stats.outcome, durable::RunOutcome::kCompleted);
  EXPECT_EQ(resumed.stats.rebuilt_steps, 5u);
  EXPECT_EQ(resumed.stats.replayed_steps, 7u);
  ExpectIdentical(resumed.artifacts, reference, "snapshot trailing bytes");
}

// The registry and the timeline are rebuilt from the journal, not carried:
// with both on, a snapshot holds the same fields at every step.
TEST_F(DurableStreamTest, SnapshotSizeDoesNotGrowWithSteps) {
  obs::Timeline::Enable(true);
  const std::string dir = MakeDir("durable-snapsteps");
  RunSpec crash;
  crash.dir = dir;
  crash.stop_after = 12;  // snapshots at 5 and 10
  ASSERT_TRUE(RunDurable(crash).ok);
  EXPECT_GT(obs::Timeline::Global().GetSummary().samples, 0u);
  const auto snaps = durable::ListSnapshots(dir);
  ASSERT_EQ(snaps.size(), 2u);
  ASSERT_EQ(snaps[0].seq, 5u);
  ASSERT_EQ(snaps[1].seq, 10u);
  EXPECT_EQ(fs::file_size(snaps[0].path), fs::file_size(snaps[1].path));
}

// A resume rebuilds the netsim metrics by fast-forwarding, which does not
// replay a steered probe's route reads: the service refuses steering up
// front, for a run and a resume alike, before it touches the directory.
TEST_F(DurableStreamTest, RefusesEdgeSteeredPlatform) {
  const std::string dir = MakeDir("durable-steered");
  RunSpec spec;
  spec.dir = dir;
  Campaign campaign = MakeCampaign(spec);
  measure::EdgeSteering steering(*campaign.scenario.simulator,
                                 {campaign.scenario.content_jnb});
  campaign.platform->SetEdgeSteering(&steering);
  measure::StreamingCampaign stream(campaign.platform->options().validation,
                                    measure::StreamingOptions{});
  durable::DurableOptions options;
  options.dir = dir;
  durable::DurableStreamingService service(*campaign.platform, stream,
                                           options);
  for (const bool resume : {false, true}) {
    core::Rng rng(1);
    const core::Result<durable::RunStats> run =
        resume ? service.Resume(SmallScenario().horizon, rng)
               : service.Run(SmallScenario().horizon, rng);
    ASSERT_FALSE(run.ok()) << (resume ? "resume" : "run");
    EXPECT_EQ(run.error().code(), core::ErrorCode::kInvalidArgument);
    EXPECT_NE(run.error().message().find("edge steering"), std::string::npos)
        << run.error().message();
  }
  EXPECT_TRUE(fs::is_empty(dir));
}

// A snapshot holds generator state, never the records: the same 40 steps
// at four times the test rate leave a newest snapshot of exactly the same
// size.
TEST_F(DurableStreamTest, SnapshotSizeDoesNotGrowWithRecords) {
  std::uintmax_t bytes[2] = {0, 0};
  std::uint64_t records[2] = {0, 0};
  const double rates[2] = {10.0, 40.0};
  for (int i = 0; i < 2; ++i) {
    RunSpec spec;
    spec.dir = MakeDir("durable-snapsize");
    spec.stop_after = 40;
    spec.baseline_tests_per_day = rates[i];
    spec.faults = false;
    const RunResult run = RunDurable(spec);
    ASSERT_TRUE(run.ok) << run.error;
    ASSERT_EQ(run.stats.snapshot_seq, 40u);
    bytes[i] = fs::file_size(NewestSnapshot(spec.dir));
    records[i] = run.ingested;
  }
  EXPECT_GT(records[1], 2 * records[0]);
  EXPECT_EQ(bytes[0], bytes[1]);
}

// SIGTERM → clean interruption (journal flushed, final snapshot written),
// and the interrupted run resumes to the reference bytes.
TEST_F(DurableStreamTest, SigtermInterruptsCleanlyAndResumes) {
  const Artifacts reference = Reference();

  durable::InstallSignalHandlers();
  durable::ClearInterruptFlag();
  std::raise(SIGTERM);
  ASSERT_TRUE(durable::InterruptRequested());

  const std::string dir = MakeDir("durable-sigterm");
  RunSpec interrupted_spec;
  interrupted_spec.dir = dir;
  const RunResult interrupted = RunDurable(interrupted_spec);
  ASSERT_TRUE(interrupted.ok) << interrupted.error;
  ASSERT_EQ(interrupted.stats.outcome, durable::RunOutcome::kInterrupted);
  EXPECT_LT(interrupted.stats.steps, kTotalSteps);
  // The final snapshot made it down despite the interrupt.
  EXPECT_FALSE(durable::ListSnapshots(dir).empty());

  durable::ClearInterruptFlag();
  RunSpec resume;
  resume.dir = dir;
  resume.resume = true;
  const RunResult resumed = RunDurable(resume);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  ASSERT_EQ(resumed.stats.outcome, durable::RunOutcome::kCompleted);
  ExpectIdentical(resumed.artifacts, reference, "resume after SIGTERM");
}

// ---------------------------------------------------------------------------
// Journal scan unit properties: torn tail vs mid-file corruption vs gaps.

TEST(DurableJournalTest, ScanDistinguishesTornTailFromCorruption) {
  const std::string dir = MakeDir("durable-jscan");
  const std::string path = dir + "/journal.bin";

  durable::Journal journal;
  ASSERT_TRUE(journal.Open(path, 0, /*fsync_every=*/2));
  ASSERT_TRUE(journal.Append(1, "alpha"));
  ASSERT_TRUE(journal.Append(2, "bravo"));
  journal.Close();

  durable::JournalScan clean = durable::ScanJournal(path);
  ASSERT_EQ(clean.frames.size(), 2u);
  EXPECT_EQ(clean.frames[0].payload, "alpha");
  EXPECT_EQ(clean.frames[1].payload, "bravo");
  EXPECT_FALSE(clean.torn_tail);
  EXPECT_FALSE(clean.corrupt);
  EXPECT_EQ(clean.valid_bytes, fs::file_size(path));

  // A torn final frame (crash mid-append) is benign.
  ASSERT_TRUE(journal.Open(path, clean.valid_bytes, 2));
  ASSERT_TRUE(journal.AppendTorn(3, "charlie", 10));
  journal.Close();
  durable::JournalScan torn = durable::ScanJournal(path);
  EXPECT_EQ(torn.frames.size(), 2u);
  EXPECT_TRUE(torn.torn_tail);
  EXPECT_FALSE(torn.corrupt);
  EXPECT_EQ(torn.valid_bytes, clean.valid_bytes);

  // Reopening at valid_bytes truncates the torn tail and appends cleanly.
  ASSERT_TRUE(journal.Open(path, torn.valid_bytes, 2));
  ASSERT_TRUE(journal.Append(3, "charlie"));
  journal.Close();
  durable::JournalScan repaired = durable::ScanJournal(path);
  ASSERT_EQ(repaired.frames.size(), 3u);
  EXPECT_EQ(repaired.frames[2].payload, "charlie");
  EXPECT_FALSE(repaired.torn_tail);
  EXPECT_FALSE(repaired.corrupt);

  // A flipped byte in the FIRST frame (data follows it) is corruption.
  FlipByteAt(path, 26);
  durable::JournalScan corrupt = durable::ScanJournal(path);
  EXPECT_TRUE(corrupt.corrupt);
  EXPECT_FALSE(corrupt.diagnostic.empty());
}

TEST(DurableJournalTest, ScanRejectsSequenceGaps) {
  const std::string dir = MakeDir("durable-jgap");
  const std::string path = dir + "/journal.bin";
  durable::Journal journal;
  ASSERT_TRUE(journal.Open(path, 0, 1));
  ASSERT_TRUE(journal.Append(1, "alpha"));
  ASSERT_TRUE(journal.Append(3, "charlie"));  // gap: seq 2 missing
  journal.Close();
  const durable::JournalScan scan = durable::ScanJournal(path);
  // The bad frame is the final one, so the gap is treated as a torn tail
  // unless data follows it; either way the valid prefix stops at seq 1.
  ASSERT_EQ(scan.frames.size(), 1u);
  EXPECT_EQ(scan.frames[0].seq, 1u);
}

TEST(DurableJournalTest, ChecksumCoversSeqAndPayload) {
  EXPECT_NE(durable::FrameChecksum(1, "alpha"),
            durable::FrameChecksum(2, "alpha"));
  EXPECT_NE(durable::FrameChecksum(1, "alpha"),
            durable::FrameChecksum(1, "alphb"));
  EXPECT_EQ(durable::FrameChecksum(7, "payload"),
            core::Checksum64("payload", 7));
}

/// Writes `bytes` as the whole file at `path`.
void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// One frame of the FNV-1a journal format: magic "SISYJRNL", and FNV-1a
/// over the 8 seq bytes and then the payload.
std::string FnvJournalFrame(std::uint64_t seq, const std::string& payload) {
  core::binio::Writer seq_bytes;
  seq_bytes.PutU64(seq);
  core::binio::Writer w;
  w.PutRaw("SISYJRNL");
  w.PutU64(seq);
  w.PutString(payload);
  w.PutU64(core::Fnv1a64(payload, core::Fnv1a64(seq_bytes.buffer())));
  return std::move(w).Take();
}

TEST(DurableJournalTest, ScanRefusesTheFnvFrameFormatByMagic) {
  const std::string dir = MakeDir("durable-jfnv");
  const std::string path = dir + "/journal.bin";

  // Its only frame is the file's tail, yet it is no torn write: the scan
  // names the format instead of truncating it away.
  const std::string frame = FnvJournalFrame(1, "alpha");
  WriteBytes(path, frame);
  const durable::JournalScan only = durable::ScanJournal(path);
  EXPECT_TRUE(only.frames.empty());
  EXPECT_FALSE(only.torn_tail);
  EXPECT_TRUE(only.corrupt);
  EXPECT_NE(only.diagnostic.find("frame magic SISYJRNL"), std::string::npos)
      << only.diagnostic;
  EXPECT_EQ(only.valid_bytes, 0u);

  // Cut short, it is still refused by name.
  WriteBytes(path, frame.substr(0, frame.size() - 3));
  const durable::JournalScan cut = durable::ScanJournal(path);
  EXPECT_TRUE(cut.corrupt);
  EXPECT_NE(cut.diagnostic.find("frame magic SISYJRNL"), std::string::npos)
      << cut.diagnostic;

  // After valid frames, it ends the valid prefix and fails the scan.
  durable::Journal journal;
  ASSERT_TRUE(journal.Open(path, 0, 1));
  ASSERT_TRUE(journal.Append(1, "alpha"));
  journal.Close();
  const std::uint64_t first_frame = fs::file_size(path);
  std::ofstream(path, std::ios::binary | std::ios::app)
      << FnvJournalFrame(2, "bravo");
  const durable::JournalScan mixed = durable::ScanJournal(path);
  ASSERT_EQ(mixed.frames.size(), 1u);
  EXPECT_EQ(mixed.valid_bytes, first_frame);
  EXPECT_TRUE(mixed.corrupt);
  EXPECT_NE(mixed.diagnostic.find("frame magic SISYJRNL"), std::string::npos)
      << mixed.diagnostic;
}

TEST(DurableJournalTest, ScanRefusesTheUncrossedFrameFormatByMagic) {
  // A "SISYJRN2" frame (records without an IXP crossing) checksums like a
  // current one; only its magic tells them apart, and the scan refuses it
  // by name rather than misreading its records.
  const std::string dir = MakeDir("durable-jrn2");
  const std::string path = dir + "/journal.bin";
  core::binio::Writer w;
  w.PutRaw("SISYJRN2");
  w.PutU64(1);
  w.PutString("alpha");
  w.PutU64(durable::FrameChecksum(1, "alpha"));
  WriteBytes(path, w.buffer());
  const durable::JournalScan scan = durable::ScanJournal(path);
  EXPECT_TRUE(scan.frames.empty());
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_TRUE(scan.corrupt);
  EXPECT_NE(scan.diagnostic.find("frame magic SISYJRN2"), std::string::npos)
      << scan.diagnostic;
}

// ---------------------------------------------------------------------------
// Snapshot file unit properties.

TEST(DurableSnapshotTest, RoundTripAndCorruptionDetection) {
  const std::string dir = MakeDir("durable-snapunit");
  const std::string path = durable::SnapshotPath(dir, 42);

  ASSERT_TRUE(durable::WriteSnapshotFile(path, "snapshot payload"));
  durable::SnapshotRead read = durable::ReadSnapshotFile(path);
  ASSERT_TRUE(read.ok) << read.diagnostic;
  EXPECT_EQ(read.payload, "snapshot payload");

  const auto listed = durable::ListSnapshots(dir);
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0].seq, 42u);

  FlipByteAt(path, 18);
  durable::SnapshotRead bad = durable::ReadSnapshotFile(path);
  EXPECT_FALSE(bad.ok);
  EXPECT_FALSE(bad.diagnostic.empty());
}

TEST(DurableSnapshotTest, RefusesTheFnvFormatByMagic) {
  const std::string dir = MakeDir("durable-snapfnv");
  const std::string path = durable::SnapshotPath(dir, 7);
  // The FNV-1a framing: magic "SISYSNP2", checksum FNV-1a of the payload.
  core::binio::Writer w;
  w.PutRaw("SISYSNP2");
  w.PutString("snapshot payload");
  w.PutU64(core::Fnv1a64("snapshot payload"));
  WriteBytes(path, std::move(w).Take());
  const durable::SnapshotRead read = durable::ReadSnapshotFile(path);
  EXPECT_FALSE(read.ok);
  EXPECT_NE(read.diagnostic.find("\"SISYSNP2\""), std::string::npos)
      << read.diagnostic;
  EXPECT_NE(read.diagnostic.find("\"SISYSNP4\""), std::string::npos)
      << read.diagnostic;
}

TEST(DurableSnapshotTest, RefusesTheTelemetryCarryingFormatByMagic) {
  // "SISYSNP3" checksums like the current format; its payload also carried
  // a route-change cursor, the registry and the timeline. Only the magic
  // tells them apart, and the read names both.
  const std::string dir = MakeDir("durable-snap3");
  const std::string path = durable::SnapshotPath(dir, 7);
  core::binio::Writer w;
  w.PutRaw("SISYSNP3");
  w.PutString("snapshot payload");
  w.PutU64(core::Checksum64("snapshot payload"));
  WriteBytes(path, std::move(w).Take());
  const durable::SnapshotRead read = durable::ReadSnapshotFile(path);
  EXPECT_FALSE(read.ok);
  EXPECT_NE(read.diagnostic.find("\"SISYSNP3\""), std::string::npos)
      << read.diagnostic;
  EXPECT_NE(read.diagnostic.find("\"SISYSNP4\""), std::string::npos)
      << read.diagnostic;
}

TEST(DurableSnapshotTest, PruneKeepsNewest) {
  const std::string dir = MakeDir("durable-snapprune");
  for (std::uint64_t seq : {std::uint64_t{1}, std::uint64_t{2},
                            std::uint64_t{3}, std::uint64_t{4}}) {
    ASSERT_TRUE(
        durable::WriteSnapshotFile(durable::SnapshotPath(dir, seq), "p"));
  }
  durable::PruneSnapshots(dir, 2);
  const auto listed = durable::ListSnapshots(dir);
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0].seq, 3u);
  EXPECT_EQ(listed[1].seq, 4u);
}

// A file is a snapshot only under the name SnapshotPath gives it. A stray
// 20-digit name past UINT64_MAX would otherwise wrap to some seq, sort as
// the newest snapshot, and make pruning delete a real one in its place.
TEST(DurableSnapshotTest, ListTakesOnlyNamesSnapshotPathWrites) {
  const std::string dir = MakeDir("durable-snapnames");
  for (std::uint64_t seq = 1; seq <= 4; ++seq) {
    ASSERT_TRUE(
        durable::WriteSnapshotFile(durable::SnapshotPath(dir, seq), "p"));
  }
  const std::vector<std::string> strays = {
      "snap-99999999999999999999.bin",  // 20 digits past UINT64_MAX
      "snap-42.bin",                    // too few digits
      "snap-000000000000000000042.bin", // too many digits
      "snap-0000000000000000004x.bin",  // not a digit
      "snap-00000000000000000042.tmp"};
  for (const std::string& name : strays) {
    WriteBytes((fs::path(dir) / name).string(), "stray");
  }
  const auto max_path = durable::SnapshotPath(
      dir, std::numeric_limits<std::uint64_t>::max());
  ASSERT_TRUE(durable::WriteSnapshotFile(max_path, "p"));
  auto listed = durable::ListSnapshots(dir);
  ASSERT_EQ(listed.size(), 5u);
  EXPECT_EQ(listed.back().seq, std::numeric_limits<std::uint64_t>::max());
  fs::remove(max_path);

  durable::PruneSnapshots(dir, 3);
  listed = durable::ListSnapshots(dir);
  ASSERT_EQ(listed.size(), 3u);
  EXPECT_EQ(listed[0].seq, 2u);
  EXPECT_EQ(listed[1].seq, 3u);
  EXPECT_EQ(listed[2].seq, 4u);
  for (const std::string& name : strays) {
    EXPECT_TRUE(fs::exists(fs::path(dir) / name)) << name;
  }
}

// ---------------------------------------------------------------------------
// Chaos spec grammar.

TEST(ChaosSpecTest, ParsesFullSpec) {
  const auto parsed = durable::ParseChaosSpec(
      "kill-after=7,mid-write,corrupt=snapshot,seed=3");
  ASSERT_TRUE(parsed.ok());
  const durable::ChaosOptions& chaos = parsed.value();
  EXPECT_TRUE(chaos.enabled);
  EXPECT_EQ(chaos.kill_after_steps, 7u);
  EXPECT_TRUE(chaos.mid_write);
  EXPECT_EQ(chaos.corrupt, durable::ChaosOptions::CorruptTarget::kSnapshot);
  EXPECT_EQ(chaos.seed, 3u);
}

TEST(ChaosSpecTest, ParsesJournalTargetAndSeedOnly) {
  const auto journal = durable::ParseChaosSpec("kill-after=2,corrupt=journal");
  ASSERT_TRUE(journal.ok());
  EXPECT_EQ(journal.value().corrupt,
            durable::ChaosOptions::CorruptTarget::kJournal);

  // kill-after omitted: derived from the seed at run time.
  const auto seeded = durable::ParseChaosSpec("seed=11");
  ASSERT_TRUE(seeded.ok());
  EXPECT_TRUE(seeded.value().enabled);
  EXPECT_EQ(seeded.value().kill_after_steps, 0u);
  EXPECT_EQ(seeded.value().seed, 11u);
}

TEST(ChaosSpecTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(durable::ParseChaosSpec("kill-after=x").ok());
  EXPECT_FALSE(durable::ParseChaosSpec("corrupt=panel").ok());
  EXPECT_FALSE(durable::ParseChaosSpec("bogus-knob=1").ok());
}

TEST(ChaosSpecTest, RejectsNumbersPastUint64Max) {
  // Wrapped, these would read "kill after step 1" and some other seed.
  const auto kill = durable::ParseChaosSpec("kill-after=18446744073709551617");
  ASSERT_FALSE(kill.ok());
  EXPECT_EQ(kill.error().code(), core::ErrorCode::kParseError);
  EXPECT_EQ(kill.error().message(), "chaos: bad kill-after value");
  const auto seed = durable::ParseChaosSpec("seed=99999999999999999999");
  ASSERT_FALSE(seed.ok());
  EXPECT_EQ(seed.error().code(), core::ErrorCode::kParseError);
  EXPECT_EQ(seed.error().message(), "chaos: bad seed value");

  const auto max = durable::ParseChaosSpec("kill-after=18446744073709551615");
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(max.value().kill_after_steps,
            std::numeric_limits<std::uint64_t>::max());
}

}  // namespace
}  // namespace sisyphus
