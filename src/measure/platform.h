// Measurement platform: runs campaigns over the simulated Internet and
// implements the paper's §4 design proposals.
//
//  (1) Conditional activation — when a watched path changes, the platform
//      fires a burst of tests tagged kEventTriggered, turning route events
//      into usable before/after measurements.
//  (2) Intent tagging — every record carries WHY it exists (baseline
//      schedule, user frustration, event reaction), so analysts can see —
//      and avoid conditioning on — the collider.
//  (4) Endogeneity as signal — user-initiated tests are generated with the
//      realistic feedback: users test more when performance degrades or
//      right after a route change. The bias is simulated, not assumed
//      away, which is what lets the collider experiment (bench E3) show it.
//
// Proposal (3), the exogenous-intervention API, lives in intervention.h.
//
// One driver runs every campaign: Run loops GenerateStep and hands each
// step's merge-ordered batch to a StreamingCampaign (sharded store,
// per-unit running means, panel built from the store at the end), and the
// durable service (durable/service.h) drives the same step API under a
// journal. Records are scalar values (speedtest.h): each vantage's
// ⟨ASN, city⟩ unit is interned once, when the vantage is registered, and
// every record carries that handle and the IXP its probe path crosses,
// resolved once per vantage per step.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/result.h"
#include "core/rng.h"
#include "measure/edge_steering.h"
#include "measure/faults.h"
#include "measure/panel.h"
#include "measure/speedtest.h"
#include "measure/store.h"
#include "netsim/simulator.h"
#include "obs/lineage.h"

namespace sisyphus::measure {

struct VantageConfig {
  netsim::PopIndex pop = 0;
  /// Scheduled tests/day (Poisson); exogenous timing.
  double baseline_tests_per_day = 8.0;
  /// User-initiated base rate; scaled up by dissatisfaction.
  double user_tests_per_day = 0.0;
  /// Extra rate multiplier per unit of relative RTT excess over the
  /// user's habituated level: rate *= 1 + gain * max(0, rtt/ewma - 1).
  double dissatisfaction_gain = 8.0;
  /// Multiplier applied during a step in which this vantage's path to the
  /// server changed.
  double route_change_multiplier = 3.0;
};

/// Retry policy for failed probes: attempt, then exponential backoff in
/// simulated time within the step. Retries help against transient probe
/// loss; they cannot help against outage windows or missing routes.
struct RetryOptions {
  std::size_t max_attempts = 3;
  core::SimTime backoff_base = core::SimTime(1);
  double backoff_multiplier = 2.0;
};

struct PlatformOptions {
  netsim::PopIndex server = 0;
  core::SimTime step = core::SimTime::FromHours(1);
  /// §4 proposal 1: fire a test burst when a watched path changes.
  bool conditional_activation = false;
  std::size_t event_burst_tests = 4;
  /// EWMA smoothing for the user's habituated RTT (per step).
  double ewma_alpha = 0.05;
  SpeedTestModelOptions test_model;
  RetryOptions retry;
  /// Quarantine thresholds for the store the platform's records go to
  /// (StreamingCampaign's first argument).
  StoreValidationOptions validation;
  /// Emit a live progress line every N committed steps (0 = never). The
  /// cadence is step-count-based, never wall-clock, so the line sequence
  /// is deterministic; the measure.stream.* gauges refresh every step
  /// regardless.
  std::size_t heartbeat_every_steps = 50;
};

/// A probe that produced no record even after retries — the failure-side
/// counterpart of intent tagging (§4): the archive records not only why a
/// measurement exists but why one is absent.
struct ProbeFailure {
  core::SimTime time;
  netsim::PopIndex vantage = 0;
  Intent intent = Intent::kBaseline;
  ProbeFault reason = ProbeFault::kNone;
  std::uint32_t attempts = 0;
};

/// Options for a campaign's ingest side.
struct StreamingOptions {
  PanelOptions panel;
};

/// Everything one platform step produced, before any of it is committed:
/// the merge-ordered record batch (sequential ids already assigned in
/// vantage order) and the step's probe failures. This is the unit of
/// durability (DESIGN.md §11): the journal records a serialized StepOutput
/// before it is applied, and recovery re-generates the same StepOutput
/// from the restored RNG/simulator state and verifies it byte-for-byte
/// against the journaled frame.
struct StepOutput {
  std::vector<PendingRecord> records;
  std::vector<ProbeFailure> failures;
  core::SimTime step_end;
};

/// The campaign sink: owns the sharded columnar store, the archive's one
/// copy of each record, and ingests merge-ordered batches as the platform
/// produces them. One batch = one platform step; within a batch, ingest
/// fans out across the core::ThreadPool with one task per shard
/// (shard = hash(unit)), so validation, quarantine metrics, lineage
/// verdicts and the per-unit running RTT sums all run inside the owning
/// shard's task. Because the shard layout is a pure function of unit keys,
/// lineage verdicts are written in place at each record's id, and the pool
/// replays captured metric writes in shard-index order, every artifact is
/// byte-identical at any SISYPHUS_THREADS (DESIGN.md §10).
///
/// The lineage flag is read once, at construction: enable lineage before
/// constructing the campaign.
class StreamingCampaign {
 public:
  /// Precondition: options.panel.bucket > 0.
  StreamingCampaign(StoreValidationOptions validation,
                    StreamingOptions options);

  /// Ingests one merge-ordered batch (ids already assigned). Every record
  /// reaches exactly one terminal verdict: archived into its shard's arena,
  /// or quarantined — with its metrics and lineage verdict. Each archived
  /// copy outside the panel's horizon gets its out_of_panel verdict here,
  /// and each one inside joins its unit's running RTT sum. A record's shard
  /// is hashed from its interned unit key once per run of consecutive
  /// records with the same unit, which the vantage-ordered merge makes one
  /// run per vantage; no key string is built.
  void IngestBatch(const std::vector<PendingRecord>& batch);

  /// Assembles the panel from the store (serial; call after the campaign
  /// ends): one counting sort per shard groups its in-horizon copies by
  /// unit and cell into flat buffers, AddPanelUnit adds each unit, and the
  /// units are sorted by key. Only one shard's copies are held beside the
  /// store at a time.
  Panel FinalizePanel() const;

  /// Visits every archived unit's running in-horizon RTT aggregate — (unit
  /// name, copy count, Neumaier-compensated sum) — in ascending unit-name
  /// order. Ingest adds a unit's copies in the order its shard archives
  /// them, which no lane count changes, and a resume rebuilds the sums by
  /// re-ingesting the journaled batches in that order, so every sum is
  /// bit-identical across thread counts and kill/resume. This is the
  /// timeline sampler's read API.
  void VisitRunningMeans(
      const std::function<void(std::string_view unit, std::uint64_t count,
                               double sum)>& visit) const;

  const ShardedMeasurementStore& store() const { return store_; }
  std::uint64_t batches() const { return batches_; }
  /// Batch entries offered for ingest: the records the steps generated. A
  /// duplicate's two copies are one entry, so under duplicate faults this
  /// falls short of store().size() + store().quarantined(). Both step
  /// loops report this count as measure.stream.records_ingested.
  std::uint64_t ingested() const { return ingested_; }

 private:
  /// A unit's in-horizon RTT copies so far, added in archive order.
  struct RunningSum {
    std::uint64_t count = 0;
    double sum = 0.0;
    double comp = 0.0;  ///< Neumaier compensation
  };

  /// One shard's ingest state: its share of the current batch (its
  /// records' batch indices, in batch order, and the store's verdict on
  /// each; refilled per batch, kept for capacity) and its units' running
  /// sums, indexed like the shard's unit_names.
  struct ShardIngest {
    std::vector<std::uint32_t> entries;
    std::vector<std::uint8_t> archived;
    std::vector<RunningSum> running;
  };

  /// Per-shard ingest body, run inside the shard's pool task: one store
  /// call for the whole share, each entry's lineage verdict, then one walk
  /// over the rows just archived, in row order.
  void IngestShard(std::size_t shard, const std::vector<PendingRecord>& batch,
                   ShardIngest& ingest);

  StreamingOptions options_;
  bool lineage_ = false;
  ShardedMeasurementStore store_;
  std::vector<ShardIngest> by_shard_;
  std::uint64_t batches_ = 0;
  std::uint64_t ingested_ = 0;
};

class Platform {
 public:
  /// The simulator must outlive the platform.
  Platform(netsim::NetworkSimulator& simulator, PlatformOptions options);

  /// Registers a vantage point and interns its ⟨ASN, city⟩ unit; also
  /// registers a path watch on the simulator so conditional activation
  /// and user reactions can see route changes.
  void AddVantage(VantageConfig config);

  /// The unit of the vantage registered at `pop`; nullopt when no vantage
  /// is. DecodeStep resolves journaled records through this, so it never
  /// interns from disk.
  std::optional<Unit> VantageUnit(netsim::PopIndex pop) const;

  /// Routes every test's server choice through `steering` (resolver
  /// rotation / anycast model) instead of the fixed options.server.
  /// Non-owning; pass nullptr to revert. The steering object must outlive
  /// the platform while installed.
  void SetEdgeSteering(EdgeSteering* steering) { steering_ = steering; }
  const EdgeSteering* edge_steering() const { return steering_; }

  /// Installs a fault injector consulted on every probe attempt and every
  /// successful record. Non-owning; pass nullptr for a failure-free
  /// platform. Must outlive the platform while installed.
  void SetFaultInjector(FaultInjector* injector) { injector_ = injector; }

  /// Runs the campaign from the simulator's current time to `until`,
  /// advancing the network and generating tests step by step, and hands
  /// each step's merge-ordered batch to `campaign` (IngestBatch) before
  /// recording the step's probe failures and telemetry.
  ///
  /// Within a step, vantages are independent: each one draws from a
  /// generator forked off a per-step seed (Rng::Fork(step_seed, vantage)),
  /// produces a local batch of records and failures, and the batches are
  /// merged in vantage order with sequential ids. The per-vantage work
  /// therefore fans out across the core::ThreadPool with results
  /// byte-identical to the serial order at any SISYPHUS_THREADS
  /// (DESIGN.md §7). With edge steering installed, the same forked-stream
  /// structure runs serially (the steering decision log is order-sensitive
  /// shared state), producing identical output.
  void Run(core::SimTime until, core::Rng& rng, StreamingCampaign& campaign);

  // -- step-at-a-time API (the durable service drives these directly) ----

  /// Runs ONE step ending at min(Now() + step, until) — advance the
  /// simulator, resolve each vantage's path once, fan per-vantage test
  /// sampling across the pool, habituate EWMAs — and returns the
  /// merge-ordered batch with sequential ids assigned in vantage order,
  /// WITHOUT committing anything to a store or recording failures. Run()
  /// and the durable service are loops over GenerateStep; the durable
  /// service journals the StepOutput before applying it.
  /// Precondition: Now() < until.
  StepOutput GenerateStep(core::SimTime until, core::Rng& rng);

  /// Records a step's probe failures (metrics + lineage + failures()).
  void CommitFailures(const std::vector<ProbeFailure>& failures);

  /// Fast-forwards one step of simulated time WITHOUT generating tests,
  /// consuming RNG draws, or touching EWMAs: advances the simulator,
  /// swallows the step's route changes (leaving the route-change cursor
  /// where GenerateStep would), and reads every (vantage, server) route
  /// as GenerateStep's prewarm does, so the BGP route cache and the
  /// netsim.* metrics end the step as a live step leaves them. A resume
  /// runs it once per snapshot-covered step, before that step's journal
  /// frame is committed (DESIGN.md §11). A steered probe's own route
  /// reads are not replayed, so the durable service refuses edge
  /// steering.
  void SkipStep(core::SimTime until);

  /// The platform-side mutable state a snapshot must carry: what a resumed
  /// process cannot re-derive from re-construction, SkipStep or the
  /// journal (EWMAs evolve per step; the id watermark advances).
  /// failures() is not part of it: a resume rebuilds it by committing the
  /// journaled steps' failures (DESIGN.md §11).
  struct StreamState {
    std::uint64_t next_record_id = 1;
    std::vector<double> ewma_rtt;  ///< one per vantage, AddVantage order
  };
  StreamState CaptureStreamState() const;
  /// Fails, changing nothing, when `state` was captured on a platform with
  /// a different vantage count (one EWMA per vantage).
  core::Status RestoreStreamState(const StreamState& state);

  const PlatformOptions& options() const { return options_; }
  /// The simulated network's topology (DecodeStep checks a journaled
  /// record's IXP crossing against its IXPs).
  const netsim::Topology& topology() const { return simulator_.topology(); }

  /// Current simulated time (the step loop driven externally by the
  /// durable service needs the clock the internal loops read).
  core::SimTime Now() const { return simulator_.Now(); }

  /// Probes that produced no record even after retries, in time order.
  const std::vector<ProbeFailure>& failures() const { return failures_; }

  /// Terminal probe-failure counts by reason (mirrors the ProbeFault
  /// provenance of failures(), pre-aggregated for manifests and logs).
  std::map<std::string, std::size_t> FailureReasonCounts() const;

  /// Failed-probe counts per vantage PoP — the per-vantage outage/loss
  /// picture, queryable without walking failures().
  std::map<netsim::PopIndex, std::size_t> FailuresByVantage() const;

 private:
  struct VantageState {
    VantageConfig config;
    Unit unit;               ///< the vantage PoP's ⟨ASN, city⟩
    double ewma_rtt = -1.0;  ///< habituated RTT; <0 = uninitialized
  };

  /// One vantage's view of the network for a step, resolved serially on
  /// the campaign thread before the probe tasks fan out. The tasks sample
  /// from it and never read the route cache.
  struct StepSignal {
    bool path_changed = false;
    /// Path to options_.server; empty when the vantage cannot reach it.
    std::optional<ProbePath> path;

    /// Mean network RTT (perceived performance); -1 when unreachable.
    double current_rtt() const { return path ? path->mean_rtt_ms : -1.0; }
    /// Path loss rate, the congestion signal MNAR fault plans couple
    /// probe loss to; 0 when unreachable.
    double congestion() const { return path ? path->loss_rate : 0.0; }
  };

  /// Per-vantage, per-step output produced inside a parallel task and
  /// merged in vantage order on the campaign thread.
  struct VantageBatch {
    std::vector<PendingRecord> records;
    std::vector<ProbeFailure> failures;
  };

  void RunTests(const VantageState& vantage, const StepSignal& signal,
                std::size_t count, Intent intent, core::Rng& rng,
                VantageBatch& batch);

  /// One probe with retry/backoff; appends the record or a failure to the
  /// batch.
  void RunOneTest(const VantageState& vantage, const StepSignal& signal,
                  Intent intent, core::Rng& rng, VantageBatch& batch);

  /// Appends to failures_ and bumps the failure metrics (total + per
  /// ProbeFault reason), keeping the two views consistent.
  void RecordFailure(ProbeFailure failure);

  netsim::NetworkSimulator& simulator_;
  PlatformOptions options_;
  std::vector<VantageState> vantages_;
  std::vector<ProbeFailure> failures_;
  std::size_t route_change_cursor_ = 0;
  /// Campaign-local record ids (1-based), assigned at merge time. A
  /// process-global counter (RunSpeedTest's) would differ across campaigns
  /// in one process, breaking the byte-identical-replay guarantee of
  /// seeded fault plans.
  std::uint64_t next_record_id_ = 1;
  EdgeSteering* steering_ = nullptr;
  FaultInjector* injector_ = nullptr;
};

/// Adds one step's measure.probes.{attempted,retried,succeeded}: every
/// probe ends in exactly one record or one failure, and its retries are
/// its attempts after the first (faults never change `attempts`), so
/// attempted = records + failures, succeeded = records and retried =
/// Σ(attempts − 1). Each counter is added once, and only when nonzero, so
/// it is registered, and listed in metrics.json, from the first step that
/// counts one. GenerateStep calls it on its merged step, and a durable
/// resume on each journal frame it rebuilds.
void CountProbes(const StepOutput& step);

/// Step-boundary telemetry, called once per committed step by both step
/// loops (Platform::Run and the durable service, whose resume also calls
/// it for each step it rebuilds from the journal) so they emit the same
/// stream: the measure.stream.{records_ingested,journal_high_water}
/// gauges, an info-level progress line every `every` steps (0 = never),
/// and the step's timeline sample and commit (DESIGN.md §15) — the stream
/// and netsim.bgp.* counters plus, when `campaign` is non-null, each
/// archived unit's running RTT mean (`rtt.mean.<unit>`). The third and
/// sixth parameters are unused; they remain so existing callers keep
/// compiling.
void EmitStepTelemetry(std::uint64_t committed_steps,
                       std::uint64_t committed_records, std::size_t,
                       std::size_t every, const StreamingCampaign* campaign,
                       bool);

/// The lineage verdict of one merged record (id, vantage, intent,
/// attempts clamped to 255, fault bits, copies) with its store outcome.
obs::LineageRecordInfo LineageInfoOf(const PendingRecord& pending,
                                     bool archived);

/// Declares the fixed stream series (stream counters + netsim.bgp
/// reconvergence counters) up front, so their timeline ids come first and
/// in a fixed order whatever else a run declares. Step loops call this
/// before their first step; it is idempotent.
void DeclareStreamTelemetrySeries();

}  // namespace sisyphus::measure
