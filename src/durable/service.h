// Durable streaming service: crash-tolerant driver for a streaming
// measurement campaign (DESIGN.md §11).
//
// The service owns the durability protocol around Platform's
// step-at-a-time API:
//
//   1. GenerateStep — pure generation from (RNG, simulator, EWMA) state;
//   2. journal — the serialized StepOutput is appended to a checksummed
//      write-ahead journal BEFORE it is applied;
//   3. shed — an optional deterministic per-step record cap; dropped
//      records terminate in lineage as shed_overload with zero delivered
//      copies (conservation stays exact);
//   4. ingest — StreamingCampaign::IngestBatch, then the step's telemetry
//      and timeline commit, all on the step-loop thread;
//   5. snapshot — every `snapshot_every` steps, the generator state that
//      neither the journal nor Platform::SkipStep can reproduce (seq,
//      record-id watermark, RNG, the vantage EWMAs) is written atomically:
//      a few hundred bytes, the same at every step and record count.
//
// Recovery = journal rebuild + snapshot restore + deterministic VERIFIED
// RE-EXECUTION. Resume picks the newest valid snapshot (seq k) whose
// record-id watermark matches journal frame k's, then replays frames
// 1..k as their live steps ran them, minus the generation: for each, in
// the live loop's order, SkipStep (the simulator and its route reads),
// DecodeStep (a Status on any malformed frame, its records resolved
// against their vantages' interned units), the step's probe counters
// (CountProbes), the live commit (shed cut, IngestBatch, CommitFailures)
// and the step's telemetry (EmitStepTelemetry). Nothing is paused: the
// store (which the panel is built from), the running means, lineage
// ledger, probe failures, metrics registry and timeline all come out as
// the live run left them. Then the generator state is restored. Frames
// after k stay integrity witnesses: those steps are re-generated live and
// their serialized form compared byte-for-byte against the journaled
// frame — any divergence fails the resume loudly.
// Because every artifact byte is a pure function of the restored state
// and the frames, a killed-and-resumed run produces
// panel.csv/metrics.json/audit.bin/timeline.bin byte-identical to an
// uninterrupted one, at any SISYPHUS_THREADS.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "core/result.h"
#include "core/rng.h"
#include "core/sim_time.h"
#include "measure/platform.h"

namespace sisyphus::durable {

/// Fault-injection harness for kill/resume drills (`--chaos` on the
/// table1 bench). The kill fires at a step boundary, after the step's
/// journal append + ingest (and after the forced snapshot when the
/// corruption target is the snapshot), via _exit — no destructors, no
/// flushes beyond what the protocol already guarantees.
struct ChaosOptions {
  bool enabled = false;
  /// Kill after completing this step (1-based). 0 with seed!=0: derived
  /// pseudo-randomly from the seed.
  std::uint64_t kill_after_steps = 0;
  /// Before dying, write a partial journal frame (simulates a crash
  /// mid-append; recovery must treat it as a benign torn tail).
  bool mid_write = false;
  enum class CorruptTarget { kNone, kSnapshot, kJournal };
  /// Before dying, flip one byte in the target file (recovery must detect
  /// the checksum mismatch: snapshot -> fall back, journal -> fail loud).
  CorruptTarget corrupt = CorruptTarget::kNone;
  std::uint64_t seed = 0;
};

/// Parses "kill-after=N[,mid-write][,corrupt=snapshot|journal][,seed=S]".
core::Result<ChaosOptions> ParseChaosSpec(std::string_view spec);

struct DurableOptions {
  /// Directory holding journal.bin and snap-*.bin. Required.
  std::string dir;
  /// Steps between periodic snapshots (0 = final snapshot only).
  std::uint64_t snapshot_every = 16;
  /// Journal frames between fsyncs (also fsynced at snapshots/shutdown).
  std::uint64_t fsync_every = 8;
  /// Shed-on-overload: per-step record cap, keeping the first N in merge
  /// order (0 = unbounded). Deterministic — a pure function of the batch,
  /// never of wall-clock — so replays shed identically.
  std::uint64_t max_step_records = 0;
  /// Snapshots retained (older ones pruned).
  std::size_t keep_snapshots = 3;
  // Heartbeat cadence comes from PlatformOptions::heartbeat_every_steps —
  // one source of truth, so the durable loop's gauge/log stream (and the
  // timeline sampler riding the same hook) is identical to the plain
  // streaming loop's by construction.
  /// Test hook: stop cleanly after N live steps WITHOUT a final snapshot —
  /// emulates a crash whose journal survived (the crash-at-every-step
  /// property test drives this).
  std::uint64_t stop_after_steps = 0;
  /// Test hook: called with each step's seq just before the batch is
  /// ingested; a throw fails the run with an error naming the step (the
  /// step is already journaled, so a resume recovers it).
  std::function<void(std::uint64_t)> ingest_fault;
  ChaosOptions chaos;
};

enum class RunOutcome {
  kCompleted,    ///< reached `until`
  kInterrupted,  ///< SIGINT/SIGTERM: journal flushed + final snapshot
  kStopped,      ///< stop_after_steps hook fired
};

struct RunStats {
  RunOutcome outcome = RunOutcome::kCompleted;
  bool resumed = false;
  std::uint64_t steps = 0;           ///< live steps executed this process
  std::uint64_t replayed_steps = 0;  ///< steps re-executed under journal verification
  std::uint64_t rebuilt_steps = 0;   ///< journal frames fed to ingest on resume
  std::uint64_t snapshot_seq = 0;    ///< seq of the last snapshot written
  std::uint64_t journal_high_water = 0;  ///< highest journaled seq
  std::uint64_t journal_entries = 0;     ///< frames appended this process
  std::uint64_t shed_records = 0;        ///< records shed this process
};

/// SIGINT/SIGTERM -> an async-signal-safe flag the step loop polls at
/// step boundaries; the run then flushes, snapshots, and returns
/// kInterrupted so the caller can write valid (partial-run-marked)
/// artifacts instead of torn files.
void InstallSignalHandlers();
bool InterruptRequested();
void ClearInterruptFlag();  ///< tests

/// Serialized journal payload of one step: step_end, next-record-id
/// watermark, then the merge-ordered records and failures. A record's
/// unit is written as its ASN (u32) and city string, never as its handle,
/// and its IXP crossing as a u16 (kNoIxpCrossing for none).
/// Byte-stable across thread counts and platforms (little-endian, no
/// padding).
std::string EncodeStep(const measure::StepOutput& step,
                       std::uint64_t next_record_id_after);

/// The exact inverse of EncodeStep for a frame whose records must run on
/// from `first_record_id` (the previous frame's watermark; 1 for frame 1)
/// and come from `platform`'s vantages: the decoded step re-encodes to
/// `payload` byte for byte, and the frame's watermark is first_record_id +
/// records.size(). Each record's unit is its vantage's, resolved through
/// Platform::VantageUnit — a journal never interns one. Fails, before any
/// allocation the payload's bytes cannot back, on a record or failure
/// count beyond the bytes, an id out of sequence, a record whose vantage
/// is not one of the platform's or whose ASN and city bytes are not its
/// vantage's unit, an IXP crossing the platform's topology does not have,
/// a record or failure whose attempts fall outside 1..max_attempts, a
/// watermark other than the last id + 1, an intent, fault-mask,
/// failure-intent or failure-reason byte outside its enum, a bool byte
/// other than 0 or 1, or trailing bytes.
core::Result<measure::StepOutput> DecodeStep(
    std::string_view payload, std::uint64_t first_record_id,
    const measure::Platform& platform);

class DurableStreamingService {
 public:
  /// The platform and campaign must outlive the service. The campaign
  /// must be freshly constructed (Run) or reconstructed identically to
  /// the original run (Resume) — lineage, registry and timeline
  /// enablement included, since the campaign snapshots the lineage flag
  /// at construction and the resume rebuilds the ledger, the registry and
  /// the timeline from the journal. Run and Resume refuse a platform with
  /// edge steering installed (kInvalidArgument): SkipStep does not replay
  /// a steered probe's route reads.
  DurableStreamingService(measure::Platform& platform,
                          measure::StreamingCampaign& campaign,
                          DurableOptions options);

  /// Fresh durable run from the platform's current time to `until`.
  /// Clears stale journal/snapshot state in the directory first.
  core::Result<RunStats> Run(core::SimTime until, core::Rng& rng);

  /// Crash-tolerant resume: newest valid snapshot, everything but the
  /// generator state rebuilt from the journal frames it covers, verified
  /// re-execution of the journal tail, then normal operation to `until`.
  /// Corrupt or undecodable snapshots (trailing bytes included), and
  /// snapshots whose record-id watermark disagrees with their journal
  /// frame, fall back to the previous one (loud failure when none is
  /// valid but some exist); journal corruption before the tail, or a
  /// covered frame that does not decode, fails loudly. With no snapshot
  /// and no journal this degrades to a cold Run without clearing the
  /// directory.
  core::Result<RunStats> Resume(core::SimTime until, core::Rng& rng);

 private:
  core::Result<RunStats> RunInternal(core::SimTime until, core::Rng& rng,
                                     bool resume);

  measure::Platform& platform_;
  measure::StreamingCampaign& campaign_;
  DurableOptions options_;
};

}  // namespace sisyphus::durable
