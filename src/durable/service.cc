#include "durable/service.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <limits>
#include <optional>
#include <utility>

#include "core/binio.h"
#include "core/error.h"
#include "core/hash.h"
#include "core/logging.h"
#include "durable/journal.h"
#include "durable/snapshot.h"
#include "obs/lineage.h"
#include "obs/metrics.h"
#include "obs/timeline.h"

namespace sisyphus::durable {

namespace binio = core::binio;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Signals

namespace {
volatile std::sig_atomic_t g_interrupted = 0;
void HandleInterrupt(int) { g_interrupted = 1; }
}  // namespace

void InstallSignalHandlers() {
  std::signal(SIGINT, HandleInterrupt);
  std::signal(SIGTERM, HandleInterrupt);
}

bool InterruptRequested() { return g_interrupted != 0; }

void ClearInterruptFlag() { g_interrupted = 0; }

// ---------------------------------------------------------------------------
// Chaos spec

core::Result<ChaosOptions> ParseChaosSpec(std::string_view spec) {
  ChaosOptions chaos;
  chaos.enabled = true;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string_view part =
        spec.substr(pos, comma == std::string_view::npos ? spec.size() - pos
                                                         : comma - pos);
    pos = comma == std::string_view::npos ? spec.size() + 1 : comma + 1;
    if (part.empty()) continue;
    const std::size_t eq = part.find('=');
    const std::string_view key = part.substr(0, eq);
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view() : part.substr(eq + 1);
    // Decimal digits only, and no number past UINT64_MAX: one that wraps
    // would run a different drill than the one asked for.
    const auto parse_u64 = [](std::string_view v,
                              std::uint64_t* out) -> bool {
      if (v.empty()) return false;
      std::uint64_t n = 0;
      for (char c : v) {
        if (c < '0' || c > '9') return false;
        const auto digit = static_cast<std::uint64_t>(c - '0');
        if (n > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
          return false;
        }
        n = n * 10 + digit;
      }
      *out = n;
      return true;
    };
    if (key == "kill-after") {
      if (!parse_u64(value, &chaos.kill_after_steps)) {
        return core::Error(core::ErrorCode::kParseError,
                           "chaos: bad kill-after value");
      }
    } else if (key == "seed") {
      if (!parse_u64(value, &chaos.seed)) {
        return core::Error(core::ErrorCode::kParseError,
                           "chaos: bad seed value");
      }
    } else if (key == "mid-write") {
      chaos.mid_write = true;
    } else if (key == "corrupt") {
      if (value == "snapshot") {
        chaos.corrupt = ChaosOptions::CorruptTarget::kSnapshot;
      } else if (value == "journal") {
        chaos.corrupt = ChaosOptions::CorruptTarget::kJournal;
      } else {
        return core::Error(core::ErrorCode::kParseError,
                           "chaos: corrupt target must be snapshot|journal");
      }
    } else {
      return core::Error(
          core::ErrorCode::kParseError,
          "chaos: unknown key '" + std::string(key) +
              "' (expected kill-after/mid-write/corrupt/seed)");
    }
  }
  if (chaos.kill_after_steps == 0 && chaos.seed == 0) {
    return core::Error(core::ErrorCode::kParseError,
                       "chaos: kill-after=N or seed=S required");
  }
  return chaos;
}

// ---------------------------------------------------------------------------
// Step / snapshot serialization

namespace {

// Bytes of one encoded record besides its city's characters: id, time,
// asn, city length, vantage, server, rtt, loss, throughput, intent,
// attempts, IXP crossing, duplicate, fault mask.
constexpr std::uint64_t kRecordMinBytes =
    8 + 8 + 4 + 8 + 4 + 4 + 8 + 8 + 8 + 1 + 4 + 2 + 1 + 1;
// Bytes of one encoded failure: time, vantage, intent, reason, attempts.
constexpr std::uint64_t kFailureBytes = 8 + 4 + 1 + 1 + 4;

constexpr auto kMaxIntent =
    static_cast<std::uint8_t>(measure::Intent::kEventTriggered);
constexpr auto kMaxProbeFault =
    static_cast<std::uint8_t>(measure::ProbeFault::kUnreachable);
constexpr std::uint8_t kFaultMaskBits =
    obs::kLineageFaultSkewed | obs::kLineageFaultTruncated |
    obs::kLineageFaultCorrupted | obs::kLineageFaultDuplicated;

}  // namespace

std::string EncodeStep(const measure::StepOutput& step,
                       std::uint64_t next_record_id_after) {
  binio::Writer w;
  w.PutI64(step.step_end.minutes());
  w.PutU64(next_record_id_after);
  w.PutU64(step.records.size());
  for (const measure::PendingRecord& pending : step.records) {
    const measure::SpeedTestRecord& r = pending.record;
    w.PutU64(r.id.value());
    w.PutI64(r.time.minutes());
    w.PutU32(r.unit.asn().value());
    w.PutString(r.unit.city());
    w.PutU32(r.vantage_pop);
    w.PutU32(r.server_pop);
    w.PutDouble(r.rtt_ms);
    w.PutDouble(r.loss_rate);
    w.PutDouble(r.throughput_mbps);
    w.PutU8(static_cast<std::uint8_t>(r.intent));
    w.PutU32(r.attempts);
    w.PutU16(r.ixp_crossing);
    w.PutBool(pending.duplicate);
    w.PutU8(pending.fault_mask);
  }
  w.PutU64(step.failures.size());
  for (const measure::ProbeFailure& f : step.failures) {
    w.PutI64(f.time.minutes());
    w.PutU32(f.vantage);
    w.PutU8(static_cast<std::uint8_t>(f.intent));
    w.PutU8(static_cast<std::uint8_t>(f.reason));
    w.PutU32(f.attempts);
  }
  return std::move(w).Take();
}

core::Result<measure::StepOutput> DecodeStep(
    std::string_view payload, std::uint64_t first_record_id,
    const measure::Platform& platform) {
  const auto malformed = [](const std::string& why) {
    return core::Error(core::ErrorCode::kParseError, why);
  };
  const auto truncated = [&] { return malformed("truncated payload"); };
  // "record 3 has intent byte 7": built only for the entry that fails.
  const auto bad = [&](const char* entry, std::uint64_t i, const char* field,
                       std::uint64_t value) {
    return malformed(std::string(entry) + " " + std::to_string(i) + " has " +
                     field + " " + std::to_string(value));
  };
  // Every probe makes 1..max_attempts attempts; the rebuilt
  // measure.probes.retried counts them.
  const auto attempts_ok = [&](std::uint32_t attempts) {
    return attempts >= 1 && attempts <= platform.options().retry.max_attempts;
  };
  binio::Reader r(payload);
  measure::StepOutput step;
  step.step_end = core::SimTime(r.GetI64());
  const std::uint64_t watermark = r.GetU64();
  const std::uint64_t record_count = r.GetU64();
  if (!r.ok()) return truncated();
  if (record_count > r.remaining() / kRecordMinBytes) {
    return malformed("record count " + std::to_string(record_count) +
                     " exceeds the payload's bytes");
  }
  step.records.reserve(static_cast<std::size_t>(record_count));
  // Records come in runs of one vantage: its unit is looked up once a run.
  std::optional<measure::Unit> unit;
  netsim::PopIndex unit_vantage = 0;
  for (std::uint64_t i = 0; i < record_count; ++i) {
    measure::PendingRecord pending;
    measure::SpeedTestRecord& rec = pending.record;
    const std::uint64_t id = r.GetU64();
    rec.time = core::SimTime(r.GetI64());
    const std::uint32_t asn = r.GetU32();
    const std::string_view city = r.GetRaw(r.GetU64());
    const netsim::PopIndex vantage = r.GetU32();
    rec.server_pop = r.GetU32();
    rec.rtt_ms = r.GetDouble();
    rec.loss_rate = r.GetDouble();
    rec.throughput_mbps = r.GetDouble();
    const std::uint8_t intent = r.GetU8();
    rec.attempts = r.GetU32();
    rec.ixp_crossing = r.GetU16();
    const std::uint8_t duplicate = r.GetU8();
    pending.fault_mask = r.GetU8();
    if (!r.ok()) return truncated();
    if (id != first_record_id + i) {
      return malformed("record " + std::to_string(i) + " has id " +
                       std::to_string(id) + ", expected " +
                       std::to_string(first_record_id + i));
    }
    if (i == 0 || vantage != unit_vantage) {
      unit = platform.VantageUnit(vantage);
      unit_vantage = vantage;
    }
    if (!unit.has_value()) {
      return malformed("record " + std::to_string(i) + " has vantage " +
                       std::to_string(vantage) +
                       ", not one of the platform's vantages");
    }
    if (asn != unit->asn().value() || city != unit->city()) {
      return malformed("record " + std::to_string(i) + " names unit " +
                       std::to_string(asn) + " / " + std::string(city) +
                       ", not its vantage " + std::to_string(vantage) +
                       "'s unit " + unit->key());
    }
    if (intent > kMaxIntent) return bad("record", i, "intent byte", intent);
    if (!attempts_ok(rec.attempts)) {
      return bad("record", i, "attempts", rec.attempts);
    }
    if (rec.ixp_crossing != measure::kNoIxpCrossing &&
        rec.ixp_crossing >= platform.topology().IxpCount()) {
      return malformed("record " + std::to_string(i) + " crosses IXP " +
                       std::to_string(rec.ixp_crossing) +
                       ", not one of the topology's " +
                       std::to_string(platform.topology().IxpCount()) +
                       " IXPs");
    }
    if (duplicate > 1) return bad("record", i, "duplicate byte", duplicate);
    if ((pending.fault_mask & ~kFaultMaskBits) != 0) {
      return bad("record", i, "fault-mask byte", pending.fault_mask);
    }
    rec.id = core::MeasurementId(id);
    rec.unit = *unit;
    rec.vantage_pop = vantage;
    rec.intent = static_cast<measure::Intent>(intent);
    pending.duplicate = duplicate == 1;
    step.records.push_back(pending);
  }
  if (watermark != first_record_id + record_count) {
    return malformed("watermark " + std::to_string(watermark) +
                     " is not the last id + 1 (" +
                     std::to_string(first_record_id + record_count) + ")");
  }
  const std::uint64_t failure_count = r.GetU64();
  if (!r.ok()) return truncated();
  if (failure_count > r.remaining() / kFailureBytes) {
    return malformed("failure count " + std::to_string(failure_count) +
                     " exceeds the payload's bytes");
  }
  step.failures.reserve(static_cast<std::size_t>(failure_count));
  for (std::uint64_t i = 0; i < failure_count; ++i) {
    measure::ProbeFailure f;
    f.time = core::SimTime(r.GetI64());
    f.vantage = r.GetU32();
    const std::uint8_t intent = r.GetU8();
    const std::uint8_t reason = r.GetU8();
    f.attempts = r.GetU32();
    if (!r.ok()) return truncated();
    if (intent > kMaxIntent) return bad("failure", i, "intent byte", intent);
    if (reason > kMaxProbeFault) {
      return bad("failure", i, "reason byte", reason);
    }
    if (!attempts_ok(f.attempts)) {
      return bad("failure", i, "attempts", f.attempts);
    }
    f.intent = static_cast<measure::Intent>(intent);
    f.reason = static_cast<measure::ProbeFault>(reason);
    step.failures.push_back(f);
  }
  if (r.remaining() != 0) {
    return malformed(std::to_string(r.remaining()) + " trailing bytes");
  }
  return step;
}

namespace {

/// A snapshot holds only what neither the journal nor Platform::SkipStep
/// can reproduce: the seq, the platform's record-id watermark, the RNG and
/// the vantage EWMAs. The store, panel aggregates, lineage ledger, probe
/// failures, metrics registry and timeline are rebuilt from journal
/// frames 1..seq.
std::string EncodeSnapshotPayload(std::uint64_t seq, const core::Rng& rng,
                                  const measure::Platform& platform) {
  binio::Writer w;
  w.PutU64(seq);
  const measure::Platform::StreamState stream = platform.CaptureStreamState();
  w.PutU64(stream.next_record_id);
  const core::Rng::State rng_state = rng.SaveState();
  for (std::uint64_t word : rng_state.s) w.PutU64(word);
  w.PutBool(rng_state.has_cached_gaussian);
  w.PutDouble(rng_state.cached_gaussian);
  binio::PutDoubleVector(w, stream.ewma_rtt);
  return std::move(w).Take();
}

struct SnapshotHead {
  std::uint64_t seq = 0;
  core::Rng::State rng;
  measure::Platform::StreamState stream;
};

/// False on a payload that is not exactly EncodeSnapshotPayload's layout,
/// trailing bytes included.
bool DecodeSnapshotHead(const std::string& payload, SnapshotHead* head) {
  binio::Reader r(payload);
  head->seq = r.GetU64();
  head->stream.next_record_id = r.GetU64();
  for (std::uint64_t& word : head->rng.s) word = r.GetU64();
  head->rng.has_cached_gaussian = r.GetBool();
  head->rng.cached_gaussian = r.GetDouble();
  head->stream.ewma_rtt = binio::GetDoubleVector(r);
  return r.ok() && r.remaining() == 0;
}

/// The record-id watermark journal frame `seq` ends at (1 before frame 1):
/// EncodeStep's second field. 0, never a valid watermark, when the frame
/// is too short to hold one.
std::uint64_t FrameWatermark(const JournalScan& scan, std::uint64_t seq) {
  if (seq == 0) return 1;
  binio::Reader r(scan.frames[seq - 1].payload);
  r.GetI64();
  const std::uint64_t watermark = r.GetU64();
  return r.ok() ? watermark : 0;
}

bool FlipByte(const std::string& path, std::size_t offset) {
  std::FILE* file = std::fopen(path.c_str(), "r+b");
  if (file == nullptr) return false;
  bool ok = std::fseek(file, static_cast<long>(offset), SEEK_SET) == 0;
  int byte = ok ? std::fgetc(file) : EOF;
  ok = ok && byte != EOF;
  ok = ok &&
       std::fseek(file, static_cast<long>(offset), SEEK_SET) == 0;
  ok = ok && std::fputc((byte ^ 0xff) & 0xff, file) != EOF;
  std::fclose(file);
  return ok;
}

}  // namespace

// ---------------------------------------------------------------------------
// Service

DurableStreamingService::DurableStreamingService(
    measure::Platform& platform, measure::StreamingCampaign& campaign,
    DurableOptions options)
    : platform_(platform), campaign_(campaign), options_(std::move(options)) {}

core::Result<RunStats> DurableStreamingService::Run(core::SimTime until,
                                                    core::Rng& rng) {
  return RunInternal(until, rng, /*resume=*/false);
}

core::Result<RunStats> DurableStreamingService::Resume(core::SimTime until,
                                                       core::Rng& rng) {
  return RunInternal(until, rng, /*resume=*/true);
}

core::Result<RunStats> DurableStreamingService::RunInternal(core::SimTime until,
                                                            core::Rng& rng,
                                                            bool resume) {
  if (options_.dir.empty()) {
    return core::Error(core::ErrorCode::kInvalidArgument,
                       "durable: options.dir is required");
  }
  if (platform_.edge_steering() != nullptr) {
    // A resume rebuilds the netsim metrics through SkipStep, which does not
    // replay a steered probe's route reads, and no snapshot holds the
    // steering controller's decision log.
    return core::Error(core::ErrorCode::kInvalidArgument,
                       "durable: edge steering is installed, and a resume "
                       "cannot rebuild a steered campaign from its journal");
  }
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) {
    return core::Error(core::ErrorCode::kInvalidArgument,
                       "durable: cannot create " + options_.dir + ": " +
                           ec.message());
  }
  const std::string journal_path =
      (fs::path(options_.dir) / "journal.bin").string();

  RunStats stats;
  stats.resumed = resume;

  if (!resume) {
    // Fresh run: stale durable state would otherwise be mistaken for a
    // previous incarnation of this campaign.
    fs::remove(journal_path, ec);
    for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("snap-", 0) == 0 ||
          (name.size() > 4 &&
           name.substr(name.size() - 4) == ".tmp")) {
        fs::remove(entry.path(), ec);
      }
    }
  }

  // -- journal scan -------------------------------------------------------
  JournalScan scan = ScanJournal(journal_path);
  if (scan.corrupt) {
    return core::Error(core::ErrorCode::kParseError,
                       "durable resume: journal corrupt: " + scan.diagnostic);
  }
  const std::uint64_t high_water = scan.frames.size();
  stats.journal_high_water = high_water;

  // -- recovery: pick the snapshot to restore -----------------------------
  SnapshotHead head;
  bool restored = false;
  if (resume) {
    const std::vector<SnapshotEntry> snaps = ListSnapshots(options_.dir);
    std::string diagnostics;
    const auto reject = [&](const char* what, const std::string& path,
                            const std::string& why) {
      core::LogLine(core::LogLevel::kWarn, what,
                    {{"path", path}, {"why", why}});
      diagnostics += (diagnostics.empty() ? "" : "; ") + why;
    };
    for (auto it = snaps.rbegin(); it != snaps.rend(); ++it) {
      SnapshotRead read = ReadSnapshotFile(it->path);
      if (!read.ok) {
        reject("durable: snapshot invalid, falling back", it->path,
               read.diagnostic);
        continue;
      }
      if (!DecodeSnapshotHead(read.payload, &head) || head.seq != it->seq) {
        reject("durable: snapshot undecodable, falling back", it->path,
               it->path + ": undecodable");
        continue;
      }
      // The snapshot's record ids must resume where journal frame k left
      // them, or the rebuilt ingest side would disagree with the restored
      // platform. (A snapshot past the journal fails loudly below.)
      if (head.seq <= high_water &&
          head.stream.next_record_id != FrameWatermark(scan, head.seq)) {
        reject("durable: snapshot disagrees with the journal, falling back",
               it->path,
               it->path + ": record-id watermark " +
                   std::to_string(head.stream.next_record_id) +
                   " is not journal frame " + std::to_string(head.seq) +
                   "'s");
        continue;
      }
      restored = true;
      break;
    }
    if (!restored && !snaps.empty()) {
      return core::Error(core::ErrorCode::kParseError,
                         "durable resume: no valid snapshot among " +
                             std::to_string(snaps.size()) +
                             " candidates (" + diagnostics + ")");
    }
    // No snapshot files at all: cold resume from step 0 (journal, if any,
    // still verifies the re-execution).
  }
  const std::uint64_t start_seq = restored ? head.seq : 0;
  if (high_water < start_seq) {
    // The protocol flushes the journal before every snapshot, so a valid
    // snapshot at seq k implies journaled frames through k.
    return core::Error(core::ErrorCode::kParseError,
                       "durable resume: journal high-water " +
                           std::to_string(high_water) +
                           " behind snapshot seq " +
                           std::to_string(start_seq));
  }

  // Applies one step the way a live step commits it. The first-N shed cut
  // comes after the journal append (the journal witnesses the pre-shed
  // batch) and before ingest; dropped records terminate in lineage as
  // shed_overload with zero delivered copies. Returns the records shed.
  const auto commit = [&](measure::StepOutput& step) -> std::uint64_t {
    std::uint64_t shed = 0;
    if (options_.max_step_records > 0 &&
        step.records.size() > options_.max_step_records) {
      shed = step.records.size() - options_.max_step_records;
      if (obs::Lineage::enabled()) {
        for (std::size_t i = options_.max_step_records;
             i < step.records.size(); ++i) {
          obs::Lineage::Global().RecordShed(
              measure::LineageInfoOf(step.records[i], false));
        }
      }
      SISYPHUS_METRIC_COUNT("measure.stream.shed_overload", shed);
      step.records.resize(options_.max_step_records);
    }
    campaign_.IngestBatch(step.records);
    platform_.CommitFailures(step.failures);
    return shed;
  };

  // -- fast-forward and journal rebuild ------------------------------------
  measure::DeclareStreamTelemetrySeries();
  if (restored) {
    // Everything but the generator state is a pure function of frames
    // 1..k: replay each covered step as its live step ran it, minus the
    // generation — the fast-forward (simulator, route reads), the step's
    // probe counters, the live commit, the step's telemetry — so the
    // store, panel, lineage, failures, registry and timeline come out as
    // the live run left them.
    std::uint64_t next_record_id = 1;
    for (std::uint64_t seq = 1; seq <= start_seq; ++seq) {
      try {
        platform_.SkipStep(until);
        core::Result<measure::StepOutput> step = DecodeStep(
            scan.frames[seq - 1].payload, next_record_id, platform_);
        if (!step.ok()) {
          return core::Error(core::ErrorCode::kParseError,
                             "durable resume: journal frame " +
                                 std::to_string(seq) + " does not decode: " +
                                 step.error().message());
        }
        next_record_id += step.value().records.size();
        measure::CountProbes(step.value());
        commit(step.value());
        measure::EmitStepTelemetry(seq, campaign_.ingested(), 0, 0,
                                   &campaign_, false);
      } catch (const std::exception& e) {
        return core::Error(core::ErrorCode::kInvalidArgument,
                           "durable resume: journal frame " +
                               std::to_string(seq) + " failed to rebuild: " +
                               e.what());
      }
      ++stats.rebuilt_steps;
    }
    if (const core::Status s = platform_.RestoreStreamState(head.stream);
        !s.ok()) {
      return core::Error(core::ErrorCode::kInvalidArgument,
                         "durable resume: " + s.error().message());
    }
    rng.RestoreState(head.rng);
    core::LogLine(core::LogLevel::kInfo, "durable: resumed from snapshot",
                  {{"seq", start_seq},
                   {"journal_high_water", high_water},
                   {"rebuilt_records", next_record_id - 1}});
  }

  // -- journal writer ------------------------------------------------------
  Journal journal;
  std::string journal_error;
  if (!journal.Open(journal_path, scan.valid_bytes, options_.fsync_every,
                    &journal_error)) {
    return core::Error(core::ErrorCode::kInvalidArgument,
                       "durable: " + journal_error);
  }

  // -- chaos arming --------------------------------------------------------
  std::uint64_t chaos_kill_seq = 0;
  if (options_.chaos.enabled) {
    chaos_kill_seq = options_.chaos.kill_after_steps;
    if (chaos_kill_seq == 0) {
      const std::uint64_t h = core::Fnv1a64(
          "chaos-" + std::to_string(options_.chaos.seed));
      chaos_kill_seq = 1 + h % 24;
    }
  }

  std::uint64_t last_snapshot_seq = start_seq;
  const auto write_snapshot = [&](std::uint64_t seq) -> core::Result<bool> {
    journal.Flush();
    const std::string payload = EncodeSnapshotPayload(seq, rng, platform_);
    std::string error;
    if (!WriteSnapshotFile(SnapshotPath(options_.dir, seq), payload,
                           &error)) {
      return core::Error(core::ErrorCode::kInvalidArgument,
                         "durable: " + error);
    }
    PruneSnapshots(options_.dir, options_.keep_snapshots);
    // Refresh the live timeline artifact next to the snapshots so
    // `timelineq --follow` can tail a running campaign; like the gauges,
    // its content is a pure function of the committed step stream.
    if (obs::Timeline::enabled()) obs::WriteTimelineArtifact(options_.dir);
    last_snapshot_seq = seq;
    return true;
  };

  // -- the step loop --------------------------------------------------------
  std::uint64_t seq = start_seq;
  std::uint64_t next_record_id_after = restored ? head.stream.next_record_id : 1;
  stats.outcome = RunOutcome::kCompleted;
  while (platform_.Now() < until) {
    if (InterruptRequested()) {
      stats.outcome = RunOutcome::kInterrupted;
      break;
    }
    measure::StepOutput step = platform_.GenerateStep(until, rng);
    ++seq;
    if (!step.records.empty()) {
      next_record_id_after = step.records.back().record.id.value() + 1;
    }
    const std::string payload = EncodeStep(step, next_record_id_after);

    if (seq <= high_water) {
      // Verified re-execution: the regenerated step must match the
      // journaled frame byte-for-byte, or the restored state diverged
      // from the original run.
      const JournalFrame& frame = scan.frames[seq - 1];
      if (frame.payload != payload) {
        return core::Error(
            core::ErrorCode::kInvalidArgument,
            "durable resume: journal verification failed at step " +
                std::to_string(seq) +
                " (regenerated step diverges from journaled frame)");
      }
      ++stats.replayed_steps;
    } else {
      if (!journal.Append(seq, payload)) {
        return core::Error(core::ErrorCode::kInvalidArgument,
                           "durable: journal append failed at step " +
                               std::to_string(seq));
      }
      stats.journal_high_water = seq;
    }

    try {
      if (options_.ingest_fault) options_.ingest_fault(seq);
      stats.shed_records += commit(step);
      measure::EmitStepTelemetry(seq, campaign_.ingested(), 0,
                                 platform_.options().heartbeat_every_steps,
                                 &campaign_, false);
    } catch (const std::exception& e) {
      return core::Error(core::ErrorCode::kInvalidArgument,
                         "streaming ingest failed at step " +
                             std::to_string(seq) + ": " + e.what());
    }
    ++stats.steps;

    // Chaos: die at this step boundary, optionally corrupting state
    // first, exactly as a crash would — _exit, no unwinding.
    if (chaos_kill_seq != 0 && seq == chaos_kill_seq) {
      journal.Flush();
      if (options_.chaos.corrupt == ChaosOptions::CorruptTarget::kSnapshot) {
        auto written = write_snapshot(seq);
        if (written.ok()) {
          FlipByte(SnapshotPath(options_.dir, seq), 20);
        }
      }
      if (options_.chaos.mid_write) {
        journal.AppendTorn(seq + 1, payload, 13);
      }
      if (options_.chaos.corrupt == ChaosOptions::CorruptTarget::kJournal) {
        // Offset 26 lands inside the FIRST frame's payload, so the
        // damage is before the journal tail and must be detected (use
        // kill-after >= 2 so the frame is not the last one).
        FlipByte(journal_path, 26);
      }
      std::printf("chaos: killed after step %llu\n",
                  static_cast<unsigned long long>(seq));
      std::fflush(stdout);
      std::_Exit(137);
    }

    if (options_.snapshot_every > 0 &&
        seq % options_.snapshot_every == 0 && platform_.Now() < until) {
      auto written = write_snapshot(seq);
      if (!written.ok()) return written.error();
    }

    if (options_.stop_after_steps > 0 &&
        stats.steps >= options_.stop_after_steps &&
        platform_.Now() < until) {
      stats.outcome = RunOutcome::kStopped;
      break;
    }
  }

  // -- shutdown -------------------------------------------------------------
  journal.Flush();
  if (stats.outcome != RunOutcome::kStopped) {
    // Completed or interrupted: leave a snapshot at the boundary so a
    // later resume (or a post-interrupt restart) fast-forwards instead
    // of replaying the whole journal. kStopped emulates a crash, so it
    // deliberately leaves only the journal.
    auto written = write_snapshot(seq);
    if (!written.ok()) return written.error();
  }

  stats.snapshot_seq = last_snapshot_seq;
  stats.journal_entries = journal.appended();
  if (stats.outcome == RunOutcome::kInterrupted) {
    core::LogLine(core::LogLevel::kWarn,
                  "durable: interrupted, state flushed",
                  {{"seq", seq}, {"snapshot_seq", last_snapshot_seq}});
  }
  return stats;
}

}  // namespace sisyphus::durable
