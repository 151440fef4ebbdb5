// obscheck — schema validator for the --obs-out artifact set.
//
//   obscheck <dir>            validates <dir>/{manifest,metrics,trace}.json
//                             plus the lineage artifact audit.bin and the
//                             telemetry timeline timeline.bin
//   obscheck --manifest FILE  validates a single artifact by role
//   obscheck --metrics FILE
//   obscheck --trace FILE
//   obscheck --audit FILE
//   obscheck --timeline FILE
//
// Checks that each file parses as JSON (core::json::Parse, no third-party
// dependency) and conforms to its schema: sisyphus.run_manifest/1 for the
// manifest (tool, seed, options, phases, headline metric rollup, optional
// thread-pool stats), sisyphus.metrics/1 for the metric snapshot
// (counters / gauges / histograms with consistent bucket shapes), and
// Chrome trace format for trace.json. The lineage ledger's one artifact,
// audit.bin (sisyphus.audit/1, DESIGN.md §12), is opened with the mmap
// reader, every section checksum is verified, each run's terminal stages
// must partition its emitted records (deep reconciliation against
// metrics.json lives in lineageq --check), and the run headers' sums are
// cross-checked against manifest.json's "lineage" block. The telemetry
// timeline (sisyphus.timeline/1, timeline.bin, DESIGN.md §15) is fully
// re-parsed — section checksums, monotone event steps, series density,
// event/series cross-references all live in the reader — and its
// step/series/event counts are cross-checked against manifest.json's
// "timeline" block. Exit 0 = all good; 1 = any violation (each printed
// with its JSON path). CI runs this after the table1 --obs-out smoke run,
// and a tier-1 ctest runs it against a real campaign's artifacts.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "artifact_io.h"
#include "audit/reader.h"
#include "core/json.h"
#include "obs/timeline.h"

namespace {

using sisyphus::core::json::Value;

int g_errors = 0;

void Fail(const std::string& where, const std::string& what) {
  std::printf("FAIL %s: %s\n", where.c_str(), what.c_str());
  ++g_errors;
}

/// Fetches `key` from `parent` (path `where`), requiring `kind`; nullptr
/// (and one recorded failure) when missing or mistyped.
const Value* Require(const Value& parent, const std::string& where,
                     const std::string& key, Value::Kind kind) {
  const Value* found = parent.Find(key);
  if (found == nullptr) {
    Fail(where + "." + key, "missing");
    return nullptr;
  }
  if (found->kind != kind) {
    Fail(where + "." + key, "wrong type");
    return nullptr;
  }
  return found;
}

void CheckMetricsObject(const Value& metrics, const std::string& where) {
  if (const Value* schema =
          Require(metrics, where, "schema", Value::Kind::kString);
      schema != nullptr && schema->string != "sisyphus.metrics/1") {
    Fail(where + ".schema", "expected sisyphus.metrics/1, got '" +
                                schema->string + "'");
  }
}

void CheckManifest(const Value& root) {
  const std::string where = "manifest";
  if (!root.is_object()) {
    Fail(where, "root is not an object");
    return;
  }
  if (const Value* schema =
          Require(root, where, "schema", Value::Kind::kString);
      schema != nullptr && schema->string != "sisyphus.run_manifest/1") {
    Fail(where + ".schema", "expected sisyphus.run_manifest/1, got '" +
                                schema->string + "'");
  }
  if (const Value* tool = Require(root, where, "tool", Value::Kind::kString);
      tool != nullptr && tool->string.empty()) {
    Fail(where + ".tool", "empty");
  }
  (void)Require(root, where, "seed", Value::Kind::kNumber);
  (void)Require(root, where, "options", Value::Kind::kObject);
  if (const Value* phases =
          Require(root, where, "phases", Value::Kind::kArray);
      phases != nullptr) {
    for (std::size_t i = 0; i < phases->array.size(); ++i) {
      const std::string phase_where =
          where + ".phases[" + std::to_string(i) + "]";
      const Value& phase = phases->array[i];
      if (!phase.is_object()) {
        Fail(phase_where, "not an object");
        continue;
      }
      (void)Require(phase, phase_where, "name", Value::Kind::kString);
      (void)Require(phase, phase_where, "wall_ms", Value::Kind::kNumber);
    }
  }
  if (const Value* metrics =
          Require(root, where, "metrics", Value::Kind::kObject);
      metrics != nullptr) {
    CheckMetricsObject(*metrics, where + ".metrics");
    // The headline counts the acceptance criteria name explicitly.
    for (const char* key :
         {"measure.probes.attempted", "measure.store.quarantined",
          "measure.panel.cells_masked", "causal.placebo.runs"}) {
      (void)Require(*metrics, where + ".metrics", key,
                    Value::Kind::kNumber);
    }
  }
  // Thread-pool stats are optional (absent from pre-lineage manifests and
  // compiled-out builds) but must be well-formed when present.
  if (const Value* pool = root.Find("pool"); pool != nullptr) {
    const std::string pool_where = where + ".pool";
    if (!pool->is_object()) {
      Fail(pool_where, "not an object");
    } else {
      (void)Require(*pool, pool_where, "regions", Value::Kind::kNumber);
      (void)Require(*pool, pool_where, "tasks", Value::Kind::kNumber);
      (void)Require(*pool, pool_where, "max_lanes_engaged",
                    Value::Kind::kNumber);
      for (const char* accum : {"queue_wait_us", "task_us", "region_span_us",
                                "lane_utilization"}) {
        const Value* stats =
            Require(*pool, pool_where, accum, Value::Kind::kObject);
        if (stats == nullptr) continue;
        for (const char* key : {"count", "mean", "min", "max"}) {
          (void)Require(*stats, pool_where + "." + accum, key,
                        Value::Kind::kNumber);
        }
      }
    }
  }

  // Durable checkpoint/journal metadata is optional (only campaigns run
  // under the DurableStreamingService write it), but when present it must
  // be internally consistent: the journal high-water mark can never trail
  // the snapshot it is supposed to cover (the service flushes the journal
  // before every snapshot write).
  if (const Value* durable = root.Find("durable"); durable != nullptr) {
    const std::string durable_where = where + ".durable";
    if (!durable->is_object()) {
      Fail(durable_where, "not an object");
    } else {
      for (const char* key : {"resumed", "partial"}) {
        (void)Require(*durable, durable_where, key, Value::Kind::kBool);
      }
      const Value* snapshot_seq = Require(*durable, durable_where,
                                          "snapshot_seq", Value::Kind::kNumber);
      const Value* high_water = Require(
          *durable, durable_where, "journal_high_water", Value::Kind::kNumber);
      (void)Require(*durable, durable_where, "journal_entries",
                    Value::Kind::kNumber);
      (void)Require(*durable, durable_where, "shed_records",
                    Value::Kind::kNumber);
      if (snapshot_seq != nullptr && high_water != nullptr &&
          high_water->number < snapshot_seq->number) {
        Fail(durable_where,
             "journal_high_water " +
                 std::to_string(
                     static_cast<std::uint64_t>(high_water->number)) +
                 " behind snapshot_seq " +
                 std::to_string(
                     static_cast<std::uint64_t>(snapshot_seq->number)));
      }
    }
  }
}

void CheckMetrics(const Value& root) {
  const std::string where = "metrics";
  if (!root.is_object()) {
    Fail(where, "root is not an object");
    return;
  }
  CheckMetricsObject(root, where);
  const Value* counters =
      Require(root, where, "counters", Value::Kind::kObject);
  if (counters != nullptr) {
    if (counters->object.empty()) {
      // A snapshot with zero counters means the registry was never enabled
      // (or the write was truncated mid-document) — validating the empty
      // shell would pass trivially and defeat the smoke check.
      Fail(where + ".counters",
           "empty — registry disabled in the producing run, or truncated "
           "artifact");
    }
    for (const auto& [name, value] : counters->object) {
      if (!value.is_number()) Fail(where + ".counters." + name, "not a number");
    }
  }
  (void)Require(root, where, "gauges", Value::Kind::kObject);
  const Value* histograms =
      Require(root, where, "histograms", Value::Kind::kObject);
  if (histograms != nullptr) {
    for (const auto& [name, histogram] : histograms->object) {
      const std::string h_where = where + ".histograms." + name;
      if (!histogram.is_object()) {
        Fail(h_where, "not an object");
        continue;
      }
      (void)Require(histogram, h_where, "count", Value::Kind::kNumber);
      (void)Require(histogram, h_where, "sum", Value::Kind::kNumber);
      const Value* bounds =
          Require(histogram, h_where, "upper_bounds", Value::Kind::kArray);
      const Value* buckets =
          Require(histogram, h_where, "bucket_counts", Value::Kind::kArray);
      if (bounds != nullptr && buckets != nullptr &&
          buckets->array.size() != bounds->array.size() + 1) {
        Fail(h_where, "bucket_counts must have upper_bounds + 1 entries");
      }
    }
  }
}

void CheckTrace(const Value& root) {
  const std::string where = "trace";
  if (!root.is_object()) {
    Fail(where, "root is not an object");
    return;
  }
  const Value* events =
      Require(root, where, "traceEvents", Value::Kind::kArray);
  if (events == nullptr) return;
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const std::string event_where =
        where + ".traceEvents[" + std::to_string(i) + "]";
    const Value& event = events->array[i];
    if (!event.is_object()) {
      Fail(event_where, "not an object");
      continue;
    }
    (void)Require(event, event_where, "name", Value::Kind::kString);
    if (const Value* ph =
            Require(event, event_where, "ph", Value::Kind::kString);
        ph != nullptr && ph->string != "X") {
      Fail(event_where + ".ph", "expected complete event 'X'");
    }
    (void)Require(event, event_where, "ts", Value::Kind::kNumber);
    (void)Require(event, event_where, "dur", Value::Kind::kNumber);
    (void)Require(event, event_where, "tid", Value::Kind::kNumber);
  }
}

/// The manifest's summary block for one binary artifact ("lineage" for
/// audit.bin, "timeline" for timeline.bin); nullptr (and one recorded
/// failure) when the manifest carries none.
const Value* SummaryBlock(const Value& manifest_root, const std::string& key,
                          const std::string& artifact) {
  const Value* block = manifest_root.Find(key);
  if (block == nullptr || !block->is_object()) {
    Fail("manifest." + key, "missing — manifest written without a " + key +
                                " summary, or from a different run than " +
                                artifact);
    return nullptr;
  }
  return block;
}

/// One count of a manifest summary block (path `where`) against the
/// artifact's own count.
void CrossCheck(const Value& block, const std::string& where,
                const std::string& key, std::uint64_t actual,
                const std::string& artifact) {
  const Value* json = Require(block, where, key, Value::Kind::kNumber);
  if (json != nullptr && static_cast<std::uint64_t>(json->number) != actual) {
    Fail(where + "." + key,
         "manifest says " +
             std::to_string(static_cast<std::uint64_t>(json->number)) + ", " +
             artifact + " says " + std::to_string(actual));
  }
}

/// Validates the lineage artifact: structural integrity (every section
/// checksum), per-run conservation, and — given the manifest — agreement
/// of the summed run headers with its "lineage" block (run count,
/// emitted, every terminal stage), or manifest.json and audit.bin came
/// from different runs.
void CheckAuditFile(const std::string& path, const Value* manifest_root) {
  sisyphus::audit::AuditReader reader;
  if (const auto status = reader.Open(path); !status.ok()) {
    Fail(path, status.error().message());
    return;
  }
  std::printf("check %s\n", path.c_str());
  const std::string where = "audit";
  if (const auto status = reader.VerifyAll(); !status.ok()) {
    Fail(path, status.error().message());
    return;
  }
  if (reader.run_count() == 0) {
    Fail(where + ".runs",
         "no runs recorded — artifact truncated, or the producing binary "
         "ran with lineage disabled");
    return;
  }
  sisyphus::obs::LineageWaterfall sums;
  for (std::size_t i = 0; i < reader.run_count(); ++i) {
    const sisyphus::audit::RunSummary& run = reader.run(i);
    const std::string run_where = where + ".runs[" + std::to_string(i) + "]";
    std::uint64_t terminal_sum = 0;
    for (std::uint64_t count : run.waterfall.terminal) terminal_sum += count;
    if (terminal_sum != run.waterfall.emitted) {
      Fail(run_where + ".terminal", "stage counts do not sum to emitted");
    }
    if (run.record_rows != run.waterfall.emitted) {
      Fail(run_where + ".records", "row count != waterfall.emitted");
    }
    sums += run.waterfall;
  }
  if (manifest_root == nullptr) return;
  const Value* lineage = SummaryBlock(*manifest_root, "lineage", "audit.bin");
  if (lineage == nullptr) return;
  CrossCheck(*lineage, "manifest.lineage", "runs", reader.run_count(),
             "audit.bin");
  CrossCheck(*lineage, "manifest.lineage", "emitted", sums.emitted,
             "audit.bin");
  const Value* terminal = Require(*lineage, "manifest.lineage", "terminal",
                                  Value::Kind::kObject);
  if (terminal == nullptr) return;
  for (std::size_t s = 0; s < sisyphus::obs::kLineageStageCount; ++s) {
    CrossCheck(*terminal, "manifest.lineage.terminal",
               sisyphus::obs::ToString(
                   static_cast<sisyphus::obs::LineageStage>(s)),
               sums.terminal[s], "audit.bin");
  }
}

/// Validates the telemetry timeline: the reader's Parse() already
/// verifies framing (magic, version, every section checksum, table
/// closure), series density, event step-ordering, and event/series
/// cross-references, so structural failure is a single loud error here.
/// On top of that the summary block the manifest carries (written from
/// the in-memory Timeline before the artifact) must agree with the
/// artifact's own counts — a mismatch means manifest.json and
/// timeline.bin came from different runs.
void CheckTimelineFile(const std::string& path, const Value* manifest_root) {
  sisyphus::obs::TimelineReader reader;
  const sisyphus::core::Status opened = reader.OpenFile(path);
  if (!opened.ok()) {
    Fail(path, opened.error().message());
    return;
  }
  std::printf("check %s\n", path.c_str());
  const std::string where = "timeline";
  std::uint64_t samples = 0;
  for (const sisyphus::obs::TimelineSeriesView& series : reader.series()) {
    samples += series.sample_count;
  }
  std::uint64_t level_shift = 0;
  std::uint64_t churn = 0;
  for (std::size_t i = 0; i < reader.events().size(); ++i) {
    const sisyphus::obs::DetectionEvent& event = reader.events()[i];
    switch (reader.series()[event.series].detector) {
      case sisyphus::obs::DetectorKind::kLevelShift:
        ++level_shift;
        break;
      case sisyphus::obs::DetectorKind::kChurn:
        ++churn;
        break;
      case sisyphus::obs::DetectorKind::kNone:
        Fail(where + ".events[" + std::to_string(i) + "]",
             "event on a series with no detector");
        break;
    }
  }
  if (manifest_root == nullptr) return;
  const Value* timeline =
      SummaryBlock(*manifest_root, "timeline", "timeline.bin");
  if (timeline == nullptr) return;
  const auto cross_check = [&](const char* key, std::uint64_t artifact) {
    CrossCheck(*timeline, "manifest.timeline", key, artifact, "timeline.bin");
  };
  cross_check("steps", reader.steps());
  cross_check("first_step", reader.first_step());
  cross_check("last_step", reader.last_step());
  cross_check("series", reader.series().size());
  cross_check("samples", samples);
  cross_check("events", reader.events().size());
  cross_check("level_shift_events", level_shift);
  cross_check("churn_events", churn);
}

/// Loads one JSON artifact (shared loader, exact legacy diagnostics),
/// prints the "check <path>" breadcrumb, and runs its schema check.
/// `keep` (optional) receives the parsed root for cross-file checks.
bool LoadAndCheck(const std::string& path, void (*check)(const Value&),
                  Value* keep = nullptr) {
  Value local;
  Value& root = keep != nullptr ? *keep : local;
  if (!sisyphus::tools::LoadJsonArtifact(path, root, /*required=*/true,
                                         Fail)) {
    return false;
  }
  std::printf("check %s\n", path.c_str());
  check(root);
  return true;
}

void PrintUsage() {
  std::printf(
      "usage: obscheck <obs-out-dir>\n"
      "       obscheck --manifest FILE | --metrics FILE | --trace FILE |"
      " --audit FILE | --timeline FILE\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 1;
  }
  if (std::strcmp(argv[1], "--manifest") == 0 && argc > 2) {
    LoadAndCheck(argv[2], CheckManifest);
  } else if (std::strcmp(argv[1], "--metrics") == 0 && argc > 2) {
    LoadAndCheck(argv[2], CheckMetrics);
  } else if (std::strcmp(argv[1], "--trace") == 0 && argc > 2) {
    LoadAndCheck(argv[2], CheckTrace);
  } else if (std::strcmp(argv[1], "--audit") == 0 && argc > 2) {
    CheckAuditFile(argv[2], nullptr);
  } else if (std::strcmp(argv[1], "--timeline") == 0 && argc > 2) {
    CheckTimelineFile(argv[2], nullptr);
  } else if (argv[1][0] == '-') {
    PrintUsage();
    return 1;
  } else {
    const std::string dir = argv[1];
    Value manifest_root;
    const bool have_manifest =
        LoadAndCheck(dir + "/manifest.json", CheckManifest, &manifest_root);
    LoadAndCheck(dir + "/metrics.json", CheckMetrics);
    LoadAndCheck(dir + "/trace.json", CheckTrace);
    // The writer emits the full artifact set, so a missing audit.bin or
    // timeline.bin means the run died mid-write or the dir predates the
    // schema — either way "skip silently" would let a broken producer
    // pass CI. Use --audit / --timeline on a single file to validate
    // legacy dirs piecemeal.
    const Value* manifest = have_manifest ? &manifest_root : nullptr;
    CheckAuditFile(dir + "/" + sisyphus::audit::kAuditFileName, manifest);
    CheckTimelineFile(dir + "/timeline.bin", manifest);
  }
  if (g_errors > 0) {
    std::printf("obscheck: %d violation(s)\n", g_errors);
    return 1;
  }
  std::printf("obscheck: OK\n");
  return 0;
}
