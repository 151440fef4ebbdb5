#include "obs/manifest.h"

#include <fstream>

#include "core/error.h"
#include "core/json.h"

namespace sisyphus::obs {

using core::Error;
using core::ErrorCode;

std::string RunManifest::ToJson(const Registry& metrics,
                                const Lineage& lineage) const {
  core::json::Writer w(/*indent=*/2);
  w.BeginObject();
  w.Key("schema");
  w.String(schema);
  w.Key("tool");
  w.String(tool);
  w.Key("seed");
  w.UInt(seed);
  w.Key("scenario_hash");
  w.String(scenario_hash);
  w.Key("fault_plan_hash");
  w.String(fault_plan_hash);
  w.Key("options");
  w.BeginObject();
  for (const auto& [key, value] : options) {
    w.Key(key);
    w.String(value);
  }
  w.EndObject();
  w.Key("phases");
  w.BeginArray();
  for (const PhaseTiming& phase : phases) {
    w.BeginObject();
    w.Key("name");
    w.String(phase.name);
    w.Key("wall_ms");
    w.Double(phase.wall_ms);
    if (phase.sim_start_min >= 0) {
      w.Key("sim_start_min");
      w.Int(phase.sim_start_min);
      w.Key("sim_end_min");
      w.Int(phase.sim_end_min);
    }
    w.EndObject();
  }
  w.EndArray();
  // A rollup of headline counters so a human skimming the manifest sees
  // run activity at a glance; the full per-name breakdown is metrics.json.
  w.Key("metrics");
  w.BeginObject();
  w.Key("schema");
  w.String("sisyphus.metrics/1");
  for (const char* name :
       {"measure.probes.attempted", "measure.store.quarantined",
        "measure.panel.cells_masked", "causal.placebo.runs"}) {
    w.Key(name);
    w.UInt(metrics.CounterValue(name));
  }
  w.EndObject();
  // Durable-run provenance: where the last snapshot and journal frame
  // stand, whether this process resumed or was interrupted. Deterministic
  // for a given (campaign, snapshot cadence, kill point), but kept in the
  // manifest because a resumed run legitimately differs from a clean one.
  if (durable.enabled) {
    w.Key("durable");
    w.BeginObject();
    w.Key("resumed");
    w.Bool(durable.resumed);
    w.Key("partial");
    w.Bool(durable.partial);
    w.Key("snapshot_seq");
    w.UInt(durable.snapshot_seq);
    w.Key("journal_high_water");
    w.UInt(durable.journal_high_water);
    w.Key("journal_entries");
    w.UInt(durable.journal_entries);
    w.Key("shed_records");
    w.UInt(durable.shed_records);
    w.EndObject();
  }
  // Timeline rollup: how many steps/series/samples timeline.bin carries
  // and how many detection events fired — the trigger summary consumers
  // check before opening the binary artifact.
  if (timeline.enabled) {
    w.Key("timeline");
    w.BeginObject();
    w.Key("steps");
    w.UInt(timeline.steps);
    w.Key("first_step");
    w.UInt(timeline.first_step);
    w.Key("last_step");
    w.UInt(timeline.last_step);
    w.Key("series");
    w.UInt(timeline.series);
    w.Key("samples");
    w.UInt(timeline.samples);
    w.Key("events");
    w.UInt(timeline.events);
    w.Key("level_shift_events");
    w.UInt(timeline.level_shift_events);
    w.Key("churn_events");
    w.UInt(timeline.churn_events);
    w.EndObject();
  }
  // Lineage rollup: the totals obscheck cross-checks against the summed
  // run headers of audit.bin, the ledger's one serialized form.
  const LineageWaterfall totals = lineage.Totals();
  w.Key("lineage");
  w.BeginObject();
  w.Key("runs");
  w.UInt(lineage.run_count());
  w.Key("emitted");
  w.UInt(totals.emitted);
  w.Key("terminal");
  w.BeginObject();
  for (std::size_t s = 0; s < kLineageStageCount; ++s) {
    w.Key(ToString(static_cast<LineageStage>(s)));
    w.UInt(totals.terminal[s]);
  }
  w.EndObject();
  w.EndObject();
  // ThreadPool behavior stats are wall-clock and therefore live here (the
  // chartered non-deterministic artifact), never in metrics.json.
  if (PoolStats::enabled()) {
    w.Key("pool");
    PoolStats::Global().WriteJson(w);
  }
  w.EndObject();
  return std::move(w).str();
}

ScopedPhase::ScopedPhase(RunManifest& manifest, std::string name)
    : manifest_(manifest),
      name_(std::move(name)),
      start_(std::chrono::steady_clock::now()) {}

void ScopedPhase::SetSimSpan(core::SimTime start, core::SimTime end) {
  sim_start_min_ = start.minutes();
  sim_end_min_ = end.minutes();
}

void ScopedPhase::Stop() {
  if (stopped_) return;
  stopped_ = true;
  const auto end = std::chrono::steady_clock::now();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(end - start_).count();
  manifest_.AddPhase(name_, wall_ms, sim_start_min_, sim_end_min_);
  Tracer::Global().RecordWallSpan(name_, "phase", start_, end);
  if (sim_start_min_ >= 0) {
    Tracer::Global().RecordSimSpan(name_, "phase",
                                   core::SimTime(sim_start_min_),
                                   core::SimTime(sim_end_min_));
  }
}

ScopedPhase::~ScopedPhase() { Stop(); }

namespace {

core::Status WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Error(ErrorCode::kInvalidArgument,
                 "WriteRunArtifacts: cannot open '" + path + "'");
  }
  out << text << '\n';
  if (!out.good()) {
    return Error(ErrorCode::kInvalidArgument,
                 "WriteRunArtifacts: short write to '" + path + "'");
  }
  return core::Status::Ok();
}

}  // namespace

core::Status WriteRunArtifacts(const std::string& directory,
                               const RunManifest& manifest,
                               const Registry& metrics, const Tracer& tracer,
                               const Lineage& lineage) {
  if (auto s = WriteFile(directory + "/manifest.json",
                         manifest.ToJson(metrics, lineage));
      !s.ok()) {
    return s;
  }
  if (auto s = WriteFile(directory + "/metrics.json",
                         metrics.SnapshotJson());
      !s.ok()) {
    return s;
  }
  return WriteFile(directory + "/trace.json",
                   tracer.ToChromeTraceJson(/*indent=*/0));
}

}  // namespace sisyphus::obs
