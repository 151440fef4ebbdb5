// RunManifest: machine-readable provenance for one experiment run —
// seeds, config hashes, option key/values, per-phase timings, the final
// metric snapshot, and the lineage rollup — written as manifest.json next
// to metrics.json and trace.json (the `--obs-out <dir>` JSON artifacts).
//
// The manifest is the *non*-deterministic artifact (it carries wall-clock
// phase timings); metrics.json is the deterministic one. obscheck and the
// schema test validate both (schema sisyphus.run_manifest/1).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/result.h"
#include "obs/lineage.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sisyphus::obs {

/// One named phase of a run with wall-clock duration and (optionally) the
/// simulated time span it covered. sim_start/end < 0 = no sim span.
struct PhaseTiming {
  std::string name;
  double wall_ms = 0.0;
  std::int64_t sim_start_min = -1;
  std::int64_t sim_end_min = -1;
};

/// Checkpoint/journal provenance for a durable streaming run (DESIGN.md
/// §11). Serialized as the manifest's "durable" object when enabled;
/// obscheck validates the invariants (journal_high_water >= snapshot_seq).
struct DurableInfo {
  bool enabled = false;
  bool resumed = false;   ///< run restored from a snapshot + journal tail
  bool partial = false;   ///< interrupted (SIGINT/SIGTERM) before completion
  std::uint64_t snapshot_seq = 0;        ///< last snapshot's step number
  std::uint64_t journal_high_water = 0;  ///< last journaled step number
  std::uint64_t journal_entries = 0;     ///< frames appended this process
  std::uint64_t shed_records = 0;        ///< records shed on overload
};

/// Telemetry-timeline rollup (DESIGN.md §15). Serialized as the
/// manifest's "timeline" object when enabled; the full per-step record is
/// timeline.bin, this block is the at-a-glance trigger summary the
/// conditional-activation control plane (ROADMAP item 2) reads first.
struct TimelineInfo {
  bool enabled = false;
  std::uint64_t steps = 0;
  std::uint64_t first_step = 0;
  std::uint64_t last_step = 0;
  std::uint64_t series = 0;
  std::uint64_t samples = 0;
  std::uint64_t events = 0;
  std::uint64_t level_shift_events = 0;
  std::uint64_t churn_events = 0;
};

struct RunManifest {
  std::string tool;    ///< binary/experiment name, e.g. "table1_ixp_synth_control"
  std::string schema = "sisyphus.run_manifest/1";
  std::uint64_t seed = 0;
  /// FNV-1a fingerprints of the run's configuration (empty = not
  /// applicable); see core::Fnv1a64Hex.
  std::string scenario_hash;
  std::string fault_plan_hash;
  /// Flat key/value option dump (platform options, CLI flags...),
  /// serialized in insertion order.
  std::vector<std::pair<std::string, std::string>> options;
  std::vector<PhaseTiming> phases;
  DurableInfo durable;    ///< serialized only when durable.enabled
  TimelineInfo timeline;  ///< serialized only when timeline.enabled

  void AddOption(std::string key, std::string value) {
    options.emplace_back(std::move(key), std::move(value));
  }
  void AddPhase(std::string name, double wall_ms,
                std::int64_t sim_start_min = -1,
                std::int64_t sim_end_min = -1) {
    phases.push_back({std::move(name), wall_ms, sim_start_min, sim_end_min});
  }

  /// Manifest JSON including the registry's metric snapshot under
  /// "metrics" (so the manifest alone is a complete run record) and the
  /// ledger's rollup under "lineage": run count, emitted, and per-stage
  /// terminal totals (obscheck cross-checks these against audit.bin's run
  /// headers).
  std::string ToJson(const Registry& metrics, const Lineage& lineage) const;
};

/// RAII phase timer: measures wall time from construction to Stop() (or
/// destruction), appends a PhaseTiming to the manifest, and mirrors the
/// span into the tracer. Independent of Tracer::enabled() — manifests
/// always carry phase timings.
class ScopedPhase {
 public:
  ScopedPhase(RunManifest& manifest, std::string name);
  ~ScopedPhase();
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

  /// Attaches the simulated time span this phase covered.
  void SetSimSpan(core::SimTime start, core::SimTime end);

  /// Finishes the phase early (idempotent).
  void Stop();

 private:
  RunManifest& manifest_;
  std::string name_;
  std::chrono::steady_clock::time_point start_;
  std::int64_t sim_start_min_ = -1;
  std::int64_t sim_end_min_ = -1;
  bool stopped_ = false;
};

/// Writes manifest.json (carrying `lineage`'s rollup block), metrics.json
/// and trace.json into `directory` (which must exist). The ledger itself
/// is serialized as audit.bin by audit::WriteAuditArtifact.
/// kInvalidArgument when a file cannot be opened.
core::Status WriteRunArtifacts(const std::string& directory,
                               const RunManifest& manifest,
                               const Registry& metrics, const Tracer& tracer,
                               const Lineage& lineage);

}  // namespace sisyphus::obs
