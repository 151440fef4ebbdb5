// Panel construction: from raw speed tests to the ⟨unit⟩ x ⟨period⟩ median
// RTT matrix that synthetic control consumes.
//
// This mirrors the paper's pipeline: aggregate user tests per ⟨ASN, city⟩
// per time bucket to medians (robust to last-mile spikes), interpolate
// sparse buckets, and assemble a SyntheticControlInput for each treated
// unit against a donor pool that never crosses the IXP. Records are folded
// into their cells as the campaign ingests them (IncrementalPanelBuilder,
// fed by StreamingCampaign); no pass over a stored archive is needed.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "causal/synthetic_control.h"
#include "core/result.h"
#include "core/sim_time.h"

namespace sisyphus::measure {

struct PanelOptions {
  core::SimTime origin{0};
  core::SimTime bucket = core::SimTime::FromHours(6);
  std::size_t periods = 224;  ///< 56 days at 6h buckets
  /// Units with more than this fraction of empty buckets are dropped.
  double max_missing_fraction = 0.25;
};

/// A unit's bucketed median-RTT series.
struct UnitSeries {
  std::string unit;
  std::vector<double> values;       ///< interpolated, length = periods
  double missing_fraction = 0.0;
  /// Per-period missingness mask (true = the bucket had data). Values at
  /// unobserved periods are interpolation artifacts, and missing-aware
  /// estimators must not treat them as measurements.
  std::vector<bool> observed;
};

/// A unit excluded from the panel, with enough context to tell "never
/// measured" apart from "measured but dropped as too sparse".
struct DroppedUnit {
  std::string unit;
  double missing_fraction = 0.0;
};

/// The assembled panel.
struct Panel {
  PanelOptions options;
  std::vector<UnitSeries> units;
  /// Units dropped for sparsity (missing_fraction > max_missing_fraction).
  std::vector<DroppedUnit> dropped;

  /// Index of a unit by key. kNotFound when absent; for a unit dropped for
  /// sparsity the message names the max_missing_fraction cause.
  core::Result<std::size_t> Find(const std::string& unit) const;
};

/// Maintains per-cell running aggregates as records arrive, so a panel
/// is assembled incrementally from ingest batches (StreamingCampaign)
/// instead of a full pass over an in-memory archive. Every cell aggregate
/// (the median and the lineage id set) is a pure function of the cell's
/// value multiset, never of arrival order, so the panel is byte-identical
/// at any thread count and across kill/resume (DESIGN.md §10).
///
/// Shard discipline mirrors ShardedMeasurementStore: a unit's cells live
/// in exactly one shard, distinct shards may be fed concurrently, and a
/// single shard must only be touched by one thread at a time. The one
/// lineage write a shard task makes is Observe's out_of_panel verdict,
/// in place at the record's id; the unit and cell writes come from the
/// serial Finalize.
class IncrementalPanelBuilder {
 public:
  /// Snapshot of obs::Lineage::enabled() is taken here: enable lineage
  /// before constructing the builder.
  explicit IncrementalPanelBuilder(PanelOptions options,
                                   std::size_t shard_count = 1);
  // Each shard caches pointers into its own unit map, which a copy would
  // leave pointing into the original; a move keeps the map's nodes.
  IncrementalPanelBuilder(const IncrementalPanelBuilder&) = delete;
  IncrementalPanelBuilder& operator=(const IncrementalPanelBuilder&) = delete;
  IncrementalPanelBuilder(IncrementalPanelBuilder&&) = default;
  IncrementalPanelBuilder& operator=(IncrementalPanelBuilder&&) = default;

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t ShardOf(std::string_view unit) const;

  /// Folds one archived record copy into its unit's cell. Records outside
  /// [origin, origin + periods*bucket) terminate as out-of-panel in the
  /// lineage ledger — but still create the unit entry, so a unit whose
  /// records all miss the horizon finalizes as "empty".
  /// Precondition: shard == ShardOf(unit).
  void Observe(std::size_t shard, std::string_view unit, core::SimTime time,
               double rtt_ms, std::uint64_t id);

  /// Record copies folded in so far (in-horizon only), across shards.
  std::uint64_t observed() const;

  /// Visits every unit's running in-horizon RTT aggregate — (unit name,
  /// record count, compensated sum) — in ascending unit-name order across
  /// shards. The sum is maintained incrementally in arrival order with
  /// Neumaier compensation, so it is bit-identical across thread counts
  /// and kill/resume (per-unit arrival order is deterministic: one unit
  /// lives in one shard, shards replay batches in step order, and a resume
  /// rebuilds the aggregates by re-ingesting the journaled batches in that
  /// order). This is the timeline sampler's read API.
  void VisitRunningMeans(
      const std::function<void(std::string_view unit, std::uint64_t count,
                               double sum)>& visit) const;

  /// Assembles the panel — units in ascending key order, empty and
  /// too-sparse units dropped (and listed in panel.dropped) — and writes
  /// the per-unit metrics and lineage entries (units_empty/dropped/kept,
  /// cells observed/masked, per-cell id sets in ascending period order).
  /// Serial; call once, after the last Observe.
  Panel Finalize() const;

 private:
  struct CellAccumulator {
    std::vector<double> values;       ///< arrival order (finalize sorts)
    std::vector<std::uint64_t> ids;   ///< only while lineage is enabled
  };
  struct UnitCells {
    std::vector<CellAccumulator> cells;  ///< length = options.periods
    // Unit-wide running RTT aggregate in arrival order (Neumaier
    // compensated), for the timeline sampler. Kept incrementally —
    // recomputing from cell values would change summation order and break
    // kill/resume bit-identity.
    std::uint64_t running_count = 0;
    double running_sum = 0.0;
    double running_comp = 0.0;
  };
  struct Shard {
    std::map<std::string, UnitCells, std::less<>> units;
    std::uint64_t observed = 0;
    /// The last observed unit's map entry: a shard's records arrive in
    /// runs of one unit, so only a run's first record searches `units`.
    const std::string* last_unit = nullptr;
    UnitCells* last_cells = nullptr;
  };

  /// Every shard's units in ascending key order. Shards partition units,
  /// so the sorted concatenation of the per-shard maps holds each unit
  /// once, in global key order.
  std::vector<std::pair<std::string_view, const UnitCells*>> SortedUnits()
      const;

  PanelOptions options_;
  bool lineage_ = false;
  std::vector<Shard> shards_;
};

/// Assembles a synthetic-control input: `treated_unit`'s series versus the
/// given donor units (donors absent from the panel are skipped; their
/// names are reported in `skipped`). `pre_periods` = buckets before the
/// treatment time. The input carries the panel's missingness masks, so
/// mask-aware estimators (robust synthetic control) can ignore
/// interpolated entries.
core::Result<causal::SyntheticControlInput> MakeSyntheticControlInput(
    const Panel& panel, const std::string& treated_unit,
    const std::vector<std::string>& donor_units, core::SimTime treatment_time,
    std::vector<std::string>* skipped = nullptr);

}  // namespace sisyphus::measure
