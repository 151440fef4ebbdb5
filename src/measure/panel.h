// Panel construction: from raw speed tests to the ⟨unit⟩ x ⟨period⟩ median
// RTT matrix that synthetic control consumes.
//
// This mirrors the paper's pipeline: aggregate user tests per ⟨ASN, city⟩
// per time bucket to medians (robust to last-mile spikes), interpolate
// sparse buckets, and assemble a SyntheticControlInput for each treated
// unit against a donor pool that never crosses the IXP. The campaign's
// store holds the one copy of each archived record: when the campaign
// ends, StreamingCampaign::FinalizePanel counting-sorts one shard's
// copies at a time by unit and cell, and AddPanelUnit turns each unit's
// cells into a series.
#pragma once

#include <cstdint>
#include <span>
#include <string>
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

/// The cell of `time`: cell i covers [origin + i*bucket, origin +
/// (i+1)*bucket), and a time outside the panel's horizon is -1. Ingest
/// and finalize bucket with this one rule. Precondition: bucket > 0.
inline std::int64_t PanelCellOf(const PanelOptions& options,
                                core::SimTime time) {
  const std::int64_t from_origin = time.minutes() - options.origin.minutes();
  const std::int64_t cell =
      from_origin >= 0 ? from_origin / options.bucket.minutes() : -1;
  return cell < static_cast<std::int64_t>(options.periods) ? cell : -1;
}

/// Adds one unit to `panel` from its in-horizon copies, grouped by cell
/// in flat buffers: offsets holds periods + 1 entries, and cell t's RTTs
/// are values[offsets[t], offsets[t + 1]), which it permutes. With
/// `lineage` on, ids holds those copies' record ids at the same indices
/// (ids is unused with lineage off). Each cell with data is the median of
/// its value multiset (stats::QuantileInPlace), so no arrival order
/// reaches it. A unit with no such cell is empty (counted, listed
/// nowhere); one with more than max_missing_fraction of its cells empty
/// goes to panel.dropped; any other is interpolated into panel.units.
/// Writes the unit's measure.panel.* counters and, with lineage on, its
/// ledger entries (the cells' id sets in ascending period order). A
/// cell's ids are sorted in place unless they already are, as they are
/// when they sit in archive order and the records arrived in id order,
/// as a platform delivers them. Units may arrive in any order: the
/// caller sorts panel.units and panel.dropped by key. Serial.
void AddPanelUnit(const std::string& unit,
                  std::span<const std::size_t> offsets,
                  std::span<double> values, std::span<std::uint64_t> ids,
                  bool lineage, Panel& panel);

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
