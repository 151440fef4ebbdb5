#include "measure/panel.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <utility>

#include "core/error.h"
#include "core/logging.h"
#include "obs/lineage.h"
#include "obs/metrics.h"
#include "stats/descriptive.h"
#include "stats/timeseries.h"

namespace sisyphus::measure {

using core::Error;
using core::ErrorCode;
using core::Result;

Result<std::size_t> Panel::Find(const std::string& unit) const {
  for (std::size_t i = 0; i < units.size(); ++i) {
    if (units[i].unit == unit) return i;
  }
  for (const DroppedUnit& drop : dropped) {
    if (drop.unit == unit) {
      char detail[96];
      std::snprintf(detail, sizeof(detail),
                    "': dropped for sparsity (missing_fraction %.2f > "
                    "max_missing_fraction %.2f)",
                    drop.missing_fraction, options.max_missing_fraction);
      return Error(ErrorCode::kNotFound, "Panel: unit '" + unit + detail);
    }
  }
  return Error(ErrorCode::kNotFound, "Panel: no unit '" + unit + "'");
}

void AddPanelUnit(const std::string& unit,
                  std::span<const std::size_t> offsets,
                  std::span<double> values, std::span<std::uint64_t> ids,
                  bool lineage, Panel& panel) {
  const std::size_t periods = offsets.size() - 1;
  const auto cell = [&offsets](auto buffer, std::size_t t) {
    return buffer.subspan(offsets[t], offsets[t + 1] - offsets[t]);
  };
  std::vector<std::optional<double>> buckets(periods);
  for (std::size_t t = 0; t < periods; ++t) {
    if (offsets[t] < offsets[t + 1]) {
      buckets[t] = stats::QuantileInPlace(cell(values, t), 0.5);
    }
  }
  if (stats::AllMissing(buckets)) {
    SISYPHUS_METRIC_COUNT("measure.panel.units_empty", 1);
    if (lineage) obs::Lineage::Global().PanelUnitEmpty(unit);
    (SISYPHUS_LOG(kDebug) << "panel unit skipped: no observed buckets")
        .With("unit", unit);
    return;
  }
  const double missing = stats::MissingFraction(buckets);
  std::size_t observed_cells = 0;
  for (const auto& bucket : buckets) {
    if (bucket.has_value()) ++observed_cells;
  }
  SISYPHUS_METRIC_COUNT("measure.panel.cells_observed", observed_cells);
  SISYPHUS_METRIC_COUNT("measure.panel.cells_masked",
                        buckets.size() - observed_cells);
  const double max_missing = panel.options.max_missing_fraction;
  if (missing > max_missing) {
    SISYPHUS_METRIC_COUNT("measure.panel.units_dropped", 1);
    if (lineage) {
      // No cell is read past here: the unit's ids sort as one set.
      const std::span<std::uint64_t> in_range = ids.subspan(
          offsets.front(), offsets.back() - offsets.front());
      std::sort(in_range.begin(), in_range.end());
      obs::Lineage::Global().PanelUnitDropped(
          unit, missing, observed_cells, buckets.size() - observed_cells,
          obs::IdRunSet::FromSorted(in_range));
    }
    (SISYPHUS_LOG(kDebug) << "panel unit dropped for sparsity")
        .With("unit", unit)
        .With("missing_fraction", missing)
        .With("max_missing_fraction", max_missing);
    panel.dropped.push_back({unit, missing});
    return;
  }
  SISYPHUS_METRIC_COUNT("measure.panel.units_kept", 1);
  UnitSeries out;
  out.unit = unit;
  out.values = stats::InterpolateMissing(buckets);
  out.missing_fraction = missing;
  out.observed.reserve(buckets.size());
  for (const auto& bucket : buckets) {
    out.observed.push_back(bucket.has_value());
  }
  if (lineage) {
    obs::Lineage::Global().PanelUnitKept(
        unit, missing, observed_cells, buckets.size() - observed_cells);
    for (std::size_t t = 0; t < periods; ++t) {
      const std::span<std::uint64_t> cell_ids = cell(ids, t);
      if (cell_ids.empty()) continue;
      if (!std::is_sorted(cell_ids.begin(), cell_ids.end())) {
        std::sort(cell_ids.begin(), cell_ids.end());
      }
      obs::Lineage::Global().PanelCell(unit, static_cast<std::uint32_t>(t),
                                       obs::IdRunSet::FromSorted(cell_ids));
    }
  }
  panel.units.push_back(std::move(out));
}

Result<causal::SyntheticControlInput> MakeSyntheticControlInput(
    const Panel& panel, const std::string& treated_unit,
    const std::vector<std::string>& donor_units, core::SimTime treatment_time,
    std::vector<std::string>* skipped) {
  auto treated_index = panel.Find(treated_unit);
  if (!treated_index.ok()) return treated_index.error();

  std::vector<stats::Vector> donor_columns;
  std::vector<stats::Vector> donor_masks;
  std::vector<std::string> donor_names;
  for (const std::string& donor : donor_units) {
    if (donor == treated_unit) continue;
    auto index = panel.Find(donor);
    if (!index.ok()) {
      SISYPHUS_METRIC_COUNT("measure.panel.donors_skipped", 1);
      (SISYPHUS_LOG(kDebug) << "donor skipped")
          .With("donor", donor)
          .With("reason", index.error().ToText());
      if (skipped != nullptr) skipped->push_back(donor);
      continue;
    }
    const UnitSeries& series = panel.units[index.value()];
    donor_columns.push_back(series.values);
    stats::Vector mask(series.values.size(), 1.0);
    for (std::size_t t = 0; t < series.observed.size(); ++t) {
      mask[t] = series.observed[t] ? 1.0 : 0.0;
    }
    donor_masks.push_back(std::move(mask));
    donor_names.push_back(donor);
  }
  if (donor_columns.empty()) {
    return Error(ErrorCode::kInvalidArgument,
                 "MakeSyntheticControlInput: no usable donors");
  }

  const auto minutes_from_origin =
      treatment_time.minutes() - panel.options.origin.minutes();
  if (minutes_from_origin <= 0) {
    return Error(ErrorCode::kInvalidArgument,
                 "MakeSyntheticControlInput: treatment before panel origin");
  }
  const std::size_t pre_periods = static_cast<std::size_t>(
      minutes_from_origin / panel.options.bucket.minutes());

  const UnitSeries& treated = panel.units[treated_index.value()];
  causal::SyntheticControlInput input;
  input.treated_name = treated_unit;
  input.treated = treated.values;
  input.treated_observed.assign(treated.values.size(), 1.0);
  for (std::size_t t = 0; t < treated.observed.size(); ++t) {
    input.treated_observed[t] = treated.observed[t] ? 1.0 : 0.0;
  }
  input.donors = stats::Matrix::FromColumns(donor_columns);
  input.donor_observed = stats::Matrix::FromColumns(donor_masks);
  input.donor_names = std::move(donor_names);
  input.pre_periods = pre_periods;
  if (auto s = input.Validate(); !s.ok()) return s.error();
  return input;
}

}  // namespace sisyphus::measure
