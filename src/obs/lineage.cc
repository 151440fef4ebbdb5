#include "obs/lineage.h"

#include <algorithm>

#include "core/error.h"
#include "core/hash.h"
#include "core/parallel.h"

namespace sisyphus::obs {

namespace internal {
bool g_lineage_enabled = false;
}  // namespace internal

const char* ToString(LineageStage stage) {
  switch (stage) {
    case LineageStage::kEmitted: return "emitted";
    case LineageStage::kQuarantined: return "quarantined";
    case LineageStage::kArchived: return "archived";
    case LineageStage::kOutOfPanel: return "out_of_panel";
    case LineageStage::kDroppedSparsity: return "dropped_sparsity";
    case LineageStage::kAggregated: return "aggregated";
    case LineageStage::kDonor: return "donor";
    case LineageStage::kTreated: return "treated";
    case LineageStage::kShedOverload: return "shed_overload";
  }
  return "unknown";
}

std::string LineageIntentName(std::uint8_t code) {
  if (code < kLineageIntentNames.size()) return kLineageIntentNames[code];
  return "intent" + std::to_string(code);
}

IdRunSet IdRunSet::FromSorted(std::span<const std::uint64_t> sorted_ids) {
  Encoder encoder;
  for (std::uint64_t id : sorted_ids) encoder.Append(id);
  return FromEncoded(encoder.Finish());
}

IdRunSet IdRunSet::FromEncoded(std::vector<std::uint64_t> encoded) {
  IdRunSet out;
  out.encoded_ = std::move(encoded);
  for (std::size_t i = 0; i + 1 < out.encoded_.size(); i += 2) {
    out.size_ += out.encoded_[i + 1];
  }
  // Digest over the encoding bytes: equal sets hash equal; deterministic
  // on a fixed platform (byte order), which is all the artifact promises.
  out.digest_ = core::Fnv1a64(std::string_view(
      reinterpret_cast<const char*>(out.encoded_.data()),
      out.encoded_.size() * sizeof(std::uint64_t)));
  return out;
}

std::vector<std::uint64_t> IdRunSet::Expand() const {
  std::vector<std::uint64_t> out;
  ForEachRun(~std::uint64_t{0}, [&](std::uint64_t first, std::uint64_t last) {
    for (std::uint64_t id = first; id <= last; ++id) out.push_back(id);
  });
  return out;
}

Lineage& Lineage::Global() {
  static Lineage lineage;
  return lineage;
}

void Lineage::Enable(bool on) { internal::g_lineage_enabled = on; }

void Lineage::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  runs_.clear();
}

Lineage::RunLedger& Lineage::CurrentRun() {
  if (runs_.empty()) runs_.emplace_back();
  return runs_.back();
}

Lineage::RecordEntry& Lineage::EntryFor(RunLedger& run, std::uint64_t id) {
  if (run.records.size() < id) run.records.resize(id);
  return run.records[id - 1];
}

namespace {

void Upgrade(Lineage::RecordEntry& entry, LineageStage stage) {
  if (entry.stage < stage) entry.stage = stage;
}

/// Raises every id of `ids` to at least `stage`, growing the column to
/// cover the set (id 0 is ignored).
void UpgradeAll(std::vector<Lineage::RecordEntry>& records,
                const IdRunSet& ids, LineageStage stage) {
  ids.ForEachRun(~std::uint64_t{0}, [&](std::uint64_t first,
                                        std::uint64_t last) {
    if (records.size() < last) records.resize(last);
    for (std::uint64_t id = first; id <= last; ++id) {
      Upgrade(records[id - 1], stage);
    }
  });
}

}  // namespace

template <typename Fn>
void Lineage::WriteVerdict(std::uint64_t id, Fn&& write) {
  if (!enabled() || id == 0) return;
  if (core::InParallelTask()) {
    // A pool task: ReserveRecords sized the column before the region and
    // tasks own disjoint ids, so the entry is written without the lock.
    // Growing the column here would move it under the other tasks.
    SISYPHUS_REQUIRE(!runs_.empty() && id <= runs_.back().records.size(),
                     "Lineage: in-task verdict for record id " +
                         std::to_string(id) +
                         " outside the column reserved before the region");
    write(runs_.back().records[id - 1]);
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  write(EntryFor(CurrentRun(), id));
}

void Lineage::ReserveRecords(std::uint64_t max_id) {
  if (!enabled() || max_id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  RunLedger& run = CurrentRun();
  if (run.records.size() < max_id) run.records.resize(max_id);
}

void Lineage::RecordEmitted(const LineageRecordInfo& info) {
  WriteVerdict(info.id, [&](RecordEntry& entry) {
    entry.vantage = info.vantage;
    entry.intent = info.intent;
    entry.attempts = info.attempts;
    entry.fault_mask = info.fault_mask;
    entry.copies = info.copies;
    entry.seen = true;
    Upgrade(entry, info.archived ? LineageStage::kArchived
                                 : LineageStage::kQuarantined);
  });
}

void Lineage::RecordShed(const LineageRecordInfo& info) {
  WriteVerdict(info.id, [&](RecordEntry& entry) {
    entry.vantage = info.vantage;
    entry.intent = info.intent;
    entry.attempts = info.attempts;
    entry.fault_mask = info.fault_mask;
    entry.copies = 0;  // never delivered; conservation stays exact
    entry.seen = true;
    Upgrade(entry, LineageStage::kShedOverload);
  });
}

void Lineage::RecordOutOfPanel(std::uint64_t id) {
  WriteVerdict(id, [](RecordEntry& entry) {
    Upgrade(entry, LineageStage::kOutOfPanel);
  });
}

template <typename Fn>
void Lineage::WriteRun(const char* mutator, bool from_tasks, Fn&& write) {
  if (!enabled()) return;
  SISYPHUS_REQUIRE(from_tasks || !core::InParallelTask(),
                   std::string("Lineage::") + mutator +
                       " called inside a multi-lane pool task, where its "
                       "order in the ledger would follow lane scheduling");
  std::lock_guard<std::mutex> lock(mu_);
  write(CurrentRun());
}

void Lineage::BeginRun(std::string label) {
  WriteRun("BeginRun", false, [&](RunLedger& run) {
    if (run.writes != 0 || !run.records.empty()) runs_.emplace_back();
    runs_.back().label = std::move(label);
  });
}

void Lineage::RecordProbeFailure(std::string_view reason,
                                 std::uint64_t count) {
  WriteRun("RecordProbeFailure", false, [&](RunLedger& run) {
    ++run.writes;
    run.probe_failures[std::string(reason)] += count;
  });
}

void Lineage::PanelUnitEmpty(std::string_view /*unit*/) {
  WriteRun("PanelUnitEmpty", false, [](RunLedger& run) {
    ++run.writes;
    ++run.empty_units;
  });
}

void Lineage::PanelUnitKept(std::string_view unit, double missing_fraction,
                            std::uint64_t observed_cells,
                            std::uint64_t masked_cells) {
  WriteRun("PanelUnitKept", false, [&](RunLedger& run) {
    ++run.writes;
    UnitLedger& entry = run.units[std::string(unit)];
    entry.dropped = false;
    entry.missing_fraction = missing_fraction;
    entry.observed_cells = observed_cells;
    entry.masked_cells = masked_cells;
  });
}

void Lineage::PanelUnitDropped(std::string_view unit, double missing_fraction,
                               std::uint64_t observed_cells,
                               std::uint64_t masked_cells, IdRunSet ids) {
  WriteRun("PanelUnitDropped", false, [&](RunLedger& run) {
    ++run.writes;
    UnitLedger& entry = run.units[std::string(unit)];
    entry.dropped = true;
    entry.missing_fraction = missing_fraction;
    entry.observed_cells = observed_cells;
    entry.masked_cells = masked_cells;
    UpgradeAll(run.records, ids, LineageStage::kDroppedSparsity);
    entry.dropped_ids = std::move(ids);
  });
}

void Lineage::PanelCell(std::string_view unit, std::uint32_t period,
                        IdRunSet ids) {
  WriteRun("PanelCell", false, [&](RunLedger& run) {
    ++run.writes;
    UpgradeAll(run.records, ids, LineageStage::kAggregated);
    run.units[std::string(unit)].cells.push_back({period, std::move(ids)});
  });
}

void Lineage::MarkTreated(std::string_view unit) {
  WriteRun("MarkTreated", true, [&](RunLedger& run) {
    ++run.writes;
    const auto it = run.units.find(unit);
    if (it != run.units.end() && !it->second.dropped) {
      it->second.used_treated = true;
    }
  });
}

void Lineage::MarkDonor(std::string_view unit) {
  WriteRun("MarkDonor", true, [&](RunLedger& run) {
    ++run.writes;
    const auto it = run.units.find(unit);
    if (it != run.units.end() && !it->second.dropped) {
      it->second.used_donor = true;
    }
  });
}

void Lineage::AddEstimate(std::string label, std::string treated_unit,
                          std::vector<std::string> donor_units, double effect,
                          double p_value) {
  WriteRun("AddEstimate", false, [&](RunLedger& run) {
    ++run.writes;
    run.estimates.push_back({std::move(label), std::move(treated_unit),
                             std::move(donor_units), effect, p_value});
  });
}

std::vector<LineageStage> Lineage::ResolveStages(const RunLedger& run) {
  std::vector<LineageStage> stages;
  stages.reserve(run.records.size());
  for (const RecordEntry& entry : run.records) stages.push_back(entry.stage);
  for (const auto& [name, unit] : run.units) {
    if (unit.dropped || (!unit.used_treated && !unit.used_donor)) continue;
    const LineageStage mark =
        unit.used_treated ? LineageStage::kTreated : LineageStage::kDonor;
    for (const CellEntry& cell : unit.cells) {
      cell.ids.ForEachRun(stages.size(), [&](std::uint64_t first,
                                             std::uint64_t last) {
        for (std::uint64_t id = first; id <= last; ++id) {
          if (stages[id - 1] < mark) stages[id - 1] = mark;
        }
      });
    }
  }
  return stages;
}

LineageWaterfall Lineage::RunWaterfall(
    const RunLedger& run, const std::vector<LineageStage>& stages) {
  LineageWaterfall w;
  for (std::size_t i = 0; i < run.records.size(); ++i) {
    const RecordEntry& entry = run.records[i];
    if (!entry.seen) {
      ++w.untracked;
      continue;
    }
    ++w.emitted;
    w.delivered += entry.copies;
    if (stages[i] == LineageStage::kQuarantined) {
      w.quarantined_copies += entry.copies;
    } else {
      w.archived_copies += entry.copies;
    }
    ++w.terminal[static_cast<std::size_t>(stages[i])];
  }
  w.failure_reasons = run.probe_failures;
  for (const auto& [reason, count] : run.probe_failures) {
    w.probes_failed += count;
  }
  w.probes_attempted = w.emitted + w.probes_failed;
  w.units_empty = run.empty_units;
  for (const auto& [name, unit] : run.units) {
    if (unit.dropped) {
      ++w.units_dropped;
    } else {
      ++w.units_kept;
    }
    w.cells_observed += unit.observed_cells;
    w.cells_masked += unit.masked_cells;
  }
  return w;
}

LineageWaterfall& LineageWaterfall::operator+=(const LineageWaterfall& other) {
  probes_attempted += other.probes_attempted;
  probes_failed += other.probes_failed;
  emitted += other.emitted;
  delivered += other.delivered;
  quarantined_copies += other.quarantined_copies;
  archived_copies += other.archived_copies;
  untracked += other.untracked;
  for (std::size_t s = 0; s < kLineageStageCount; ++s) {
    terminal[s] += other.terminal[s];
  }
  for (const auto& [reason, count] : other.failure_reasons) {
    failure_reasons[reason] += count;
  }
  units_kept += other.units_kept;
  units_dropped += other.units_dropped;
  units_empty += other.units_empty;
  cells_observed += other.cells_observed;
  cells_masked += other.cells_masked;
  return *this;
}

LineageWaterfall Lineage::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  LineageWaterfall total;
  for (const RunLedger& run : runs_) {
    total += RunWaterfall(run, ResolveStages(run));
  }
  return total;
}

std::size_t Lineage::run_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return runs_.size();
}

}  // namespace sisyphus::obs
