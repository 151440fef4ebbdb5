#include "audit/writer.h"

#include <algorithm>
#include <array>
#include <map>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "audit/format.h"
#include "core/binio.h"
#include "core/hash.h"
#include "core/section_file.h"

namespace sisyphus::audit {
namespace {

using core::binio::Writer;
using core::section_file::kGlobal;
using core::section_file::PadTo8;
using obs::IdRunSet;
using obs::kLineageFaultNames;
using obs::kLineageStageCount;
using obs::Lineage;
using obs::LineageStage;

/// Intent codes are u8 (LineageRecordInfo::intent), and every code has a
/// canonical name, so the intent axis is all 256 of them.
constexpr std::size_t kIntentCodes = 256;
constexpr std::size_t kFaultBits = kLineageFaultNames.size();

void PutCountMap(Writer& w,
                 const std::map<std::string, std::uint64_t>& counts) {
  w.PutU64(counts.size());
  for (const auto& [key, count] : counts) {
    w.PutString(key);
    w.PutU64(count);
  }
}

/// The names of one dense counter axis, indexed like its counters, and the
/// indices in name order: the key order of the std::map<std::string, u64>
/// the format's count maps are defined by ("10" sorts before "2").
struct Axis {
  std::vector<std::string> names;
  std::vector<std::uint32_t> order;

  explicit Axis(std::vector<std::string> axis_names)
      : names(std::move(axis_names)), order(names.size()) {
    for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return names[a] < names[b];
              });
  }
};

const Axis& IntentAxis() {
  static const Axis axis = [] {
    std::vector<std::string> names;
    for (std::size_t code = 0; code < kIntentCodes; ++code) {
      names.push_back(obs::LineageIntentName(static_cast<std::uint8_t>(code)));
    }
    return Axis(std::move(names));
  }();
  return axis;
}

const Axis& FaultAxis() {
  static const Axis axis(std::vector<std::string>(kLineageFaultNames.begin(),
                                                  kLineageFaultNames.end()));
  return axis;
}

/// Writes the nonzero counters in the axis's name order as a count map,
/// the bytes PutCountMap writes for the equivalent string-keyed map.
/// Counters past the end of `counts` are zero.
template <typename Counts>
void PutDense(Writer& w, const Counts& counts, const Axis& axis) {
  const auto count = [&](std::uint32_t i) -> std::uint64_t {
    return i < counts.size() ? counts[i] : 0;
  };
  std::uint64_t entries = 0;
  for (std::uint32_t i : axis.order) entries += count(i) != 0 ? 1 : 0;
  w.PutU64(entries);
  for (std::uint32_t i : axis.order) {
    if (count(i) == 0) continue;
    w.PutString(axis.names[i]);
    w.PutU64(count(i));
  }
}

/// Facet counters over a set of records, dense: by intent code, by fault
/// bit, and by the run's vantage slot. Names are rendered only by
/// PutFacets.
struct Facets {
  std::array<std::uint64_t, kIntentCodes> intents{};
  std::array<std::uint64_t, kFaultBits> faults{};
  std::vector<std::uint64_t> vantages;  ///< by VantageSlots slot

  void Add(const Lineage::RecordEntry& entry, std::uint32_t slot) {
    ++intents[entry.intent];
    if (entry.fault_mask != 0) {
      for (std::size_t bit = 0; bit < kFaultBits; ++bit) {
        faults[bit] += (entry.fault_mask >> bit) & 1u;
      }
    }
    if (slot >= vantages.size()) vantages.resize(slot + 1);
    ++vantages[slot];
  }

  Facets& operator+=(const Facets& other) {
    for (std::size_t i = 0; i < kIntentCodes; ++i) {
      intents[i] += other.intents[i];
    }
    for (std::size_t i = 0; i < kFaultBits; ++i) faults[i] += other.faults[i];
    if (vantages.size() < other.vantages.size()) {
      vantages.resize(other.vantages.size());
    }
    for (std::size_t i = 0; i < other.vantages.size(); ++i) {
      vantages[i] += other.vantages[i];
    }
    return *this;
  }
};

/// The distinct vantage ids of one run, each given a slot in order of
/// first appearance: facet tables are sized by the vantages present, never
/// by an id's value.
class VantageSlots {
 public:
  std::uint32_t Of(std::uint32_t vantage) {
    // Records arrive in per-vantage runs (the merge is in vantage order),
    // so the previous answer serves almost every call.
    if (vantage == last_id_ && !ids_.empty()) return last_slot_;
    const auto [it, inserted] = slot_of_.try_emplace(
        vantage, static_cast<std::uint32_t>(ids_.size()));
    if (inserted) ids_.push_back(vantage);
    last_id_ = vantage;
    last_slot_ = it->second;
    return last_slot_;
  }

  /// Vantage ids by slot.
  const std::vector<std::uint32_t>& ids() const { return ids_; }

 private:

  std::unordered_map<std::uint32_t, std::uint32_t> slot_of_;
  std::vector<std::uint32_t> ids_;
  std::uint32_t last_id_ = 0;
  std::uint32_t last_slot_ = 0;
};

/// One terminal stage's posting list and the facets of its records.
struct PostingList {
  IdRunSet::Encoder ids;               ///< fed in ascending order
  std::vector<std::uint64_t> encoded;  ///< ids.Finish() after the pass
  Facets facets;
};

/// What the sections of one run share, from one pass over its resolved
/// stage column: the vantage slots and, per terminal stage, the posting
/// list and its facets. Every record has exactly one stage, so the stage
/// facets' vantage counters sum to the vantage rankings.
struct RunIndex {
  std::array<PostingList, kLineageStageCount> terminal;
  VantageSlots slots;
  Axis vantages;  ///< decimal vantage ids by slot
};

RunIndex IndexRun(const Lineage::RunLedger& run,
                  const std::vector<LineageStage>& stages) {
  std::array<PostingList, kLineageStageCount> terminal;
  VantageSlots slots;
  for (std::size_t i = 0; i < run.records.size(); ++i) {
    const Lineage::RecordEntry& entry = run.records[i];
    PostingList& list = terminal[static_cast<std::size_t>(stages[i])];
    list.ids.Append(static_cast<std::uint64_t>(i) + 1);
    list.facets.Add(entry, slots.Of(entry.vantage));
  }
  for (PostingList& list : terminal) list.encoded = list.ids.Finish();
  std::vector<std::string> names;
  names.reserve(slots.ids().size());
  for (std::uint32_t id : slots.ids()) names.push_back(std::to_string(id));
  return RunIndex{std::move(terminal), std::move(slots),
                  Axis(std::move(names))};
}

void PutFacets(Writer& w, const Facets& facets, const RunIndex& index) {
  PutDense(w, facets.intents, IntentAxis());
  PutDense(w, facets.faults, FaultAxis());
  PutDense(w, facets.vantages, index.vantages);
}

/// One kept unit's part of every composition that names it: the in-range
/// record ids of its cells, its cell count, its cell digests (raw bytes in
/// cell order) and the facets of its seen records.
struct UnitShare {
  std::uint64_t records = 0;
  std::uint64_t cells = 0;
  std::string digests;
  Facets facets;
};

UnitShare ShareOf(const Lineage::RunLedger& run,
                  const Lineage::UnitLedger& unit, VantageSlots& slots) {
  UnitShare share;
  share.cells = unit.cells.size();
  for (const Lineage::CellEntry& cell : unit.cells) {
    const std::uint64_t digest = cell.ids.digest();
    share.digests.append(reinterpret_cast<const char*>(&digest),
                         sizeof(digest));
    cell.ids.ForEachRun(run.records.size(), [&](std::uint64_t first,
                                                std::uint64_t last) {
      share.records += last - first + 1;
      for (std::uint64_t id = first; id <= last; ++id) {
        const Lineage::RecordEntry& entry = run.records[id - 1];
        if (entry.seen) share.facets.Add(entry, slots.Of(entry.vantage));
      }
    });
  }
  return share;
}

/// The record composition of a list of units: the sum of the shares of
/// its kept units in list order (a repeated unit counts again; unknown and
/// dropped units count nothing), digest = FNV-1a over the concatenated
/// cell digests.
struct Composition {
  std::uint64_t records = 0;
  std::uint64_t cells = 0;
  std::uint64_t digest = core::kFnv1a64Offset;
  Facets facets;

  void Add(const UnitShare& share) {
    records += share.records;
    cells += share.cells;
    digest = core::Fnv1a64(share.digests, digest);
    facets += share.facets;
  }
};

void PutComposition(Writer& w, const Composition& comp,
                    const RunIndex& index) {
  w.PutU64(comp.records);
  w.PutU64(comp.cells);
  w.PutU64(comp.digest);
  PutFacets(w, comp.facets, index);
}

/// Records contributed by one unit: sum of kept-cell id counts, or the
/// dropped-id set size for dropped units.
std::uint64_t UnitRecordTotal(const Lineage::UnitLedger& unit) {
  if (unit.dropped) return unit.dropped_ids.size();
  std::uint64_t total = 0;
  for (const Lineage::CellEntry& cell : unit.cells) total += cell.ids.size();
  return total;
}

void PutMeta(Writer& w, std::size_t run_count) {
  w.PutString(kAuditSchema);
  w.PutU64(run_count);
  w.PutU64(kLineageStageCount);
  for (std::size_t s = 0; s < kLineageStageCount; ++s) {
    w.PutString(obs::ToString(static_cast<LineageStage>(s)));
  }
  w.PutU64(kLineageFaultNames.size());
  for (const char* name : kLineageFaultNames) w.PutString(name);
  w.PutU64(obs::kLineageIntentNames.size());
  for (const char* name : obs::kLineageIntentNames) w.PutString(name);
}

void PutRunHeader(Writer& w, const Lineage::RunLedger& run,
                  const std::vector<LineageStage>& stages) {
  const obs::LineageWaterfall waterfall = Lineage::RunWaterfall(run, stages);
  w.PutString(run.label);
  w.PutU64(waterfall.emitted);
  w.PutU64(waterfall.untracked);
  w.PutU64(waterfall.delivered);
  w.PutU64(waterfall.quarantined_copies);
  w.PutU64(waterfall.archived_copies);
  w.PutU64(waterfall.probes_failed);
  PutCountMap(w, waterfall.failure_reasons);
  for (std::uint64_t count : waterfall.terminal) w.PutU64(count);
  w.PutU64(waterfall.units_kept);
  w.PutU64(waterfall.units_dropped);
  w.PutU64(waterfall.units_empty);
  w.PutU64(waterfall.cells_observed);
  w.PutU64(waterfall.cells_masked);
  w.PutU64(run.records.size());
  w.PutU64(run.units.size());
  w.PutU64(run.estimates.size());
}

void PutRecords(Writer& w, const Lineage::RunLedger& run,
                const std::vector<LineageStage>& stages) {
  // One pass transposes the rows into the seven 8-byte-aligned columns;
  // the section starts aligned and n takes 8 bytes, so they stay aligned.
  const std::size_t n = run.records.size();
  const std::size_t byte_column = (n + 7) / 8 * 8;
  const std::size_t vantage_column = (4 * n + 7) / 8 * 8;
  w.PutU64(n);
  w.PutFilled(vantage_column + 6 * byte_column, [&](char* vantage) {
    char* intent = vantage + vantage_column;
    char* attempts = intent + byte_column;
    char* fault_mask = attempts + byte_column;
    char* copies = fault_mask + byte_column;
    char* stage = copies + byte_column;
    char* seen = stage + byte_column;
    for (std::size_t i = 0; i < n; ++i) {
      const Lineage::RecordEntry& entry = run.records[i];
      for (int b = 0; b < 4; ++b) {
        vantage[4 * i + b] =
            static_cast<char>((entry.vantage >> (8 * b)) & 0xff);
      }
      intent[i] = static_cast<char>(entry.intent);
      attempts[i] = static_cast<char>(entry.attempts);
      fault_mask[i] = static_cast<char>(entry.fault_mask);
      copies[i] = static_cast<char>(entry.copies);
      stage[i] = static_cast<char>(stages[i]);
      seen[i] = static_cast<char>(entry.seen ? 1 : 0);
    }
  });
}

void PutTerminalIndex(Writer& w, const RunIndex& index) {
  for (const PostingList& list : index.terminal) {
    w.PutU64(list.ids.size());
    core::binio::PutU64Vector(w, list.encoded);
    PutFacets(w, list.facets, index);
  }
}

/// Sorted fixed-stride directory + payload area shared by the unit and
/// estimate indexes: u64 count, then count entries of
/// {name_off, name_len, payload_off, payload_len} (section-relative),
/// then the name heap, padding, and the concatenated payloads. Each
/// payload is written in place by `put_payload(i)`, and its slot is
/// patched once its extent is known. The section must start 8-aligned.
template <typename PutPayload>
void PutDirectory(Writer& w, const std::vector<std::string_view>& names,
                  PutPayload&& put_payload) {
  const std::size_t base = w.size();
  const std::uint64_t dir_size = 8 + 32 * names.size();
  w.PutU64(names.size());
  std::uint64_t name_off = dir_size;
  for (std::string_view name : names) {
    w.PutU64(name_off);
    w.PutU64(name.size());
    w.PutU64(0);  // payload_off
    w.PutU64(0);  // payload_len
    name_off += name.size();
  }
  for (std::string_view name : names) w.PutRaw(name);
  PadTo8(w);
  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::size_t start = w.size();
    put_payload(i);
    const std::size_t slot = base + 8 + 32 * i;
    w.PatchU64(slot + 16, start - base);
    w.PatchU64(slot + 24, w.size() - start);
  }
}

void PutUnitIndex(Writer& w, const Lineage::RunLedger& run) {
  std::vector<std::string_view> names;
  std::vector<const Lineage::UnitLedger*> units;
  names.reserve(run.units.size());
  units.reserve(run.units.size());
  for (const auto& [name, unit] : run.units) {  // map order = sorted by name
    names.push_back(name);
    units.push_back(&unit);
  }
  PutDirectory(w, names, [&](std::size_t i) {
    const Lineage::UnitLedger& unit = *units[i];
    w.PutBool(unit.dropped);
    w.PutDouble(unit.missing_fraction);
    w.PutU64(unit.observed_cells);
    w.PutU64(unit.masked_cells);
    w.PutBool(unit.used_treated);
    w.PutBool(unit.used_donor);
    core::binio::PutU64Vector(w, unit.dropped_ids.encoded());
    w.PutU64(unit.cells.size());
    for (const Lineage::CellEntry& cell : unit.cells) {
      w.PutU32(cell.period);
      w.PutU64(cell.ids.size());
      w.PutU64(cell.ids.digest());
      core::binio::PutU64Vector(w, cell.ids.encoded());
    }
    w.PutU64(UnitRecordTotal(unit));
  });
}

void PutEstimateIndex(Writer& w, const Lineage::RunLedger& run,
                      RunIndex& index) {
  // Stable sort by label keeps the earliest insertion first among equal
  // labels, so a directory lookup returns the first-registered estimate.
  std::vector<std::size_t> order(run.estimates.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return run.estimates[a].label < run.estimates[b].label;
                   });
  std::vector<std::string_view> labels;
  labels.reserve(order.size());
  for (std::size_t i : order) labels.push_back(run.estimates[i].label);

  // Each kept unit's share is computed the first time an estimate names
  // it; a composition is then a sum over its list.
  std::unordered_map<const Lineage::UnitLedger*, UnitShare> shares;
  const auto compose = [&](const std::string* units, std::size_t count) {
    Composition comp;
    for (std::size_t i = 0; i < count; ++i) {
      const auto it = run.units.find(units[i]);
      if (it == run.units.end() || it->second.dropped) continue;
      auto [share, fresh] = shares.try_emplace(&it->second);
      if (fresh) share->second = ShareOf(run, it->second, index.slots);
      comp.Add(share->second);
    }
    return comp;
  };

  PutDirectory(w, labels, [&](std::size_t i) {
    const Lineage::EstimateEntry& estimate = run.estimates[order[i]];
    w.PutString(estimate.treated);
    w.PutU64(estimate.donors.size());
    for (const std::string& donor : estimate.donors) w.PutString(donor);
    w.PutDouble(estimate.effect);
    w.PutDouble(estimate.p_value);
    PutComposition(w, compose(&estimate.treated, 1), index);
    PutComposition(w, compose(estimate.donors.data(), estimate.donors.size()),
                   index);
  });
}

void PutRankings(Writer& w, const Lineage::RunLedger& run,
                 const RunIndex& index) {
  struct UnitRank {
    std::string_view name;
    std::uint64_t records = 0;
    bool dropped = false;
  };
  std::vector<UnitRank> units;
  units.reserve(run.units.size());
  for (const auto& [name, unit] : run.units) {
    units.push_back({name, UnitRecordTotal(unit), unit.dropped});
  }
  std::sort(units.begin(), units.end(), [](const UnitRank& a,
                                           const UnitRank& b) {
    if (a.records != b.records) return a.records > b.records;
    return a.name < b.name;
  });

  const std::vector<std::uint32_t>& ids = index.slots.ids();
  std::vector<std::pair<std::uint32_t, std::uint64_t>> vantages(ids.size());
  for (std::size_t slot = 0; slot < ids.size(); ++slot) {
    vantages[slot].first = ids[slot];
  }
  for (const PostingList& list : index.terminal) {
    for (std::size_t slot = 0; slot < list.facets.vantages.size(); ++slot) {
      vantages[slot].second += list.facets.vantages[slot];
    }
  }
  std::sort(vantages.begin(), vantages.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });

  w.PutU64(units.size());
  for (const UnitRank& unit : units) {
    w.PutString(unit.name);
    w.PutU64(unit.records);
    w.PutBool(unit.dropped);
  }
  w.PutU64(vantages.size());
  for (const auto& [vantage, count] : vantages) {
    w.PutU32(vantage);
    w.PutU64(count);
  }
}

}  // namespace

std::string BuildAuditArtifact(const obs::Lineage& lineage) {
  core::section_file::Builder file;
  const auto section = [&](SectionKind kind, std::uint64_t run,
                           auto&& encode) {
    file.Add(static_cast<std::uint64_t>(kind), run, encode);
  };

  lineage.VisitRuns([&](const std::vector<Lineage::RunLedger>& runs) {
    // The columnar records dominate the file (10 bytes a row); reserving
    // past them keeps the buffer from being copied as it grows.
    std::size_t rows = 0;
    for (const Lineage::RunLedger& run : runs) rows += run.records.size();
    file.Reserve(core::section_file::kHeaderSize + 16 * rows +
                 (std::size_t{1} << 20));

    section(SectionKind::kMeta, kGlobal,
            [&](Writer& w) { PutMeta(w, runs.size()); });
    for (std::size_t r = 0; r < runs.size(); ++r) {
      const Lineage::RunLedger& run = runs[r];
      const std::vector<LineageStage> stages = Lineage::ResolveStages(run);
      RunIndex index = IndexRun(run, stages);
      section(SectionKind::kRunHeader, r,
              [&](Writer& w) { PutRunHeader(w, run, stages); });
      section(SectionKind::kRecords, r,
              [&](Writer& w) { PutRecords(w, run, stages); });
      section(SectionKind::kTerminalIndex, r,
              [&](Writer& w) { PutTerminalIndex(w, index); });
      section(SectionKind::kUnitIndex, r,
              [&](Writer& w) { PutUnitIndex(w, run); });
      section(SectionKind::kEstimateIndex, r,
              [&](Writer& w) { PutEstimateIndex(w, run, index); });
      section(SectionKind::kRankings, r,
              [&](Writer& w) { PutRankings(w, run, index); });
    }
  });
  return std::move(file).Finish(kAuditFormat);
}

core::Status WriteAuditArtifact(const std::string& directory,
                                const obs::Lineage& lineage) {
  return core::section_file::WriteFile(directory + "/" + kAuditFileName,
                                       BuildAuditArtifact(lineage));
}

}  // namespace sisyphus::audit
