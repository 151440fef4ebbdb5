#include "audit/writer.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "audit/format.h"
#include "core/binio.h"
#include "core/hash.h"

namespace sisyphus::audit {
namespace {

using core::binio::Writer;
using obs::IdRunSet;
using obs::kLineageFaultNames;
using obs::kLineageStageCount;
using obs::Lineage;
using obs::LineageStage;

void AppendRawU32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void AppendRawU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PadTo8(std::string& out) {
  while (out.size() % 8 != 0) out.push_back('\0');
}

void PutCountMap(Writer& w,
                 const std::map<std::string, std::uint64_t>& counts) {
  w.PutU64(counts.size());
  for (const auto& [key, count] : counts) {
    w.PutString(key);
    w.PutU64(count);
  }
}

/// Facet counters over a set of records (intent/fault/vantage name ->
/// count), keyed by the canonical names from obs/lineage.h.
struct Facets {
  std::map<std::string, std::uint64_t> intents;
  std::map<std::string, std::uint64_t> faults;
  std::map<std::string, std::uint64_t> vantages;

  void Add(const Lineage::RecordEntry& entry) {
    ++intents[obs::LineageIntentName(entry.intent)];
    ++vantages[std::to_string(entry.vantage)];
    for (std::size_t bit = 0; bit < kLineageFaultNames.size(); ++bit) {
      if (entry.fault_mask & (1u << bit)) ++faults[kLineageFaultNames[bit]];
    }
  }

  void Put(Writer& w) const {
    PutCountMap(w, intents);
    PutCountMap(w, faults);
    PutCountMap(w, vantages);
  }
};

/// The record composition of a set of units: records/cells counted over
/// every id in the units' kept cells, digest = FNV over the concatenated
/// cell digests, facets over *seen* records only.
struct Composition {
  std::uint64_t records = 0;
  std::uint64_t cells = 0;
  std::uint64_t digest = 0;
  Facets facets;
};

Composition Compose(const Lineage::RunLedger& run,
                    const std::vector<std::string>& units) {
  Composition comp;
  std::string digest_bytes;
  for (const std::string& unit_name : units) {
    const auto it = run.units.find(unit_name);
    if (it == run.units.end() || it->second.dropped) continue;
    for (const Lineage::CellEntry& cell : it->second.cells) {
      ++comp.cells;
      const std::uint64_t cell_digest = cell.ids.digest();
      digest_bytes.append(reinterpret_cast<const char*>(&cell_digest),
                          sizeof(cell_digest));
      for (std::uint64_t id : cell.ids.Expand()) {
        if (id == 0 || id > run.records.size()) continue;
        const Lineage::RecordEntry& entry = run.records[id - 1];
        ++comp.records;
        if (!entry.seen) continue;
        comp.facets.Add(entry);
      }
    }
  }
  comp.digest = core::Fnv1a64(digest_bytes);
  return comp;
}

void PutComposition(Writer& w, const Composition& comp) {
  w.PutU64(comp.records);
  w.PutU64(comp.cells);
  w.PutU64(comp.digest);
  comp.facets.Put(w);
}

/// Records contributed by one unit: sum of kept-cell id counts, or the
/// dropped-id set size for dropped units.
std::uint64_t UnitRecordTotal(const Lineage::UnitLedger& unit) {
  if (unit.dropped) return unit.dropped_ids.size();
  std::uint64_t total = 0;
  for (const Lineage::CellEntry& cell : unit.cells) total += cell.ids.size();
  return total;
}

std::string EncodeMeta(std::size_t run_count) {
  Writer w;
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
  return std::move(w).Take();
}

std::string EncodeRunHeader(const Lineage::RunLedger& run,
                            const std::vector<LineageStage>& stages) {
  const obs::LineageWaterfall waterfall = Lineage::RunWaterfall(run, stages);
  Writer w;
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
  return std::move(w).Take();
}

std::string EncodeRecords(const Lineage::RunLedger& run,
                          const std::vector<LineageStage>& stages) {
  const std::size_t n = run.records.size();
  std::string out;
  out.reserve(8 + n * 10 + 64);
  AppendRawU64(out, n);
  for (const Lineage::RecordEntry& entry : run.records) {
    AppendRawU32(out, entry.vantage);
  }
  PadTo8(out);
  const auto column = [&](auto&& get) {
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(static_cast<char>(get(run.records[i], stages[i])));
    }
    PadTo8(out);
  };
  column([](const Lineage::RecordEntry& r, LineageStage) { return r.intent; });
  column(
      [](const Lineage::RecordEntry& r, LineageStage) { return r.attempts; });
  column([](const Lineage::RecordEntry& r, LineageStage) {
    return r.fault_mask;
  });
  column([](const Lineage::RecordEntry& r, LineageStage) { return r.copies; });
  column([](const Lineage::RecordEntry&, LineageStage stage) {
    return static_cast<std::uint8_t>(stage);
  });
  column([](const Lineage::RecordEntry& r, LineageStage) {
    return static_cast<std::uint8_t>(r.seen ? 1 : 0);
  });
  return out;
}

std::string EncodeTerminalIndex(const Lineage::RunLedger& run,
                                const std::vector<LineageStage>& stages) {
  Writer w;
  for (std::size_t s = 0; s < kLineageStageCount; ++s) {
    const LineageStage stage = static_cast<LineageStage>(s);
    std::vector<std::uint64_t> ids;
    Facets facets;
    for (std::size_t i = 0; i < run.records.size(); ++i) {
      if (stages[i] != stage) continue;
      ids.push_back(static_cast<std::uint64_t>(i) + 1);
      facets.Add(run.records[i]);
    }
    w.PutU64(ids.size());
    core::binio::PutU64Vector(w, IdRunSet::FromSorted(ids).encoded());
    facets.Put(w);
  }
  return std::move(w).Take();
}

/// Sorted fixed-stride directory + payload area shared by the unit and
/// estimate indexes: u64 count, then count entries of
/// {name_off, name_len, payload_off, payload_len} (section-relative),
/// then the name heap, padding, and the concatenated payloads.
std::string EncodeDirectory(
    const std::vector<std::pair<std::string, std::string>>& entries) {
  std::string names;
  std::vector<std::array<std::uint64_t, 4>> slots;
  slots.reserve(entries.size());
  const std::uint64_t dir_size = 8 + 32 * entries.size();
  for (const auto& [name, payload] : entries) {
    slots.push_back({dir_size + names.size(), name.size(), 0, payload.size()});
    names += name;
  }
  std::uint64_t payload_base = dir_size + names.size();
  while (payload_base % 8 != 0) ++payload_base;
  std::uint64_t cursor = payload_base;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    slots[i][2] = cursor;
    cursor += entries[i].second.size();
  }

  std::string out;
  out.reserve(cursor);
  AppendRawU64(out, entries.size());
  for (const auto& slot : slots) {
    for (std::uint64_t field : slot) AppendRawU64(out, field);
  }
  out += names;
  while (out.size() < payload_base) out.push_back('\0');
  for (const auto& [name, payload] : entries) out += payload;
  return out;
}

std::string EncodeUnitIndex(const Lineage::RunLedger& run) {
  std::vector<std::pair<std::string, std::string>> entries;
  entries.reserve(run.units.size());
  for (const auto& [name, unit] : run.units) {  // map order = sorted by name
    Writer w;
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
    entries.emplace_back(name, std::move(w).Take());
  }
  return EncodeDirectory(entries);
}

std::string EncodeEstimateIndex(const Lineage::RunLedger& run) {
  // Stable sort by label keeps the earliest insertion first among equal
  // labels, so a directory lookup returns the first-registered estimate.
  std::vector<std::size_t> order(run.estimates.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return run.estimates[a].label < run.estimates[b].label;
                   });
  std::vector<std::pair<std::string, std::string>> entries;
  entries.reserve(order.size());
  for (std::size_t index : order) {
    const Lineage::EstimateEntry& estimate = run.estimates[index];
    Writer w;
    w.PutString(estimate.treated);
    w.PutU64(estimate.donors.size());
    for (const std::string& donor : estimate.donors) w.PutString(donor);
    w.PutDouble(estimate.effect);
    w.PutDouble(estimate.p_value);
    PutComposition(w, Compose(run, {estimate.treated}));
    PutComposition(w, Compose(run, estimate.donors));
    entries.emplace_back(estimate.label, std::move(w).Take());
  }
  return EncodeDirectory(entries);
}

std::string EncodeRankings(const Lineage::RunLedger& run) {
  struct UnitRank {
    std::string name;
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

  std::map<std::uint32_t, std::uint64_t> vantage_counts;
  for (const Lineage::RecordEntry& entry : run.records) {
    ++vantage_counts[entry.vantage];
  }
  std::vector<std::pair<std::uint32_t, std::uint64_t>> vantages(
      vantage_counts.begin(), vantage_counts.end());
  std::sort(vantages.begin(), vantages.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });

  Writer w;
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
  return std::move(w).Take();
}

}  // namespace

std::string BuildAuditArtifact(const obs::Lineage& lineage) {
  std::string file(kAuditHeaderSize, '\0');
  std::vector<SectionEntry> table;

  const auto add_section = [&](SectionKind kind, std::uint64_t run,
                               const std::string& payload) {
    PadTo8(file);
    SectionEntry entry;
    entry.kind = static_cast<std::uint64_t>(kind);
    entry.run = run;
    entry.offset = file.size();
    entry.size = payload.size();
    entry.checksum = core::Fnv1a64(payload);
    table.push_back(entry);
    file += payload;
  };

  lineage.VisitRuns([&](const std::vector<Lineage::RunLedger>& runs) {
    add_section(SectionKind::kMeta, kAuditGlobalRun, EncodeMeta(runs.size()));
    for (std::size_t r = 0; r < runs.size(); ++r) {
      const Lineage::RunLedger& run = runs[r];
      const std::vector<LineageStage> stages = Lineage::ResolveStages(run);
      add_section(SectionKind::kRunHeader, r, EncodeRunHeader(run, stages));
      add_section(SectionKind::kRecords, r, EncodeRecords(run, stages));
      add_section(SectionKind::kTerminalIndex, r,
                  EncodeTerminalIndex(run, stages));
      add_section(SectionKind::kUnitIndex, r, EncodeUnitIndex(run));
      add_section(SectionKind::kEstimateIndex, r, EncodeEstimateIndex(run));
      add_section(SectionKind::kRankings, r, EncodeRankings(run));
    }
  });

  PadTo8(file);
  const std::uint64_t table_offset = file.size();
  std::string table_bytes;
  table_bytes.reserve(table.size() * kAuditTableEntrySize);
  for (const SectionEntry& entry : table) {
    AppendRawU64(table_bytes, entry.kind);
    AppendRawU64(table_bytes, entry.run);
    AppendRawU64(table_bytes, entry.offset);
    AppendRawU64(table_bytes, entry.size);
    AppendRawU64(table_bytes, entry.checksum);
  }
  file += table_bytes;
  AppendRawU64(file, core::Fnv1a64(table_bytes));

  // Header, then its checksum over the first 40 bytes.
  std::string header;
  header.append(kAuditMagic, sizeof(kAuditMagic));
  AppendRawU32(header, kAuditVersion);
  AppendRawU32(header, 0);  // flags
  AppendRawU64(header, table.size());
  AppendRawU64(header, table_offset);
  AppendRawU64(header, file.size());
  AppendRawU64(header, core::Fnv1a64(header));
  std::memcpy(file.data(), header.data(), header.size());
  return file;
}

core::Status WriteAuditArtifact(const std::string& directory,
                                const obs::Lineage& lineage) {
  const std::string bytes = BuildAuditArtifact(lineage);
  const std::string path = directory + "/" + kAuditFileName;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return core::Error(core::ErrorCode::kInvalidArgument,
                       "audit: cannot open " + path + " for writing");
  }
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != bytes.size() || !closed) {
    return core::Error(core::ErrorCode::kCapacity,
                       "audit: short write to " + path);
  }
  return core::Status::Ok();
}

}  // namespace sisyphus::audit
