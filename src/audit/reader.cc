#include "audit/reader.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "core/binio.h"

namespace sisyphus::audit {
namespace {

using core::Error;
using core::ErrorCode;
using core::Result;
using core::Status;
namespace section_file = core::section_file;

std::uint64_t ReadRawU64(const char* base, std::uint64_t offset) {
  std::uint64_t v = 0;
  std::memcpy(&v, base + offset, sizeof(v));
  return v;
}

Error Malformed(const std::string& path, const std::string& what) {
  return Error(ErrorCode::kParseError, "audit: " + path + ": " + what);
}

std::map<std::string, std::uint64_t> GetCountMap(core::binio::Reader& r) {
  std::map<std::string, std::uint64_t> out;
  const std::uint64_t n = r.GetU64();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    std::string key = r.GetString();
    const std::uint64_t count = r.GetU64();
    if (r.ok()) out.emplace(std::move(key), count);
  }
  return out;
}

FacetCounts GetFacets(core::binio::Reader& r) {
  FacetCounts facets;
  facets.intents = GetCountMap(r);
  facets.faults = GetCountMap(r);
  facets.vantages = GetCountMap(r);
  return facets;
}

CompositionInfo GetComposition(core::binio::Reader& r) {
  CompositionInfo comp;
  comp.records = r.GetU64();
  comp.cells = r.GetU64();
  comp.digest = r.GetU64();
  comp.facets = GetFacets(r);
  return comp;
}

/// One slot of a sorted directory section (unit / estimate indexes).
struct DirSlot {
  std::uint64_t name_off = 0;
  std::uint64_t name_len = 0;
  std::uint64_t payload_off = 0;
  std::uint64_t payload_len = 0;
};

/// Binary-searches a directory section for `name`; returns the payload
/// bytes, or an empty view when absent, or an error when malformed.
Result<std::string_view> DirectoryLookup(std::string_view section,
                                         std::string_view name,
                                         const std::string& path) {
  if (section.size() < 8) return Malformed(path, "directory too small");
  const char* base = section.data();
  const std::uint64_t count = ReadRawU64(base, 0);
  if (count > (section.size() - 8) / 32) {
    return Malformed(path, "directory slot table out of bounds");
  }
  // Offsets and lengths are compared against the bytes left, never summed.
  const auto in_bounds = [&](std::uint64_t off, std::uint64_t len) {
    return off <= section.size() && len <= section.size() - off;
  };
  const auto slot_ok = [&](const DirSlot& slot) {
    return in_bounds(slot.name_off, slot.name_len) &&
           in_bounds(slot.payload_off, slot.payload_len);
  };
  const auto slot_at = [&](std::uint64_t i) {
    DirSlot slot;
    slot.name_off = ReadRawU64(base, 8 + i * 32);
    slot.name_len = ReadRawU64(base, 8 + i * 32 + 8);
    slot.payload_off = ReadRawU64(base, 8 + i * 32 + 16);
    slot.payload_len = ReadRawU64(base, 8 + i * 32 + 24);
    return slot;
  };
  const auto name_at = [&](const DirSlot& slot) {
    return std::string_view(base + slot.name_off,
                            static_cast<std::size_t>(slot.name_len));
  };
  std::uint64_t lo = 0, hi = count;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    const DirSlot slot = slot_at(mid);
    if (!slot_ok(slot)) return Malformed(path, "directory entry out of bounds");
    if (name_at(slot) < name) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo >= count) return std::string_view();
  const DirSlot slot = slot_at(lo);
  if (!slot_ok(slot)) return Malformed(path, "directory entry out of bounds");
  if (name_at(slot) != name) return std::string_view();
  return std::string_view(base + slot.payload_off,
                          static_cast<std::size_t>(slot.payload_len));
}

}  // namespace

AuditReader::~AuditReader() { Close(); }

void AuditReader::Close() {
  if (map_ != nullptr) {
    ::munmap(map_, map_size_);
    map_ = nullptr;
    map_size_ = 0;
  }
  table_.clear();
  verified_.clear();
  runs_.clear();
}

Status AuditReader::Open(const std::string& path) {
  Close();
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Error(ErrorCode::kNotFound, "audit: cannot open " + path);
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Malformed(path, "cannot stat");
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  // mmap refuses an empty mapping; the table check refuses the empty file.
  void* map = size == 0 ? nullptr
                        : ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    return Malformed(path, "mmap failed");
  }
  map_ = map;
  map_size_ = size;
  path_ = path;

  Result<std::vector<section_file::Entry>> table =
      section_file::ReadTable(file(), kAuditFormat);
  if (!table.ok()) {
    Close();
    return Malformed(path, table.error().message());
  }
  table_ = std::move(table).value();
  verified_.assign(table_.size(), 0);

  // -- meta + run headers (small; decoded eagerly so run_count()/run()
  //    need no error paths) --
  const Result<std::string_view> meta =
      Section(SectionKind::kMeta, section_file::kGlobal);
  if (!meta.ok()) {
    const Error error = meta.error();
    Close();
    return error;
  }
  core::binio::Reader mr(meta.value());
  const std::string schema = mr.GetString();
  if (!mr.ok() || schema != kAuditSchema) {
    Close();
    return Malformed(path, "schema mismatch (want sisyphus.audit/1)");
  }
  const std::uint64_t run_count = mr.GetU64();
  // Every run owns a run-header section, so the table bounds the count.
  if (!mr.ok() || run_count > table_.size()) {
    Close();
    return Malformed(path, "run count exceeds the section table");
  }
  runs_.reserve(static_cast<std::size_t>(run_count));
  for (std::uint64_t r = 0; r < run_count; ++r) {
    const Result<std::string_view> header =
        Section(SectionKind::kRunHeader, r);
    if (!header.ok()) {
      const Error error = header.error();
      Close();
      return error;
    }
    core::binio::Reader hr(header.value());
    RunSummary summary;
    summary.label = hr.GetString();
    summary.waterfall.emitted = hr.GetU64();
    summary.waterfall.untracked = hr.GetU64();
    summary.waterfall.delivered = hr.GetU64();
    summary.waterfall.quarantined_copies = hr.GetU64();
    summary.waterfall.archived_copies = hr.GetU64();
    summary.waterfall.probes_failed = hr.GetU64();
    summary.waterfall.failure_reasons = GetCountMap(hr);
    for (std::size_t s = 0; s < obs::kLineageStageCount; ++s) {
      summary.waterfall.terminal[s] = hr.GetU64();
    }
    summary.waterfall.units_kept = hr.GetU64();
    summary.waterfall.units_dropped = hr.GetU64();
    summary.waterfall.units_empty = hr.GetU64();
    summary.waterfall.cells_observed = hr.GetU64();
    summary.waterfall.cells_masked = hr.GetU64();
    summary.record_rows = hr.GetU64();
    summary.unit_count = hr.GetU64();
    summary.estimate_count = hr.GetU64();
    if (!hr.ok()) {
      Close();
      return Malformed(path, "run header decode failed");
    }
    summary.waterfall.probes_attempted =
        summary.waterfall.emitted + summary.waterfall.probes_failed;
    runs_.push_back(std::move(summary));
  }
  return Status::Ok();
}

Status AuditReader::VerifyEntry(std::size_t index) const {
  if (verified_[index]) return Status::Ok();
  const Status status =
      section_file::VerifySection(file(), table_[index], index);
  if (!status.ok()) return Malformed(path_, status.error().message());
  verified_[index] = 1;
  return Status::Ok();
}

Result<std::string_view> AuditReader::Section(SectionKind kind,
                                              std::uint64_t run) const {
  for (std::size_t i = 0; i < table_.size(); ++i) {
    const section_file::Entry& entry = table_[i];
    if (entry.kind != static_cast<std::uint64_t>(kind) || entry.run != run) {
      continue;
    }
    const Status status = VerifyEntry(i);
    if (!status.ok()) return status.error();
    return std::string_view(base() + entry.offset,
                            static_cast<std::size_t>(entry.size));
  }
  return Malformed(path_, "missing section (kind " +
                              std::to_string(static_cast<int>(kind)) + ")");
}

Status AuditReader::VerifyAll() const {
  for (std::size_t i = 0; i < table_.size(); ++i) {
    const Status status = VerifyEntry(i);
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

Result<RecordColumns> AuditReader::Records(std::size_t run) const {
  const Result<std::string_view> section =
      Section(SectionKind::kRecords, run);
  if (!section.ok()) return section.error();
  const std::string_view bytes = section.value();
  if (bytes.size() < 8) return Malformed(path_, "records section too small");
  RecordColumns columns;
  columns.count = ReadRawU64(bytes.data(), 0);
  const std::uint64_t n = columns.count;
  // A row is 10 bytes (u32 vantage + six u8 columns) before padding, so
  // this bound keeps the size arithmetic below from wrapping.
  if (n > (bytes.size() - 8) / 10) {
    return Malformed(path_, "records section truncated");
  }
  const auto pad8 = [](std::uint64_t v) { return (v + 7) & ~std::uint64_t{7}; };
  std::uint64_t need = 8 + pad8(n * 4);
  for (int i = 0; i < 6; ++i) need += pad8(n);
  if (need > bytes.size()) {
    return Malformed(path_, "records section truncated");
  }
  const char* p = bytes.data();
  std::uint64_t off = 8;
  columns.vantage = reinterpret_cast<const std::uint32_t*>(p + off);
  off += pad8(n * 4);
  const auto u8_column = [&]() {
    const std::uint8_t* column =
        reinterpret_cast<const std::uint8_t*>(p + off);
    off += pad8(n);
    return column;
  };
  columns.intent = u8_column();
  columns.attempts = u8_column();
  columns.fault_mask = u8_column();
  columns.copies = u8_column();
  columns.stage = u8_column();
  columns.seen = u8_column();
  return columns;
}

Result<TerminalSlice> AuditReader::Terminal(std::size_t run,
                                            obs::LineageStage stage) const {
  const Result<std::string_view> section =
      Section(SectionKind::kTerminalIndex, run);
  if (!section.ok()) return section.error();
  core::binio::Reader r(section.value());
  for (std::size_t s = 0; s < obs::kLineageStageCount; ++s) {
    TerminalSlice slice;
    slice.count = r.GetU64();
    slice.id_runs = core::binio::GetU64Vector(r);
    slice.facets = GetFacets(r);
    if (!r.ok()) return Malformed(path_, "terminal index decode failed");
    if (static_cast<obs::LineageStage>(s) == stage) return slice;
  }
  return Malformed(path_, "terminal stage out of range");
}

Result<UnitInfo> AuditReader::FindUnit(std::size_t run,
                                       std::string_view name) const {
  const Result<std::string_view> section =
      Section(SectionKind::kUnitIndex, run);
  if (!section.ok()) return section.error();
  const Result<std::string_view> payload =
      DirectoryLookup(section.value(), name, path_);
  if (!payload.ok()) return payload.error();
  UnitInfo info;
  if (payload.value().data() == nullptr) return info;  // not found
  core::binio::Reader r(payload.value());
  info.found = true;
  info.dropped = r.GetBool();
  info.missing_fraction = r.GetDouble();
  info.observed_cells = r.GetU64();
  info.masked_cells = r.GetU64();
  info.used_treated = r.GetBool();
  info.used_donor = r.GetBool();
  info.dropped_id_runs = core::binio::GetU64Vector(r);
  const std::uint64_t cell_count = r.GetU64();
  for (std::uint64_t i = 0; i < cell_count && r.ok(); ++i) {
    CellInfo cell;
    cell.period = r.GetU32();
    cell.count = r.GetU64();
    cell.digest = r.GetU64();
    cell.runs = core::binio::GetU64Vector(r);
    info.cells.push_back(std::move(cell));
  }
  info.record_total = r.GetU64();
  if (!r.ok()) return Malformed(path_, "unit payload decode failed");
  return info;
}

Result<EstimateInfo> AuditReader::FindEstimate(std::size_t run,
                                               std::string_view label) const {
  const Result<std::string_view> section =
      Section(SectionKind::kEstimateIndex, run);
  if (!section.ok()) return section.error();
  const Result<std::string_view> payload =
      DirectoryLookup(section.value(), label, path_);
  if (!payload.ok()) return payload.error();
  EstimateInfo info;
  if (payload.value().data() == nullptr) return info;  // not found
  core::binio::Reader r(payload.value());
  info.found = true;
  info.treated = r.GetString();
  const std::uint64_t donor_count = r.GetU64();
  for (std::uint64_t i = 0; i < donor_count && r.ok(); ++i) {
    info.donors.push_back(r.GetString());
  }
  info.effect = r.GetDouble();
  info.p_value = r.GetDouble();
  info.treated_comp = GetComposition(r);
  info.donor_comp = GetComposition(r);
  if (!r.ok()) return Malformed(path_, "estimate payload decode failed");
  return info;
}

Result<Rankings> AuditReader::Ranked(std::size_t run) const {
  const Result<std::string_view> section =
      Section(SectionKind::kRankings, run);
  if (!section.ok()) return section.error();
  core::binio::Reader r(section.value());
  Rankings rankings;
  const std::uint64_t unit_count = r.GetU64();
  for (std::uint64_t i = 0; i < unit_count && r.ok(); ++i) {
    UnitRank unit;
    unit.name = r.GetString();
    unit.records = r.GetU64();
    unit.dropped = r.GetBool();
    rankings.units.push_back(std::move(unit));
  }
  const std::uint64_t vantage_count = r.GetU64();
  for (std::uint64_t i = 0; i < vantage_count && r.ok(); ++i) {
    VantageRank vantage;
    vantage.vantage = r.GetU32();
    vantage.records = r.GetU64();
    rankings.vantages.push_back(vantage);
  }
  if (!r.ok()) return Malformed(path_, "rankings decode failed");
  return rankings;
}

}  // namespace sisyphus::audit
