// Hostile-file helpers shared by the container cases (section_file_test)
// and the schema cases of audit_test and timeline_test: small artifacts of
// both kinds, raw u64 access, and resealing a doctored file so that its
// checksums hold and the doctored field reaches the check meant to catch
// it (core/section_file.h has the layout).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "audit/writer.h"
#include "core/hash.h"
#include "core/section_file.h"
#include "obs/lineage.h"
#include "obs/timeline.h"

namespace sisyphus::section_file_test {

using core::section_file::kEntrySize;

/// Little-endian u64 at `offset`, read and written byte by byte.
inline std::uint64_t GetU64At(const std::string& bytes, std::uint64_t offset) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(bytes[offset + i]);
  }
  return v;
}

inline void PutU64At(std::string& bytes, std::uint64_t offset,
                     std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes[offset + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

inline std::uint64_t Checksum(std::string_view bytes) {
  return core::Checksum64(bytes);
}

inline std::uint64_t Fnv(std::string_view bytes) {
  return core::Fnv1a64(bytes);
}

/// Recomputes the table checksum, then the header's, with `hash`.
inline void ResealTable(std::string& file,
                        std::uint64_t (*hash)(std::string_view) = Checksum) {
  const std::uint64_t table = GetU64At(file, 24);
  const std::uint64_t table_bytes = GetU64At(file, 16) * kEntrySize;
  PutU64At(file, table + table_bytes,
           hash(std::string_view(file).substr(table, table_bytes)));
  PutU64At(file, 40, hash(std::string_view(file).substr(0, 40)));
}

/// Recomputes every section checksum, then the table's and the header's,
/// with `hash`; every entry must lie inside the file.
inline void Reseal(std::string& file,
                   std::uint64_t (*hash)(std::string_view) = Checksum) {
  const std::uint64_t count = GetU64At(file, 16);
  const std::uint64_t table = GetU64At(file, 24);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t entry = table + i * kEntrySize;
    PutU64At(file, entry + 32,
             hash(std::string_view(file).substr(GetU64At(file, entry + 16),
                                                GetU64At(file, entry + 24))));
  }
  ResealTable(file, hash);
}

/// Byte offset of the table entry of the first section of `kind` (an
/// artifact's section-kind enum).
template <typename Kind>
std::uint64_t EntryOf(const std::string& file, Kind kind) {
  const std::uint64_t count = GetU64At(file, 16);
  const std::uint64_t table = GetU64At(file, 24);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t entry = table + i * kEntrySize;
    if (GetU64At(file, entry) == static_cast<std::uint64_t>(kind)) {
      return entry;
    }
  }
  ADD_FAILURE() << "no section of kind " << static_cast<std::uint64_t>(kind);
  return table;
}

/// Byte offset of the first section of `kind`.
template <typename Kind>
std::uint64_t SectionOf(const std::string& file, Kind kind) {
  return GetU64At(file, EntryOf(file, kind) + 16);
}

/// `outcome` (a Status or a Result) failed as a parse error whose message
/// contains `what`.
template <typename Outcome>
void ExpectParseError(const Outcome& outcome, const std::string& what) {
  ASSERT_FALSE(outcome.ok()) << "expected \"" << what << "\"";
  EXPECT_EQ(outcome.error().code(), core::ErrorCode::kParseError);
  EXPECT_NE(outcome.error().message().find(what), std::string::npos)
      << outcome.error().message();
}

inline std::string TempPath(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

inline void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(f.is_open()) << path;
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A one-run audit.bin: four records, two kept units with one cell each.
/// Leaves the global ledger reset and disabled.
inline std::string SmallAuditArtifact() {
  obs::Lineage& lineage = obs::Lineage::Global();
  obs::Lineage::Enable(true);
  lineage.Reset();
  lineage.BeginRun("crafted");
  for (std::uint64_t id = 1; id <= 4; ++id) {
    obs::LineageRecordInfo info;
    info.id = id;
    info.archived = true;
    lineage.RecordEmitted(info);
  }
  lineage.PanelUnitKept("unit-a", 0.0, 1, 0);
  lineage.PanelCell(
      "unit-a", 0, obs::IdRunSet::FromSorted(std::vector<std::uint64_t>{1, 2}));
  lineage.PanelUnitKept("unit-b", 0.0, 1, 0);
  lineage.PanelCell(
      "unit-b", 0, obs::IdRunSet::FromSorted(std::vector<std::uint64_t>{3, 4}));
  std::string artifact = audit::BuildAuditArtifact(lineage);
  lineage.Reset();
  obs::Lineage::Enable(false);
  return artifact;
}

/// Four steps of two series with no detector and no events, sampled into
/// `timeline` (enabled, empty): one counter, one gauge.
inline std::string PlainTimelineArtifact(obs::Timeline& timeline) {
  const std::uint32_t counter = timeline.DeclareCounter("plain.count");
  const std::uint32_t gauge = timeline.DeclareGauge("plain.level");
  for (std::uint64_t step = 1; step <= 4; ++step) {
    timeline.SampleCounter(step, counter, 3 * step);
    timeline.SampleGauge(step, gauge, 0.5 * static_cast<double>(step));
    timeline.CommitStep(step);
  }
  return timeline.BuildArtifact();
}

}  // namespace sisyphus::section_file_test
