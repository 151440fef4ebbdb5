// On-disk layout of the indexed audit artifact (audit.bin, version 2,
// section schema sisyphus.audit/1 — DESIGN.md §12).
//
// The file is a pure function of the final lineage ledger, so every
// determinism guarantee the ledger already carries (byte-identical at any
// SISYPHUS_THREADS, because per-record verdicts are in-place writes at
// each record's own id and every other task-side event is captured and
// replayed in task order; byte-identical across a durable kill/resume,
// which rebuilds the ledger by re-ingesting the journaled steps) transfers
// to audit.bin with no extra machinery. Facet counts are count maps keyed by name, sorted as
// strings (vantage "10" before "2"), whatever the writer counts in.
//
// Layout (all integers little-endian, fixed-width — core/binio.h rules):
//
//   [0,  8)  magic "SISYAUD1"
//   [8, 12)  u32 version (2)
//   [12,16)  u32 flags (0)
//   [16,24)  u64 section_count
//   [24,32)  u64 table_offset
//   [32,40)  u64 file_size
//   [40,48)  u64 header_checksum = Checksum64 over bytes [0, 40)
//   ...      sections, each 8-byte aligned (zero padding between)
//   table_offset:
//            section_count entries of 40 bytes each:
//              u64 kind, u64 run (~0 = global), u64 offset, u64 size,
//              u64 checksum (Checksum64 over the section's bytes)
//   ...      u64 table_checksum = Checksum64 over the table entry bytes
//
// Checksum64 is core/hash.h's XXH64 with seed 0. Version 1 had the same
// bytes with FNV-1a checksums; it is refused by its version word, not
// read.
//
// A reader validates the header and table (O(index)), then verifies each
// section checksum lazily on first access. Sections are 8-byte aligned so
// the mmap'd columnar arrays can be read through typed pointers without
// misaligned loads (UBSan-clean).
#pragma once

#include <cstdint>

namespace sisyphus::audit {

inline constexpr char kAuditMagic[8] = {'S', 'I', 'S', 'Y',
                                        'A', 'U', 'D', '1'};
inline constexpr std::uint32_t kAuditVersion = 2;
inline constexpr const char* kAuditSchema = "sisyphus.audit/1";
inline constexpr const char* kAuditFileName = "audit.bin";

inline constexpr std::uint64_t kAuditHeaderSize = 48;
inline constexpr std::uint64_t kAuditTableEntrySize = 40;
/// `run` value marking a file-global section.
inline constexpr std::uint64_t kAuditGlobalRun = ~std::uint64_t{0};

/// Section kinds. Per run the writer emits one of each run-scoped kind;
/// kMeta is global. Unknown kinds are skipped by readers (forward
/// compatibility within a version).
enum class SectionKind : std::uint64_t {
  /// Global: schema string, run count, stage names, fault-bit names.
  kMeta = 1,
  /// Per run: label + waterfall rollup (the conservation surface) +
  /// record/unit/estimate counts.
  kRunHeader = 2,
  /// Per run: columnar per-record arrays (index = id - 1), stages
  /// RESOLVED (fit marks folded in): u64 n, then 8-byte-aligned arrays
  /// vantage u32[n], intent u8[n], attempts u8[n], fault_mask u8[n],
  /// copies u8[n], stage u8[n], seen u8[n].
  kRecords = 3,
  /// Per run: for each of the 9 terminal stages, the record-id posting
  /// list (IdRunSet encoding) plus intent/fault/vantage facet counts.
  kTerminalIndex = 4,
  /// Per run: sorted fixed-stride unit directory (binary-searchable by
  /// name) with per-unit payloads: panel verdict, cell digests/id-runs.
  kUnitIndex = 5,
  /// Per run: sorted fixed-stride estimate directory (by label) with
  /// effect/p-value and precomputed treated/donor compositions.
  kEstimateIndex = 6,
  /// Per run: units and vantages ranked by contributing records (the
  /// --top-k surface), precomputed at write time.
  kRankings = 7,
};

/// One decoded section-table entry.
struct SectionEntry {
  std::uint64_t kind = 0;
  std::uint64_t run = kAuditGlobalRun;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint64_t checksum = 0;
};

}  // namespace sisyphus::audit
