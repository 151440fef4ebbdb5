// On-disk schema of the indexed audit artifact (audit.bin: magic
// SISYAUD1, version 2, section schema sisyphus.audit/1 — DESIGN.md §12).
//
// The file is a pure function of the final lineage ledger, so every
// determinism guarantee the ledger already carries (byte-identical at any
// SISYPHUS_THREADS, because per-record verdicts are in-place writes at
// each record's own id and every other task-side event is captured and
// replayed in task order; byte-identical across a durable kill/resume,
// which rebuilds the ledger by re-ingesting the journaled steps) transfers
// to audit.bin with no extra machinery. Facet counts are count maps keyed
// by name, sorted as strings (vantage "10" before "2"), whatever the
// writer counts in.
//
// The container is core/section_file.h's: a 48-byte header, 8-byte-aligned
// sections and a table of (kind, run, offset, size, checksum) entries that
// closes the file; this header holds the schema that rides in it. Version
// 1 had the same bytes with FNV-1a checksums; it is refused by its version
// word, not read.
//
// A reader validates the header and table (O(index)), then verifies each
// section checksum lazily on first access; the mmap'd columnar arrays are
// read through typed pointers, which the container's 8-byte alignment
// keeps UBSan-clean.
#pragma once

#include <cstdint>

#include "core/section_file.h"

namespace sisyphus::audit {

inline constexpr std::uint32_t kAuditVersion = 2;
inline constexpr core::section_file::Format kAuditFormat{"SISYAUD1",
                                                         kAuditVersion};
inline constexpr const char* kAuditSchema = "sisyphus.audit/1";
inline constexpr const char* kAuditFileName = "audit.bin";

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

}  // namespace sisyphus::audit
