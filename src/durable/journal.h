// Write-ahead batch journal for the durable streaming service.
//
// One frame per platform step, appended BEFORE the step's batch is applied
// to the campaign sink:
//
//   [u64 magic][u64 seq][u64 payload_len][payload bytes][u64 checksum]
//
// All integers little-endian; `checksum` is core::Checksum64 of the
// payload bytes under seed `seq`. The magic is "SISYJRN3"; frames of the
// older formats — "SISYJRN2" (records without an IXP crossing) and
// "SISYJRNL" (FNV-1a checksums) — are refused by name, not read. Appends are
// buffered and fsynced every `fsync_every` frames (and on Flush), so a
// crash loses at most the un-synced tail — which recovery simply
// regenerates.
//
// On a resume from a snapshot at seq k the journal plays two roles
// (DESIGN.md §11). Frames 1..k are the SOURCE of everything but the
// generator state (store arenas, panel aggregates, lineage, probe
// failures, metrics registry, timeline): a snapshot carries only the
// generator state, so those frames are decoded and their steps'
// commits and telemetry re-run. Frames after k are an integrity *witness*:
// those steps are re-executed from the restored RNG/simulator state and
// the regenerated payload is compared byte-for-byte against the journaled
// frame.
//
// Scan semantics: a torn or checksum-bad frame at the TAIL of the file is
// benign (the valid prefix is kept, the tail truncated on reopen); a bad
// frame with more data after it, or a frame of the older format anywhere,
// is corruption and must fail the resume loudly.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace sisyphus::durable {

inline constexpr std::uint64_t kJournalMagic = 0x334e524a59534953ull;  // "SISYJRN3"

/// core::Checksum64(payload, seq) — the checksum stored in the frame
/// trailer.
std::uint64_t FrameChecksum(std::uint64_t seq, std::string_view payload);

struct JournalFrame {
  std::uint64_t seq = 0;
  std::string payload;
};

/// Result of scanning a journal file front to back.
struct JournalScan {
  std::vector<JournalFrame> frames;  ///< the valid prefix, seq-ascending
  std::uint64_t valid_bytes = 0;     ///< file offset where the prefix ends
  bool torn_tail = false;            ///< benign: incomplete/bad final frame
  bool corrupt = false;              ///< bad frame with data after it
  std::string diagnostic;            ///< human-readable cause when corrupt
};

/// Scans `path`. A missing file yields an empty, non-corrupt scan. Frames
/// must carry consecutive seq numbers starting at `first_seq`; a gap or
/// regression is corruption.
JournalScan ScanJournal(const std::string& path, std::uint64_t first_seq = 1);

/// Append-only journal writer. Opens the file for appending after
/// truncating it to `valid_bytes` (dropping any torn tail found by
/// ScanJournal). Frames are fsynced every `fsync_every` appends and on
/// Flush()/destruction.
class Journal {
 public:
  Journal() = default;
  ~Journal();
  Journal(Journal&& other) noexcept;
  Journal& operator=(Journal&& other) noexcept;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// False (with errno-derived diagnostic in `error`) when the file cannot
  /// be opened or truncated.
  bool Open(const std::string& path, std::uint64_t valid_bytes,
            std::uint64_t fsync_every, std::string* error = nullptr);

  bool is_open() const { return file_ != nullptr; }

  /// Appends one frame; fsyncs when the unsynced count reaches
  /// `fsync_every`. Returns false on write failure.
  bool Append(std::uint64_t seq, std::string_view payload);

  /// Flushes userspace buffers and fsyncs. Idempotent.
  bool Flush();

  /// Frames appended through this writer (not counting pre-existing ones).
  std::uint64_t appended() const { return appended_; }

  /// Writes `n` bytes of a frame header and dies-worth of partial payload
  /// WITHOUT the trailer — the chaos harness uses this to fake a crash
  /// mid-write. Flushes (so the torn bytes hit the disk) but does not
  /// fsync-count it.
  bool AppendTorn(std::uint64_t seq, std::string_view payload,
                  std::size_t keep_bytes);

  void Close();

 private:
  std::FILE* file_ = nullptr;
  std::uint64_t fsync_every_ = 8;
  std::uint64_t unsynced_ = 0;
  std::uint64_t appended_ = 0;
};

}  // namespace sisyphus::durable
