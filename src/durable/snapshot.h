// Checksummed, atomically-replaced snapshot files for the durable
// streaming service.
//
// A snapshot file holds one framed payload:
//
//   [u64 magic][u64 payload_len][payload bytes][u64 checksum]
//
// with `checksum` = core::Checksum64(payload), written to `<path>.tmp`,
// fsynced, then renamed into place — so a crash mid-write leaves either
// the previous snapshot or a `.tmp` orphan, never a half-written
// `snap-*.bin`. A flipped byte anywhere in the file fails the magic,
// length or checksum check on read, and recovery falls back to the
// previous snapshot (DESIGN.md §11).
//
// Snapshots are named `snap-<seq, 20 digits>.bin` so a lexicographic
// directory listing is also seq-ordered; no other name is a snapshot.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sisyphus::durable {

/// Names the payload layout and the checksum. The payload holds the
/// generator state only: seq, record-id watermark, RNG and vantage EWMAs.
/// Snapshots that still carried the store, panel and lineage ("SISYSNAP"),
/// were checksummed with FNV-1a ("SISYSNP2") or carried the metrics
/// registry, the timeline and a route-change cursor ("SISYSNP3") fail the
/// magic check, which names the magic found, and are rejected rather than
/// misread.
inline constexpr std::uint64_t kSnapshotMagic = 0x34504e5359534953ull;  // "SISYSNP4"

/// `<dir>/snap-00000000000000000042.bin`.
std::string SnapshotPath(const std::string& dir, std::uint64_t seq);

/// Frames `payload`, writes `<path>.tmp`, fsyncs, renames into place.
/// False (with diagnostic) on any I/O failure; the destination is left
/// untouched in that case.
bool WriteSnapshotFile(const std::string& path, std::string_view payload,
                       std::string* error = nullptr);

struct SnapshotRead {
  bool ok = false;
  std::string payload;
  std::string diagnostic;  ///< why the read failed (torn, checksum, I/O)
};

/// Reads and verifies one snapshot file.
SnapshotRead ReadSnapshotFile(const std::string& path);

struct SnapshotEntry {
  std::uint64_t seq = 0;
  std::string path;
};

/// All files in `dir` named as SnapshotPath names them — `snap-`, exactly
/// 20 decimal digits whose value fits in a u64, `.bin` — ascending by seq.
/// Any other name is not a snapshot, so it is neither restored nor pruned.
/// Missing directory yields an empty list.
std::vector<SnapshotEntry> ListSnapshots(const std::string& dir);

/// Deletes all but the newest `keep` snapshots in `dir`.
void PruneSnapshots(const std::string& dir, std::size_t keep);

}  // namespace sisyphus::durable
