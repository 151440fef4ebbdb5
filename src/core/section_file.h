// The section-file container of audit.bin and timeline.bin (DESIGN.md
// §12): a fixed header, 8-byte-aligned sections, and a section table that
// closes the file. Each artifact brings only its schema (magic, version,
// section kinds and payload encodings); the framing is written, checked
// and saved here, once.
//
// Layout (all integers little-endian, fixed-width — core/binio.h rules):
//
//   [0,  8)  magic (one per artifact)
//   [8, 12)  u32 version
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
//   ...      u64 table_checksum = Checksum64 over the table entry bytes;
//            these are the file's last 8 bytes
//
// Checksum64 is core/hash.h's XXH64 with seed 0. Sections are 8-byte
// aligned so a mapped file's columnar arrays can be read through typed
// pointers without misaligned loads.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/binio.h"
#include "core/result.h"

namespace sisyphus::core::section_file {

inline constexpr std::uint64_t kHeaderSize = 48;
inline constexpr std::uint64_t kEntrySize = 40;
/// `run` value marking a file-global section.
inline constexpr std::uint64_t kGlobal = ~std::uint64_t{0};

/// What sets one artifact's files apart: its magic and the one version
/// its reader reads.
struct Format {
  std::string_view magic;  ///< exactly 8 bytes
  std::uint32_t version = 0;
};

/// One section-table entry.
struct Entry {
  std::uint64_t kind = 0;
  std::uint64_t run = kGlobal;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint64_t checksum = 0;
};

/// Zero-pads `w` to the next 8-byte boundary.
void PadTo8(binio::Writer& w);

/// Builds a section file in one buffer: each section is encoded straight
/// into it, and Finish appends the table and fills in the header.
class Builder {
 public:
  Builder();

  /// Reserves room for a file of `bytes` bytes.
  void Reserve(std::size_t bytes) { out_.Reserve(bytes); }

  /// Appends a section of `kind` for `run` (kGlobal for a file-global
  /// one): `encode(writer)` writes its bytes, starting 8-byte aligned.
  template <typename Encode>
  void Add(std::uint64_t kind, std::uint64_t run, Encode&& encode) {
    PadTo8(out_);
    const std::size_t offset = out_.size();
    encode(out_);
    Close(kind, run, offset);
  }

  /// The finished file: the table, its checksum and the header.
  std::string Finish(const Format& format) &&;

 private:
  void Close(std::uint64_t kind, std::uint64_t run, std::size_t offset);

  binio::Writer out_;
  std::vector<Entry> table_;
};

/// Checks the header and the section table of `file` and returns the
/// table: the magic and version against `format`, the header checksum,
/// the recorded size, a table (with its checksum) that closes the file,
/// the table checksum, and each entry inside [48, table_offset) and
/// 8-byte aligned. Section checksums are left to VerifySection. A failure
/// is a kParseError naming the check.
Result<std::vector<Entry>> ReadTable(std::string_view file,
                                     const Format& format);

/// Checks the bytes of section `index` of `file` (an entry ReadTable
/// returned) against its checksum.
Status VerifySection(std::string_view file, const Entry& entry,
                     std::size_t index);

/// Writes `bytes` to `path` through `path`.tmp renamed into place, so a
/// reader never sees a torn file. No fsync: an artifact can be rebuilt.
Status WriteFile(const std::string& path, std::string_view bytes);

}  // namespace sisyphus::core::section_file
