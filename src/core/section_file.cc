#include "core/section_file.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "core/hash.h"

namespace sisyphus::core::section_file {
namespace {

Error Malformed(std::string what) {
  return Error(ErrorCode::kParseError, std::move(what));
}

}  // namespace

void PadTo8(binio::Writer& w) {
  while (w.size() % 8 != 0) w.PutU8(0);
}

Builder::Builder() {
  // The header's slot; Finish writes it once the table is placed.
  for (std::uint64_t i = 0; i < kHeaderSize / 8; ++i) out_.PutU64(0);
}

void Builder::Close(std::uint64_t kind, std::uint64_t run,
                    std::size_t offset) {
  const std::string_view bytes = std::string_view(out_.buffer()).substr(offset);
  table_.push_back({kind, run, offset, bytes.size(), Checksum64(bytes)});
}

std::string Builder::Finish(const Format& format) && {
  PadTo8(out_);
  const std::uint64_t table_offset = out_.size();
  for (const Entry& entry : table_) {
    out_.PutU64(entry.kind);
    out_.PutU64(entry.run);
    out_.PutU64(entry.offset);
    out_.PutU64(entry.size);
    out_.PutU64(entry.checksum);
  }
  out_.PutU64(
      Checksum64(std::string_view(out_.buffer()).substr(table_offset)));

  binio::Writer header;
  header.PutRaw(format.magic);
  header.PutU32(format.version);
  header.PutU32(0);  // flags
  header.PutU64(table_.size());
  header.PutU64(table_offset);
  header.PutU64(out_.size());
  header.PutU64(Checksum64(header.buffer()));
  std::string file = std::move(out_).Take();
  std::memcpy(file.data(), header.buffer().data(), header.size());
  return file;
}

Result<std::vector<Entry>> ReadTable(std::string_view file,
                                     const Format& format) {
  if (file.size() < kHeaderSize) {
    return Malformed("truncated header (file smaller than 48 bytes)");
  }
  if (file.substr(0, 8) != format.magic) {
    return Malformed("bad magic (want " + std::string(format.magic) + ")");
  }
  binio::Reader header(file.substr(8, kHeaderSize - 8));
  const std::uint32_t version = header.GetU32();
  header.GetU32();  // flags
  const std::uint64_t count = header.GetU64();
  const std::uint64_t table_offset = header.GetU64();
  const std::uint64_t file_size = header.GetU64();
  const std::uint64_t header_checksum = header.GetU64();
  if (version != format.version) {
    return Malformed("unsupported version " + std::to_string(version) +
                     " (this reader reads version " +
                     std::to_string(format.version) + ")");
  }
  if (Checksum64(file.substr(0, 40)) != header_checksum) {
    return Malformed("header checksum mismatch");
  }
  if (file_size != file.size()) {
    return Malformed("file size mismatch (truncated or appended)");
  }
  // The count is bounded by the bytes after the table offset before it is
  // multiplied, so no product or sum below can wrap.
  if (table_offset < kHeaderSize || table_offset > file_size - 8 ||
      count > (file_size - 8 - table_offset) / kEntrySize ||
      table_offset + count * kEntrySize + 8 != file_size) {
    return Malformed("section table does not close the file");
  }
  const std::string_view table_bytes =
      file.substr(table_offset, count * kEntrySize);
  if (Checksum64(table_bytes) !=
      binio::Reader(file.substr(file_size - 8)).GetU64()) {
    return Malformed("section table checksum mismatch");
  }

  std::vector<Entry> entries(count);
  binio::Reader reader(table_bytes);
  for (std::uint64_t i = 0; i < count; ++i) {
    Entry& entry = entries[i];
    entry.kind = reader.GetU64();
    entry.run = reader.GetU64();
    entry.offset = reader.GetU64();
    entry.size = reader.GetU64();
    entry.checksum = reader.GetU64();
    const auto fail = [&](const char* what) {
      return Malformed("section " + std::to_string(i) + " " + what);
    };
    if (entry.offset < kHeaderSize) return fail("starts inside the header");
    if (entry.offset > table_offset ||
        entry.size > table_offset - entry.offset) {
      return fail("overruns the table");
    }
    if (entry.offset % 8 != 0) return fail("is not 8-byte aligned");
  }
  return entries;
}

Status VerifySection(std::string_view file, const Entry& entry,
                     std::size_t index) {
  if (Checksum64(file.substr(entry.offset, entry.size)) == entry.checksum) {
    return Status::Ok();
  }
  return Malformed(
      "section " + std::to_string(index) + " checksum mismatch (kind " +
      std::to_string(entry.kind) + ", run " +
      (entry.run == kGlobal ? std::string("global")
                               : std::to_string(entry.run)) +
      ")");
}

Status WriteFile(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    return Error(ErrorCode::kInvalidArgument,
                 "cannot open " + tmp + " for writing");
  }
  const bool written =
      std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
  if (std::fclose(file) != 0 || !written) {
    std::remove(tmp.c_str());
    return Error(ErrorCode::kCapacity, "short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string why = std::strerror(errno);
    std::remove(tmp.c_str());
    return Error(ErrorCode::kInvalidArgument,
                 "cannot rename " + tmp + " to " + path + ": " + why);
  }
  return Status::Ok();
}

}  // namespace sisyphus::core::section_file
