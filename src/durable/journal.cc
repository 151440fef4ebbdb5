#include "durable/journal.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "core/binio.h"
#include "core/hash.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define SISYPHUS_HAVE_FSYNC 1
#endif

namespace sisyphus::durable {

namespace binio = core::binio;

std::uint64_t FrameChecksum(std::uint64_t seq, std::string_view payload) {
  return core::Checksum64(payload, seq);
}

namespace {

/// Frame magics of the older formats, recognised only to be refused by
/// name: such a frame is corruption wherever it sits, never a torn tail.
/// nullptr when `magic` is not one of them.
const char* OldFormat(std::uint64_t magic) {
  switch (magic) {
    case 0x4c4e524a59534953ull:
      return "frame magic SISYJRNL (the FNV-1a journal format, not read)";
    case 0x324e524a59534953ull:
      return "frame magic SISYJRN2 (the journal format without IXP "
             "crossings, not read)";
    default:
      return nullptr;
  }
}

std::string EncodeFrame(std::uint64_t seq, std::string_view payload) {
  binio::Writer w;
  w.PutU64(kJournalMagic);
  w.PutU64(seq);
  w.PutString(payload);
  w.PutU64(FrameChecksum(seq, payload));
  return std::move(w).Take();
}

bool SyncFile(std::FILE* file) {
  if (std::fflush(file) != 0) return false;
#if defined(SISYPHUS_HAVE_FSYNC)
  if (fsync(fileno(file)) != 0) return false;
#endif
  return true;
}

}  // namespace

JournalScan ScanJournal(const std::string& path, std::uint64_t first_seq) {
  JournalScan scan;
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return scan;  // no journal yet: empty, valid
  // One buffer sized from the file's length; each payload is copied out
  // of it once, into its frame.
  const std::streamoff length = in.tellg();
  std::string bytes(length > 0 ? static_cast<std::size_t>(length) : 0, '\0');
  in.seekg(0);
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  bytes.resize(static_cast<std::size_t>(in.gcount()));

  std::uint64_t expected_seq = first_seq;
  std::size_t offset = 0;
  while (offset < bytes.size()) {
    binio::Reader r(std::string_view(bytes).substr(offset));
    const std::uint64_t magic = r.GetU64();
    const std::uint64_t seq = r.GetU64();
    std::string payload = r.GetString();
    const std::uint64_t checksum = r.GetU64();

    const char* old_format = OldFormat(magic);
    std::string what;
    if (old_format != nullptr) {
      what = old_format;
    } else if (!r.ok()) {
      what = "incomplete frame";
    } else if (magic != kJournalMagic) {
      what = "bad frame magic";
    } else if (checksum != FrameChecksum(seq, payload)) {
      what = "frame checksum mismatch";
    } else if (seq != expected_seq) {
      what = "non-consecutive frame seq";
    }
    if (!what.empty()) {
      // A bad FINAL frame (its declared extent reaches end of file, or the
      // file simply ran out) is a torn tail from a crash mid-write —
      // benign. A bad frame with data beyond it means the middle of the
      // journal was damaged, and a frame of the older format means the
      // whole journal is one this build does not read.
      const std::size_t consumed =
          bytes.size() - offset - static_cast<std::size_t>(r.remaining());
      const bool reaches_eof = !r.ok() || offset + consumed >= bytes.size();
      if (reaches_eof && old_format == nullptr) {
        scan.torn_tail = true;
      } else {
        scan.corrupt = true;
        scan.diagnostic = what + " at journal offset " +
                          std::to_string(offset) + " (seq " +
                          std::to_string(expected_seq) + " expected)";
      }
      break;
    }
    const std::size_t consumed =
        bytes.size() - offset - static_cast<std::size_t>(r.remaining());
    offset += consumed;
    scan.valid_bytes = offset;
    scan.frames.push_back(JournalFrame{seq, std::move(payload)});
    ++expected_seq;
  }
  return scan;
}

Journal::~Journal() { Close(); }

Journal::Journal(Journal&& other) noexcept
    : file_(std::exchange(other.file_, nullptr)),
      fsync_every_(other.fsync_every_),
      unsynced_(other.unsynced_),
      appended_(other.appended_) {}

Journal& Journal::operator=(Journal&& other) noexcept {
  if (this != &other) {
    Close();
    file_ = std::exchange(other.file_, nullptr);
    fsync_every_ = other.fsync_every_;
    unsynced_ = other.unsynced_;
    appended_ = other.appended_;
  }
  return *this;
}

bool Journal::Open(const std::string& path, std::uint64_t valid_bytes,
                   std::uint64_t fsync_every, std::string* error) {
  Close();
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    std::filesystem::resize_file(path, valid_bytes, ec);
    if (ec) {
      if (error != nullptr) {
        *error = "journal truncate failed: " + ec.message();
      }
      return false;
    }
  }
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) {
    if (error != nullptr) {
      *error = std::string("journal open failed: ") + std::strerror(errno);
    }
    return false;
  }
  fsync_every_ = fsync_every == 0 ? 1 : fsync_every;
  unsynced_ = 0;
  appended_ = 0;
  return true;
}

bool Journal::Append(std::uint64_t seq, std::string_view payload) {
  if (file_ == nullptr) return false;
  const std::string frame = EncodeFrame(seq, payload);
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size()) {
    return false;
  }
  ++appended_;
  if (++unsynced_ >= fsync_every_) return Flush();
  return true;
}

bool Journal::Flush() {
  if (file_ == nullptr) return true;
  unsynced_ = 0;
  return SyncFile(file_);
}

bool Journal::AppendTorn(std::uint64_t seq, std::string_view payload,
                         std::size_t keep_bytes) {
  if (file_ == nullptr) return false;
  const std::string frame = EncodeFrame(seq, payload);
  const std::size_t n = std::min(keep_bytes, frame.size() - 1);
  if (std::fwrite(frame.data(), 1, n, file_) != n) return false;
  return SyncFile(file_);
}

void Journal::Close() {
  if (file_ != nullptr) {
    Flush();
    std::fclose(file_);
    file_ = nullptr;
  }
}

}  // namespace sisyphus::durable
