#include "durable/snapshot.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/binio.h"
#include "core/hash.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define SISYPHUS_HAVE_FSYNC 1
#endif

namespace sisyphus::durable {

namespace binio = core::binio;
namespace fs = std::filesystem;

namespace {

/// A magic word as its eight characters, '?' for a non-printable byte.
std::string MagicText(std::uint64_t magic) {
  std::string text(8, '?');
  for (int i = 0; i < 8; ++i) {
    const char c = static_cast<char>(magic >> (8 * i));
    if (c >= 0x20 && c < 0x7f) text[i] = c;
  }
  return text;
}

}  // namespace

std::string SnapshotPath(const std::string& dir, std::uint64_t seq) {
  char name[48];
  std::snprintf(name, sizeof(name), "snap-%020llu.bin",
                static_cast<unsigned long long>(seq));
  return (fs::path(dir) / name).string();
}

bool WriteSnapshotFile(const std::string& path, std::string_view payload,
                       std::string* error) {
  binio::Writer w;
  w.PutU64(kSnapshotMagic);
  w.PutString(payload);
  w.PutU64(core::Checksum64(payload));
  const std::string framed = std::move(w).Take();

  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    if (error != nullptr) {
      *error = "snapshot open failed: " + tmp + ": " + std::strerror(errno);
    }
    return false;
  }
  bool ok = std::fwrite(framed.data(), 1, framed.size(), file) ==
            framed.size();
  ok = std::fflush(file) == 0 && ok;
#if defined(SISYPHUS_HAVE_FSYNC)
  ok = fsync(fileno(file)) == 0 && ok;
#endif
  std::fclose(file);
  if (!ok) {
    if (error != nullptr) *error = "snapshot write failed: " + tmp;
    std::error_code ec;
    fs::remove(tmp, ec);
    return false;
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    if (error != nullptr) {
      *error = "snapshot rename failed: " + path + ": " + ec.message();
    }
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

SnapshotRead ReadSnapshotFile(const std::string& path) {
  SnapshotRead result;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    result.diagnostic = "snapshot unreadable: " + path;
    return result;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();

  binio::Reader r(bytes);
  const std::uint64_t magic = r.GetU64();
  std::string payload = r.GetString();
  const std::uint64_t checksum = r.GetU64();
  if (!r.ok() || r.remaining() != 0) {
    result.diagnostic = "snapshot torn or truncated: " + path;
    return result;
  }
  if (magic != kSnapshotMagic) {
    result.diagnostic = "snapshot bad magic \"" + MagicText(magic) +
                        "\" (this build reads \"" +
                        MagicText(kSnapshotMagic) + "\"): " + path;
    return result;
  }
  if (checksum != core::Checksum64(payload)) {
    result.diagnostic = "snapshot checksum mismatch: " + path;
    return result;
  }
  result.ok = true;
  result.payload = std::move(payload);
  return result;
}

std::vector<SnapshotEntry> ListSnapshots(const std::string& dir) {
  std::vector<SnapshotEntry> entries;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() != 29 || name.rfind("snap-", 0) != 0 ||
        name.compare(25, 4, ".bin") != 0) {
      continue;
    }
    // 20 digits, and no value past UINT64_MAX: a wrapped one would sort a
    // stray file as the newest snapshot, and pruning would then delete a
    // real one in its place.
    std::uint64_t seq = 0;
    const char* digits = name.data() + 5;
    const auto [end, error] = std::from_chars(digits, digits + 20, seq);
    if (error != std::errc() || end != digits + 20) continue;
    entries.push_back(SnapshotEntry{seq, entry.path().string()});
  }
  std::sort(entries.begin(), entries.end(),
            [](const SnapshotEntry& a, const SnapshotEntry& b) {
              return a.seq < b.seq;
            });
  return entries;
}

void PruneSnapshots(const std::string& dir, std::size_t keep) {
  std::vector<SnapshotEntry> entries = ListSnapshots(dir);
  if (entries.size() <= keep) return;
  std::error_code ec;
  for (std::size_t i = 0; i + keep < entries.size(); ++i) {
    fs::remove(entries[i].path, ec);
  }
}

}  // namespace sisyphus::durable
