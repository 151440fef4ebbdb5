// The repo's two 64-bit hashes, one per purpose. Neither is cryptographic;
// both are stable across runs and platforms.
//
// - Fnv1a64: content digests whose VALUE is part of an output or of a
//   decision — cell and composition digests, shard choice (ShardOf),
//   manifest and detector fingerprints, the chaos kill step. It runs a
//   byte at a time, so it is kept off bulk data.
// - Checksum64: the integrity checksum of every framed file (audit.bin,
//   timeline.bin, journal frames, snapshots). It is XXH64: four 64-bit
//   lanes over 32-byte stripes of little-endian words, an order of
//   magnitude faster than Fnv1a64 on large buffers. Its value is never
//   content; a format that changes checksum function changes its version
//   word or magic.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace sisyphus::core {

/// FNV-1a offset basis: the hash of no bytes.
inline constexpr std::uint64_t kFnv1a64Offset = 0xcbf29ce484222325ull;

/// 64-bit FNV-1a over bytes. Stable across platforms and runs. Passing an
/// earlier result as `hash` continues that hash over more bytes:
/// Fnv1a64(b, Fnv1a64(a)) == Fnv1a64(a + b).
constexpr std::uint64_t Fnv1a64(std::string_view bytes,
                                std::uint64_t hash = kFnv1a64Offset) {
  for (char c : bytes) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// Hash rendered as fixed-width lowercase hex ("a1b2...", 16 chars).
inline std::string Fnv1a64Hex(std::string_view bytes) {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(Fnv1a64(bytes)));
  return buffer;
}

/// XXH64 of `bytes` under `seed`: the integrity checksum of every framed
/// file. Not incremental; each call hashes one contiguous buffer.
std::uint64_t Checksum64(std::string_view bytes, std::uint64_t seed = 0);

}  // namespace sisyphus::core
