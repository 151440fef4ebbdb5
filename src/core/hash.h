// FNV-1a hashing for provenance fingerprints (run manifests hash the
// scenario options and fault plan so a reader can tell two runs apart
// without diffing configs). Not cryptographic — collision resistance is
// not a requirement here, stability across runs and platforms is.
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

}  // namespace sisyphus::core
