// core::Checksum64 — XXH64 as xxHash's xxhash_spec.md defines it: four
// 64-bit lanes over 32-byte stripes, then the tail, then the avalanche
// step. Words are loaded with memcpy and read as little-endian on any
// host, so the value depends on neither alignment nor byte order.
#include "core/hash.h"

#include <bit>
#include <cstring>

namespace sisyphus::core {

namespace {

constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

/// Little-endian loads at any alignment and on any host.
std::uint64_t Load64(const char* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

std::uint64_t Load32(const char* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

std::uint64_t Round(std::uint64_t acc, std::uint64_t input) {
  acc += input * kPrime2;
  return std::rotl(acc, 31) * kPrime1;
}

std::uint64_t MergeRound(std::uint64_t acc, std::uint64_t lane) {
  acc ^= Round(0, lane);
  return acc * kPrime1 + kPrime4;
}

}  // namespace

std::uint64_t Checksum64(std::string_view bytes, std::uint64_t seed) {
  const char* p = bytes.data();
  const char* const end = p + bytes.size();
  std::uint64_t h = seed + kPrime5;
  if (bytes.size() >= 32) {
    std::uint64_t v1 = seed + kPrime1 + kPrime2;
    std::uint64_t v2 = seed + kPrime2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kPrime1;
    const char* const last_stripe = end - 32;
    do {
      v1 = Round(v1, Load64(p));
      v2 = Round(v2, Load64(p + 8));
      v3 = Round(v3, Load64(p + 16));
      v4 = Round(v4, Load64(p + 24));
      p += 32;
    } while (p <= last_stripe);
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = MergeRound(h, v1);
    h = MergeRound(h, v2);
    h = MergeRound(h, v3);
    h = MergeRound(h, v4);
  }
  h += static_cast<std::uint64_t>(bytes.size());

  for (; end - p >= 8; p += 8) {
    h ^= Round(0, Load64(p));
    h = std::rotl(h, 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    h ^= Load32(p) * kPrime1;
    h = std::rotl(h, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h ^= static_cast<std::uint8_t>(*p) * kPrime5;
    h = std::rotl(h, 11) * kPrime1;
  }

  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

}  // namespace sisyphus::core
