// Tests for core::Checksum64, the integrity checksum of every framed file
// (audit.bin, timeline.bin, journal frames, snapshots): it is XXH64 to the
// published vectors, it reads the same value at any buffer alignment and
// through every tail path, and every single-bit flip and the seed move it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <string_view>

#include "core/hash.h"

namespace sisyphus {
namespace {

/// Deterministic, non-repeating filler bytes.
std::string PatternBytes(std::size_t n) {
  std::string bytes(n, '\0');
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  for (char& c : bytes) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    c = static_cast<char>(state >> 56);
  }
  return bytes;
}

TEST(Checksum64Test, MatchesXxh64Vectors) {
  EXPECT_EQ(core::Checksum64(""), 0xef46db3751d8e999ull);
  EXPECT_EQ(core::Checksum64("a"), 0xd24ec4f1a98c6e5bull);
  EXPECT_EQ(core::Checksum64("abc"), 0x44bc2cf5ad770999ull);
  EXPECT_EQ(core::Checksum64("Nobody inspects the spammish repetition"),
            0xfbcea83c8a378bf1ull);
  EXPECT_EQ(core::Checksum64(std::string_view()), core::Checksum64(""));
}

TEST(Checksum64Test, EveryLengthAndOffsetMatchesTheAlignedCopy) {
  // Lengths 0..96 cover the byte, 4-byte and 8-byte tails on their own
  // and after one, two and three 32-byte stripes.
  constexpr std::size_t kMaxLength = 96;
  const std::string source = PatternBytes(kMaxLength);
  alignas(8) char storage[8 + kMaxLength];
  std::set<std::uint64_t> distinct;
  for (std::size_t length = 0; length <= kMaxLength; ++length) {
    const std::string aligned = source.substr(0, length);
    const std::uint64_t expected = core::Checksum64(aligned);
    distinct.insert(expected);
    for (std::size_t offset = 0; offset < 8; ++offset) {
      std::memset(storage, 0x5a, sizeof(storage));
      std::memcpy(storage + offset, aligned.data(), length);
      EXPECT_EQ(core::Checksum64(std::string_view(storage + offset, length)),
                expected)
          << "length " << length << " at offset " << offset;
    }
  }
  // Each prefix of the pattern hashes differently.
  EXPECT_EQ(distinct.size(), kMaxLength + 1);
}

TEST(Checksum64Test, EverySingleBitFlipAndTheSeedChangeTheValue) {
  std::string bytes = PatternBytes(4096);
  const std::uint64_t base = core::Checksum64(bytes);
  std::set<std::uint64_t> flipped;
  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    char& byte = bytes[bit / 8];
    byte = static_cast<char>(byte ^ (1 << (bit % 8)));
    const std::uint64_t value = core::Checksum64(bytes);
    byte = static_cast<char>(byte ^ (1 << (bit % 8)));
    EXPECT_NE(value, base) << "flip of bit " << bit;
    flipped.insert(value);
  }
  EXPECT_EQ(flipped.size(), bytes.size() * 8);
  EXPECT_EQ(core::Checksum64(bytes), base);

  // The seed is mixed into every lane and into the short-input path.
  for (const std::string_view input :
       {std::string_view(), std::string_view("abc"),
        std::string_view(bytes)}) {
    const std::uint64_t unseeded = core::Checksum64(input);
    EXPECT_EQ(core::Checksum64(input, 0), unseeded);
    EXPECT_NE(core::Checksum64(input, 1), unseeded);
    EXPECT_NE(core::Checksum64(input, std::uint64_t{1} << 63), unseeded);
    EXPECT_NE(core::Checksum64(input, 1), core::Checksum64(input, 2));
  }
}

}  // namespace
}  // namespace sisyphus
