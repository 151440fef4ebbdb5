// Little-endian binary serialization for durable state (DESIGN.md §11).
//
// The durable subsystem persists journal frames and snapshots as flat
// byte streams. The format must be byte-stable across runs and thread
// counts (snapshots are compared against re-executed state during
// recovery verification), so this is a fixed little-endian wire format
// with no padding, no varints, and doubles bit-cast through u64 — the
// same value always encodes to the same bytes.
//
// Writer appends primitives to an in-memory buffer; Reader consumes the
// same encoding with a *sticky* failure flag: the first truncated or
// out-of-bounds read flips ok() to false and every subsequent read
// returns a zero value, so callers can decode a whole struct and check
// ok() once at the end instead of after every field.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace sisyphus::core::binio {

/// Appends fixed-width little-endian primitives to a byte buffer.
class Writer {
 public:
  void PutU8(std::uint8_t v) { buffer_.push_back(static_cast<char>(v)); }

  void PutU16(std::uint16_t v) { PutLittleEndian(v, 2); }

  void PutU32(std::uint32_t v) { PutLittleEndian(v, 4); }

  void PutU64(std::uint64_t v) { PutLittleEndian(v, 8); }

  void PutI64(std::int64_t v) { PutU64(static_cast<std::uint64_t>(v)); }

  void PutBool(bool v) { PutU8(v ? 1 : 0); }

  void PutDouble(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }

  /// Length-prefixed (u64) raw bytes.
  void PutString(std::string_view s) {
    PutU64(s.size());
    PutRaw(s);
  }

  /// Raw bytes with no length prefix (the reader must know the length).
  void PutRaw(std::string_view s) { buffer_.append(s.data(), s.size()); }

  /// Appends `count` bytes that fill(out) writes into the new space: one
  /// resize for a whole column instead of `count` single-byte appends.
  template <typename Fill>
  void PutFilled(std::size_t count, Fill&& fill) {
    const std::size_t at = buffer_.size();
    buffer_.resize(at + count);
    fill(buffer_.data() + at);
  }

  /// Overwrites the u64 written earlier at byte `offset`: a slot reserved
  /// for a value known only once what follows it has been written.
  void PatchU64(std::size_t offset, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buffer_[offset + i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
  }

  std::size_t size() const { return buffer_.size(); }
  void Reserve(std::size_t bytes) { buffer_.reserve(bytes); }
  const std::string& buffer() const { return buffer_; }
  std::string Take() && { return std::move(buffer_); }

 private:
  void PutLittleEndian(std::uint64_t v, int bytes) {
    char out[8];
    for (int i = 0; i < bytes; ++i) {
      out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
    buffer_.append(out, static_cast<std::size_t>(bytes));
  }

  std::string buffer_;
};

/// Decodes a Writer-produced byte stream. Reads past the end (or a
/// length prefix larger than the remaining bytes) set a sticky failure
/// flag and yield zero values; check ok() after decoding.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool ok() const { return ok_; }

  /// Marks the stream malformed (say, a decoded count the remaining bytes
  /// cannot hold); every later read yields zero.
  void Fail() { ok_ = false; }

  /// Bytes not yet consumed (0 when failed).
  std::size_t remaining() const { return ok_ ? data_.size() - pos_ : 0; }

  std::uint8_t GetU8() { return static_cast<std::uint8_t>(GetLittleEndian(1)); }

  std::uint16_t GetU16() {
    return static_cast<std::uint16_t>(GetLittleEndian(2));
  }

  std::uint32_t GetU32() {
    return static_cast<std::uint32_t>(GetLittleEndian(4));
  }

  std::uint64_t GetU64() { return GetLittleEndian(8); }

  std::int64_t GetI64() { return static_cast<std::int64_t>(GetU64()); }

  bool GetBool() { return GetU8() != 0; }

  double GetDouble() {
    const std::uint64_t bits = GetU64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::string GetString() { return std::string(GetRaw(GetU64())); }

  /// The next `length` raw bytes, viewed in place (PutRaw's inverse; a
  /// length-prefixed string is GetRaw(GetU64())).
  std::string_view GetRaw(std::uint64_t length) {
    if (!ok_ || length > data_.size() - pos_) {
      ok_ = false;
      return std::string_view();
    }
    const std::string_view out =
        data_.substr(pos_, static_cast<std::size_t>(length));
    pos_ += static_cast<std::size_t>(length);
    return out;
  }

 private:
  std::uint64_t GetLittleEndian(int bytes) {
    if (!ok_ || static_cast<std::size_t>(bytes) > data_.size() - pos_) {
      ok_ = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += static_cast<std::size_t>(bytes);
    return v;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Convenience helpers for homogeneous vectors. A count larger than the
/// remaining bytes can hold fails the reader and yields an empty vector.
inline void PutDoubleVector(Writer& w, const std::vector<double>& v) {
  w.PutU64(v.size());
  for (double x : v) w.PutDouble(x);
}

inline std::vector<double> GetDoubleVector(Reader& r) {
  const std::uint64_t n = r.GetU64();
  std::vector<double> out;
  if (n > r.remaining() / 8) {
    r.Fail();
    return out;
  }
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(r.GetDouble());
  return out;
}

inline void PutU64Vector(Writer& w, const std::vector<std::uint64_t>& v) {
  w.PutU64(v.size());
  for (std::uint64_t x : v) w.PutU64(x);
}

inline std::vector<std::uint64_t> GetU64Vector(Reader& r) {
  const std::uint64_t n = r.GetU64();
  std::vector<std::uint64_t> out;
  if (n > r.remaining() / 8) {
    r.Fail();
    return out;
  }
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(r.GetU64());
  return out;
}

}  // namespace sisyphus::core::binio
