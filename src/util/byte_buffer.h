// Growable byte buffer with typed append/read helpers.
//
// Codec outputs, parameter-server messages, and on-wire payloads are all
// ByteBuffers. Reading happens through ByteReader, a non-owning cursor over
// a span of bytes, so decode paths never copy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace threelc::util {

using ByteSpan = std::span<const std::uint8_t>;

class ByteBuffer {
 public:
  ByteBuffer() = default;
  explicit ByteBuffer(std::size_t reserve_bytes) { data_.reserve(reserve_bytes); }

  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }
  const std::uint8_t* data() const { return data_.data(); }
  std::uint8_t* data() { return data_.data(); }
  ByteSpan span() const { return ByteSpan(data_.data(), data_.size()); }

  void Clear() { data_.clear(); }
  void Reserve(std::size_t n) { data_.reserve(n); }
  // Grow or shrink to exactly n bytes. Growth zero-fills the new bytes
  // (std::vector semantics) — there is deliberately no uninitialized-growth
  // path, so a Resize followed by a partial overwrite can never leak stale
  // heap bytes onto the wire. Callers that build payloads incrementally
  // should use the Append*/Push APIs instead of Resize + data().
  void Resize(std::size_t n) { data_.resize(n); }

  // Hands the bytes over without copying; the buffer is left empty.
  std::vector<std::uint8_t> Release() { return std::exchange(data_, {}); }

  void PushByte(std::uint8_t b) { data_.push_back(b); }

  void Append(const void* src, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(src);
    data_.insert(data_.end(), p, p + n);
  }
  void Append(ByteSpan s) { Append(s.data(), s.size()); }

  // Little-endian scalar writers (the library targets little-endian hosts;
  // a static_assert in byte_buffer.cc enforces this).
  template <typename T>
  void AppendScalar(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Append(&v, sizeof(T));
  }

  void AppendU8(std::uint8_t v) { PushByte(v); }
  void AppendU16(std::uint16_t v) { AppendScalar(v); }
  void AppendU32(std::uint32_t v) { AppendScalar(v); }
  void AppendU64(std::uint64_t v) { AppendScalar(v); }
  void AppendF32(float v) { AppendScalar(v); }
  void AppendF64(double v) { AppendScalar(v); }

  bool operator==(const ByteBuffer& o) const { return data_ == o.data_; }

 private:
  std::vector<std::uint8_t> data_;
};

// Non-owning read cursor. Throws std::out_of_range on underflow so corrupt
// payloads fail loudly instead of reading garbage.
class ByteReader {
 public:
  explicit ByteReader(ByteSpan s) : span_(s) {}
  explicit ByteReader(const ByteBuffer& b) : span_(b.span()) {}

  std::size_t remaining() const { return span_.size() - pos_; }
  std::size_t position() const { return pos_; }
  bool AtEnd() const { return pos_ == span_.size(); }

  std::uint8_t ReadByte() {
    Require(1);
    return span_[pos_++];
  }

  void ReadInto(void* dst, std::size_t n) {
    Require(n);
    std::memcpy(dst, span_.data() + pos_, n);
    pos_ += n;
  }

  template <typename T>
  T ReadScalar() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    ReadInto(&v, sizeof(T));
    return v;
  }

  std::uint8_t ReadU8() { return ReadByte(); }
  std::uint16_t ReadU16() { return ReadScalar<std::uint16_t>(); }
  std::uint32_t ReadU32() { return ReadScalar<std::uint32_t>(); }
  std::uint64_t ReadU64() { return ReadScalar<std::uint64_t>(); }
  float ReadF32() { return ReadScalar<float>(); }
  double ReadF64() { return ReadScalar<double>(); }

  // View of the next n bytes without copying; advances the cursor.
  ByteSpan ReadSpan(std::size_t n) {
    Require(n);
    ByteSpan out = span_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

 private:
  void Require(std::size_t n) const {
    if (remaining() < n) {
      throw std::out_of_range("ByteReader underflow: need " +
                              std::to_string(n) + " bytes, have " +
                              std::to_string(remaining()));
    }
  }

  ByteSpan span_;
  std::size_t pos_ = 0;
};

}  // namespace threelc::util
