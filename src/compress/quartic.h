// Quartic encoding (paper §3.2): a fixed-length base-3 packing that folds
// five ternary values into one byte.
//
// Each ternary value q in {-1, 0, +1} becomes a digit d = q + 1 in
// {0, 1, 2}; five digits pack as d0*81 + d1*27 + d2*9 + d3*3 + d4, giving
// byte values 0..242 (3^5 = 243 <= 256). That is 1.6 bits per value —
// 0.95% above the log2(3) ≈ 1.585 information-theoretic bound and 20%
// smaller than the 2-bit packing TernGrad uses.
//
// The all-zeros group (digits 1,1,1,1,1) encodes as byte 121; byte values
// 243..255 never appear, which is exactly the headroom zero-run encoding
// uses. Inputs whose length is not a multiple of 5 are padded with
// quantized zeros (digit 1, as in the paper's Figure 3, keeping the tail
// byte zero-run compressible); decode drops the padding because the caller
// supplies the element count.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "util/byte_buffer.h"

namespace threelc::compress {

// Byte value of a group of five quantized zeros.
inline constexpr std::uint8_t kQuarticZeroByte = 121;  // 81+27+9+3+1
// Largest byte value quartic encoding can produce.
inline constexpr std::uint8_t kQuarticMaxByte = 242;   // 2*(81+27+9+3+1)
// Values per packed byte.
inline constexpr std::size_t kQuarticGroup = 5;

// Number of bytes QuarticEncode produces for n ternary values.
constexpr std::size_t QuarticEncodedSize(std::size_t n) {
  return (n + kQuarticGroup - 1) / kQuarticGroup;
}

// Digits of every legal byte, most significant first:
// kQuarticDigits[b][k] = b / 3^(4-k) % 3, in {0, 1, 2}. Decoding by table
// lookup replaces the paper's divide-and-modulo digit extraction.
using QuarticDigits = std::array<std::array<std::uint8_t, 5>, 243>;
inline constexpr QuarticDigits kQuarticDigits = [] {
  QuarticDigits t{};
  for (int b = 0; b <= kQuarticMaxByte; ++b) {
    int rest = b;
    for (int k = 4; k >= 0; --k) {
      t[b][k] = static_cast<std::uint8_t>(rest % 3);
      rest /= 3;
    }
  }
  return t;
}();

// Block kernel shared with the fused 3LC encoder: packs `groups` full
// groups of five ternary values, q[5g .. 5g+4], into dst[g].
void QuarticPackGroups(const std::int8_t* q, std::size_t groups,
                       std::uint8_t* dst);

// True when every byte is a legal quartic byte (<= kQuarticMaxByte).
bool QuarticBytesValid(util::ByteSpan in);

// Packs n ternary values (each in {-1, 0, +1}) into QuarticEncodedSize(n)
// bytes appended to `out`.
void QuarticEncode(const std::int8_t* q, std::size_t n, util::ByteBuffer& out);

// Unpacks n ternary values from `in` (must hold QuarticEncodedSize(n)
// bytes). Throws std::runtime_error if a byte exceeds kQuarticMaxByte.
void QuarticDecode(util::ByteSpan in, std::size_t n, std::int8_t* q);

// Reference 2-bit packing (TernGrad-style) used only by the ablation bench
// to quantify quartic encoding's 20% size advantage. 4 values per byte,
// 2 bits each (q+1 in {0,1,2}).
void TwoBitEncode(const std::int8_t* q, std::size_t n, util::ByteBuffer& out);
void TwoBitDecode(util::ByteSpan in, std::size_t n, std::int8_t* q);
constexpr std::size_t TwoBitEncodedSize(std::size_t n) { return (n + 3) / 4; }

}  // namespace threelc::compress
