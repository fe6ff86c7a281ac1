#include "compress/quartic.h"

#include <cstring>
#include <stdexcept>

#include "util/logging.h"

namespace threelc::compress {

void QuarticPackGroups(const std::int8_t* q, std::size_t groups,
                       std::uint8_t* dst) {
  // A group's five signed values load as one little-endian word. A per-byte
  // +1 without carries (SWAR) turns them into digits 0..2, and one multiply
  // by the place values (3^j in byte j) sums d_k * 3^(4-k) into byte 4.
  // Every partial sum is at most 242, so no carry crosses a byte.
  constexpr std::uint64_t kLow7 = 0x7F7F7F7F7Full;
  constexpr std::uint64_t kHigh = 0x8080808080ull;
  constexpr std::uint64_t kOnes = 0x0101010101ull;
  constexpr std::uint64_t kPlaces = 0x511B090301ull;  // 81 27 9 3 1
  for (std::size_t g = 0; g < groups; ++g) {
    const std::int8_t* p = q + g * kQuarticGroup;
    std::uint32_t head = 0;
    std::memcpy(&head, p, sizeof(head));
    const std::uint64_t x =
        head | std::uint64_t{static_cast<std::uint8_t>(p[4])} << 32;
    const std::uint64_t digits = ((x & kLow7) + kOnes) ^ (x & kHigh);
    dst[g] = static_cast<std::uint8_t>((digits * kPlaces) >> 32);
  }
}

bool QuarticBytesValid(util::ByteSpan in) {
  std::uint8_t max = 0;
  for (const std::uint8_t b : in) max = b > max ? b : max;
  return max <= kQuarticMaxByte;
}

void QuarticEncode(const std::int8_t* q, std::size_t n,
                   util::ByteBuffer& out) {
  const std::size_t full_groups = n / kQuarticGroup;
  const std::size_t base = out.size();
  out.Resize(base + QuarticEncodedSize(n));
  std::uint8_t* dst = out.data() + base;
  QuarticPackGroups(q, full_groups, dst);

  // Tail group: pad with quantized-zero values (digit 1), matching the
  // paper's Figure 3 where a 16-element zero tensor encodes to
  // 113 121 121 121 — the padded tail group is still the ZRE-compressible
  // zero byte. (The §3.2 step list says "pad with zeros"; the figure shows
  // the padding happens before the +1 offset, which is what we do.)
  const std::size_t tail = n % kQuarticGroup;
  if (tail != 0) {
    std::int8_t padded[kQuarticGroup] = {};
    for (std::size_t i = 0; i < tail; ++i) {
      padded[i] = q[full_groups * kQuarticGroup + i];
    }
    QuarticPackGroups(padded, 1, dst + full_groups);
  }
}

void QuarticDecode(util::ByteSpan in, std::size_t n, std::int8_t* q) {
  if (in.size() != QuarticEncodedSize(n)) {
    throw std::runtime_error("QuarticDecode: payload size mismatch");
  }
  if (!QuarticBytesValid(in)) {
    throw std::runtime_error("QuarticDecode: byte value out of range");
  }
  const std::size_t full_groups = n / kQuarticGroup;
  for (std::size_t g = 0; g < full_groups; ++g) {
    const auto& digits = kQuarticDigits[in[g]];
    std::int8_t* p = q + g * kQuarticGroup;
    for (std::size_t k = 0; k < kQuarticGroup; ++k) {
      p[k] = static_cast<std::int8_t>(digits[k]) - 1;
    }
  }
  const std::size_t tail = n % kQuarticGroup;
  if (tail != 0) {
    const auto& digits = kQuarticDigits[in[full_groups]];
    for (std::size_t i = 0; i < tail; ++i) {
      q[full_groups * kQuarticGroup + i] =
          static_cast<std::int8_t>(digits[i]) - 1;
    }
  }
}

void TwoBitEncode(const std::int8_t* q, std::size_t n, util::ByteBuffer& out) {
  const std::size_t base = out.size();
  out.Resize(base + TwoBitEncodedSize(n));
  std::uint8_t* dst = out.data() + base;
  for (std::size_t i = 0; i < TwoBitEncodedSize(n); ++i) dst[i] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t d = static_cast<std::uint8_t>(q[i] + 1);  // {0,1,2}
    dst[i / 4] |= static_cast<std::uint8_t>(d << ((i % 4) * 2));
  }
}

void TwoBitDecode(util::ByteSpan in, std::size_t n, std::int8_t* q) {
  if (in.size() != TwoBitEncodedSize(n)) {
    throw std::runtime_error("TwoBitDecode: payload size mismatch");
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t d = (in[i / 4] >> ((i % 4) * 2)) & 0x3;
    if (d > 2) throw std::runtime_error("TwoBitDecode: invalid digit");
    q[i] = static_cast<std::int8_t>(d) - 1;
  }
}

}  // namespace threelc::compress
