#include "compress/zero_run.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "compress/quartic.h"

namespace threelc::compress {

std::size_t ZeroRunEncode(const std::uint8_t* in, std::size_t n,
                          std::uint8_t* out) {
  std::size_t w = 0;
  std::size_t i = 0;
  while (i < n) {
    const std::uint8_t b = in[i];
    if (b != kQuarticZeroByte) {
      out[w++] = b;
      ++i;
      continue;
    }
    // Measure the run of 121s.
    std::size_t run = 1;
    while (i + run < n && in[i + run] == kQuarticZeroByte) ++run;
    i += run;
    // Greedily emit maximal chunks; a leftover single 121 passes through.
    for (; run >= kZreMaxRun; run -= kZreMaxRun) {
      out[w++] = static_cast<std::uint8_t>(kZreRunBase + (kZreMaxRun - 2));
    }
    if (run >= 2) {
      out[w++] = static_cast<std::uint8_t>(kZreRunBase + (run - 2));
    } else if (run == 1) {
      out[w++] = kQuarticZeroByte;
    }
  }
  return w;
}

std::size_t ZeroRunEncode(util::ByteSpan in, util::ByteBuffer& out) {
  const std::size_t start = out.size();
  out.Resize(start + ZeroRunMaxEncodedSize(in.size()));
  const std::size_t written =
      ZeroRunEncode(in.data(), in.size(), out.data() + start);
  out.Resize(start + written);
  return written;
}

std::size_t ZeroRunDecodedSize(util::ByteSpan in) {
  std::size_t total = 0;
  for (const std::uint8_t b : in) {
    // A run byte b stands for (b - 243) + 2 bytes, a literal for one.
    total += b >= kZreRunBase ? b - (kZreRunBase - 2) : 1;
  }
  return total;
}

std::size_t ZeroRunDecode(util::ByteSpan in, util::ByteBuffer& out,
                          std::size_t max_output) {
  const std::size_t total = ZeroRunDecodedSize(in);
  if (total > max_output) {
    throw std::runtime_error("ZeroRunDecode: output overflow");
  }
  const std::size_t start = out.size();
  out.Resize(start + total);
  std::uint8_t* dst = out.data() + start;
  for (const std::uint8_t b : in) {
    if (b >= kZreRunBase) {
      const std::size_t run = static_cast<std::size_t>(b - kZreRunBase) + 2;
      std::memset(dst, kQuarticZeroByte, run);
      dst += run;
    } else {
      *dst++ = b;
    }
  }
  return total;
}

void ZeroRunExpandDequantize(util::ByteSpan in, std::size_t n, float M,
                             float* out) {
  float value[3];
  for (int d = 0; d < 3; ++d) value[d] = M * static_cast<float>(d - 1);
  const float zero = value[1];
  std::size_t i = 0;
  for (const std::uint8_t b : in) {
    if (b >= kZreRunBase) {
      std::size_t count =
          (static_cast<std::size_t>(b - kZreRunBase) + 2) * kQuarticGroup;
      // A run may end with the padded last group.
      if (count > n - i) count = n - i;
      std::fill_n(out + i, count, zero);
      i += count;
    } else if (n - i >= kQuarticGroup) {
      const auto& digits = kQuarticDigits[b];
      for (std::size_t k = 0; k < kQuarticGroup; ++k) {
        out[i + k] = value[digits[k]];
      }
      i += kQuarticGroup;
    } else {
      const auto& digits = kQuarticDigits[b];
      for (std::size_t k = 0; i < n; ++k, ++i) out[i] = value[digits[k]];
    }
  }
}

}  // namespace threelc::compress
