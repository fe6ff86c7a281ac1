// Scalar reference kernels for the codec hot paths.
//
// These are the straightforward one-stage-per-pass implementations the
// optimized kernels in src/compress/ replaced: 3-value quantization with and
// without a residual, dequantization, quartic packing with divide-and-modulo
// decoding, byte-at-a-time zero-run coding, the five-pass 3LC encoder with
// its three-buffer decoder, and eightbit with its branching rounding.
// kernel_parity_test holds the optimized kernels to them byte for byte and
// bit for bit. Keep them simple: they are the specification.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "compress/compressor.h"
#include "compress/three_lc.h"
#include "tensor/tensor.h"
#include "util/byte_buffer.h"

namespace threelc::reference {

using compress::EncodeStats;
using compress::ThreeLCOptions;
using tensor::Tensor;
using util::ByteBuffer;
using util::ByteReader;
using util::ByteSpan;

inline constexpr std::size_t kGroup = 5;
inline constexpr std::uint8_t kZeroByte = 121;
inline constexpr std::uint8_t kMaxByte = 242;
inline constexpr std::uint8_t kRunBase = 243;
inline constexpr std::size_t kMaxRun = 14;

inline std::size_t QuarticSize(std::size_t n) {
  return (n + kGroup - 1) / kGroup;
}

inline float MaxAbs(const float* in, std::size_t n) {
  float m = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    const float a = std::fabs(in[i]);
    m = a > m ? a : m;
  }
  return m;
}

inline float Quantize3(const float* in, std::size_t n, float s,
                       std::int8_t* out) {
  const float M = MaxAbs(in, n) * s;
  if (M == 0.0f) {
    for (std::size_t i = 0; i < n; ++i) out[i] = 0;
    return 0.0f;
  }
  const float half = M * 0.5f;
  for (std::size_t i = 0; i < n; ++i) {
    const float v = in[i];
    out[i] = static_cast<std::int8_t>((v >= half) - (v <= -half));
  }
  return M;
}

inline float Quantize3WithResidual(const float* in, std::size_t n, float s,
                                   std::int8_t* out, float* residual) {
  const float M = MaxAbs(in, n) * s;
  if (M == 0.0f) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = 0;
      residual[i] = in[i];
    }
    return 0.0f;
  }
  const float half = M * 0.5f;
  for (std::size_t i = 0; i < n; ++i) {
    const float v = in[i];
    const std::int8_t q = static_cast<std::int8_t>((v >= half) - (v <= -half));
    out[i] = q;
    residual[i] = v - M * static_cast<float>(q);
  }
  return M;
}

inline void Dequantize3(const std::int8_t* q, std::size_t n, float M,
                        float* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = M * static_cast<float>(q[i]);
}

inline void QuarticEncode(const std::int8_t* q, std::size_t n,
                          ByteBuffer& out) {
  for (std::size_t g = 0; g < QuarticSize(n); ++g) {
    std::uint8_t digits[kGroup] = {1, 1, 1, 1, 1};  // padding: quantized 0
    for (std::size_t k = 0; k < kGroup && g * kGroup + k < n; ++k) {
      digits[k] = static_cast<std::uint8_t>(q[g * kGroup + k] + 1);
    }
    out.PushByte(static_cast<std::uint8_t>(digits[0] * 81 + digits[1] * 27 +
                                           digits[2] * 9 + digits[3] * 3 +
                                           digits[4]));
  }
}

inline void QuarticDecode(ByteSpan in, std::size_t n, std::int8_t* q) {
  if (in.size() != QuarticSize(n)) {
    throw std::runtime_error("reference QuarticDecode: size mismatch");
  }
  for (std::size_t g = 0; g < in.size(); ++g) {
    const std::uint8_t b = in[g];
    if (b > kMaxByte) {
      throw std::runtime_error("reference QuarticDecode: byte out of range");
    }
    const std::uint8_t digits[kGroup] = {
        static_cast<std::uint8_t>(b / 81 % 3),
        static_cast<std::uint8_t>(b / 27 % 3),
        static_cast<std::uint8_t>(b / 9 % 3),
        static_cast<std::uint8_t>(b / 3 % 3), static_cast<std::uint8_t>(b % 3)};
    for (std::size_t k = 0; k < kGroup && g * kGroup + k < n; ++k) {
      q[g * kGroup + k] = static_cast<std::int8_t>(digits[k]) - 1;
    }
  }
}

inline std::size_t ZeroRunEncode(ByteSpan in, ByteBuffer& out) {
  const std::size_t start = out.size();
  std::size_t i = 0;
  while (i < in.size()) {
    if (in[i] != kZeroByte) {
      out.PushByte(in[i++]);
      continue;
    }
    std::size_t run = 1;
    while (i + run < in.size() && in[i + run] == kZeroByte) ++run;
    i += run;
    while (run >= 2) {
      const std::size_t chunk = run < kMaxRun ? run : kMaxRun;
      out.PushByte(static_cast<std::uint8_t>(kRunBase + (chunk - 2)));
      run -= chunk;
    }
    if (run == 1) out.PushByte(kZeroByte);
  }
  return out.size() - start;
}

inline std::size_t ZeroRunDecode(ByteSpan in, ByteBuffer& out,
                                 std::size_t max_output) {
  const std::size_t start = out.size();
  for (const std::uint8_t b : in) {
    const std::size_t run =
        b >= kRunBase ? static_cast<std::size_t>(b - kRunBase) + 2 : 1;
    if (out.size() - start + run > max_output) {
      throw std::runtime_error("reference ZeroRunDecode: output overflow");
    }
    for (std::size_t k = 0; k < run; ++k) {
      out.PushByte(b >= kRunBase ? kZeroByte : b);
    }
  }
  return out.size() - start;
}

// The five-pass 3LC encoder: accumulate, quantize, quartic, zero-run, copy.
// `residual` is the error-accumulation buffer, null when the codec runs
// without error accumulation.
inline void ThreeLCEncode(const Tensor& in, const ThreeLCOptions& options,
                          std::vector<float>* residual, ByteBuffer& out,
                          EncodeStats* stats) {
  const std::size_t n = in.size();
  std::vector<float> accum(in.data(), in.data() + n);
  if (residual != nullptr) {
    for (std::size_t i = 0; i < n; ++i) accum[i] += (*residual)[i];
  }
  std::vector<std::int8_t> ternary(n);
  const float M =
      residual != nullptr
          ? Quantize3WithResidual(accum.data(), n, options.sparsity_multiplier,
                                  ternary.data(), residual->data())
          : Quantize3(accum.data(), n, options.sparsity_multiplier,
                      ternary.data());
  ByteBuffer quartic;
  QuarticEncode(ternary.data(), n, quartic);
  out.AppendF32(M);
  if (options.zero_run) {
    ByteBuffer zre;
    ZeroRunEncode(quartic.span(), zre);
    out.AppendU32(static_cast<std::uint32_t>(zre.size()));
    out.Append(zre.span());
    if (stats != nullptr) {
      stats->has_zero_run = true;
      stats->zre_bytes_in = quartic.size();
      stats->zre_bytes_out = zre.size();
    }
  } else {
    out.AppendU32(static_cast<std::uint32_t>(quartic.size()));
    out.Append(quartic.span());
  }
  if (stats != nullptr) {
    stats->has_symbols = true;
    for (const std::int8_t q : ternary) {
      if (q == 0) ++stats->zeros;
      else if (q > 0) ++stats->positives;
      else ++stats->negatives;
    }
    if (residual != nullptr) {
      stats->has_residual = true;
      double sq = 0.0;
      for (const float r : *residual) {
        sq += static_cast<double>(r) * static_cast<double>(r);
      }
      stats->residual_l2 = std::sqrt(sq);
    }
  }
}

inline void ThreeLCDecode(ByteReader& in, const ThreeLCOptions& options,
                          Tensor& out) {
  const std::size_t n = out.size();
  const float M = in.ReadF32();
  const std::uint32_t len = in.ReadU32();
  const ByteSpan payload = in.ReadSpan(len);
  std::vector<std::int8_t> ternary(n);
  if (options.zero_run) {
    ByteBuffer quartic;
    if (ZeroRunDecode(payload, quartic, QuarticSize(n)) != QuarticSize(n)) {
      throw std::runtime_error("reference 3LC decode: size mismatch");
    }
    QuarticDecode(quartic.span(), n, ternary.data());
  } else {
    QuarticDecode(payload, n, ternary.data());
  }
  Dequantize3(ternary.data(), n, M, out.data());
}

inline void EightBitEncode(const Tensor& in, ByteBuffer& out) {
  const std::size_t n = in.size();
  const float m = MaxAbs(in.data(), n);
  out.AppendF32(m);
  if (m == 0.0f) {
    for (std::size_t i = 0; i < n; ++i) out.PushByte(0);
    return;
  }
  const float scale = 127.0f / m;
  for (std::size_t i = 0; i < n; ++i) {
    const float v = in[i] * scale;
    const float r = v >= 0.0f ? v + 0.5f : v - 0.5f;
    out.PushByte(static_cast<std::uint8_t>(static_cast<std::int8_t>(r)));
  }
}

inline void EightBitDecode(ByteReader& in, Tensor& out) {
  const float m = in.ReadF32();
  const ByteSpan payload = in.ReadSpan(out.size());
  const float scale = m / 127.0f;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = scale * static_cast<float>(static_cast<std::int8_t>(payload[i]));
  }
}

}  // namespace threelc::reference
