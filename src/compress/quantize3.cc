#include "compress/quantize3.h"

#include <cmath>

#include "util/logging.h"

namespace threelc::compress {

namespace {

// Independent running maxima. Compilers do not vectorize a float max
// *reduction* without fast-math, but they do vectorize the elementwise max
// of one 64-float row into the lanes array; 64 lanes is also too many for
// GCC to unroll the inner loop into scalar registers first.
constexpr std::size_t kMaxLanes = 64;

// `a > m ? a : m` keeps m when a is NaN. Max is exact and order-free for
// non-NaN values, so per-lane maxima combined at the end give exactly the
// scalar loop's result.
inline float MaxOf(float a, float m) { return a > m ? a : m; }

template <bool kWithAcc>
float MaxAbsImpl(const float* __restrict in, const float* __restrict acc,
                 std::size_t n) {
  float lanes[kMaxLanes] = {};
  std::size_t i = 0;
  for (; i + kMaxLanes <= n; i += kMaxLanes) {
    for (std::size_t k = 0; k < kMaxLanes; ++k) {
      const float v = kWithAcc ? in[i + k] + acc[i + k] : in[i + k];
      lanes[k] = MaxOf(std::fabs(v), lanes[k]);
    }
  }
  float m = 0.0f;
  for (; i < n; ++i) {
    m = MaxOf(std::fabs(kWithAcc ? in[i] + acc[i] : in[i]), m);
  }
  for (const float lane : lanes) m = MaxOf(lane, m);
  return m;
}

// round(v / M) for |v| <= M: +1 iff v >= M/2, -1 iff v <= -M/2, else 0 —
// round half away from zero, branch-free.
inline std::int8_t RoundTernary(float v, float half) {
  return static_cast<std::int8_t>((v >= half) - (v <= -half));
}

void CheckSparsity(float s) {
  THREELC_CHECK_MSG(s >= kMinSparsityMultiplier && s < kMaxSparsityMultiplier,
                    "sparsity multiplier out of [1, 2): " << s);
}

}  // namespace

float MaxAbs(const float* in, std::size_t n) {
  return MaxAbsImpl<false>(in, nullptr, n);
}

float MaxAbsSum(const float* in, const float* acc, std::size_t n) {
  return MaxAbsImpl<true>(in, acc, n);
}

void Quantize3Block(const float* __restrict in, std::size_t n, float M,
                    std::int8_t* __restrict q) {
  const float half = M * 0.5f;
  for (std::size_t i = 0; i < n; ++i) q[i] = RoundTernary(in[i], half);
}

void Quantize3AccumulateBlock(const float* __restrict in, std::size_t n,
                              float M, std::int8_t* __restrict q,
                              float* __restrict residual) {
  if (M == 0.0f) {
    for (std::size_t i = 0; i < n; ++i) {
      q[i] = 0;
      residual[i] = in[i] + residual[i];
    }
    return;
  }
  const float half = M * 0.5f;
  for (std::size_t i = 0; i < n; ++i) {
    const float v = in[i] + residual[i];
    const std::int8_t t = RoundTernary(v, half);
    q[i] = t;
    residual[i] = v - M * static_cast<float>(t);
  }
}

float Quantize3(const float* in, std::size_t n, float s, std::int8_t* out) {
  CheckSparsity(s);
  const float M = MaxAbs(in, n) * s;
  Quantize3Block(in, n, M, out);
  return M;
}

void Dequantize3(const std::int8_t* q, std::size_t n, float M, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = M * static_cast<float>(q[i]);
  }
}

float Quantize3WithResidual(const float* __restrict in, std::size_t n,
                            float s, std::int8_t* __restrict out,
                            float* __restrict residual) {
  CheckSparsity(s);
  const float M = MaxAbs(in, n) * s;
  if (M == 0.0f) {
    // All inputs are zeros (or NaN): nothing quantizes, all error remains.
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = 0;
      residual[i] = in[i];
    }
    return 0.0f;
  }
  const float half = M * 0.5f;
  for (std::size_t i = 0; i < n; ++i) {
    const float v = in[i];
    const std::int8_t t = RoundTernary(v, half);
    out[i] = t;
    residual[i] = v - M * static_cast<float>(t);
  }
  return M;
}

}  // namespace threelc::compress
