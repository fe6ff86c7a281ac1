// 3-value quantization with sparsity multiplication (paper §3.1).
//
//   M          = max(|T_in|) * s            (Eq. 1), 1 <= s < 2
//   T_q        = round(T_in / M)            (Eq. 2), values in {-1, 0, +1}
//   T_out      = M * T_q                    (Eq. 3)
//
// With s = 1 the maximum magnitude is preserved exactly across
// quantize/dequantize. A larger s shrinks |T_in / M| so more values round
// to zero — a sparser ternary tensor that zero-run encoding compresses
// harder — while dequantization *enlarges* the surviving values, preserving
// the tensor's average magnitude better than threshold sparsification.
//
// Error bound (paper §3.1 "Convergence"): round() adds at most 1/2 of an
// output unit, so max|T_in - T_out| <= M/2 < max(|T_in|) for s < 2.
#pragma once

#include <cstddef>
#include <cstdint>

namespace threelc::compress {

// Minimum/maximum legal sparsity multiplier.
inline constexpr float kMinSparsityMultiplier = 1.0f;
// s must stay strictly below 2 or values at max magnitude quantize to 0 and
// the M/2 < max|T_in| convergence bound breaks.
inline constexpr float kMaxSparsityMultiplier = 2.0f;  // exclusive

// Quantizes n floats into ternary {-1, 0, +1} int8 values.
// Returns M = max(|in|) * s. When the input is all zeros, M == 0 and the
// output is all zeros. `out` must hold n int8 values.
//
// Rounding is round-half-away-from-zero, computed branch-free as
// (v >= M/2) - (v <= -M/2), which auto-vectorizes.
float Quantize3(const float* in, std::size_t n, float s, std::int8_t* out);

// Dequantizes ternary values: out[i] = M * q[i].
void Dequantize3(const std::int8_t* q, std::size_t n, float M, float* out);

// Quantizes and simultaneously computes the residual error
// (residual[i] = in[i] - M * out[i]) in one pass. Returns M. The three
// buffers must not overlap. (The 3LC codec itself runs
// Quantize3AccumulateBlock, which also adds the residual to the input.)
float Quantize3WithResidual(const float* in, std::size_t n, float s,
                            std::int8_t* out, float* residual);

// ---------------------------------------------------------------------------
// Kernels shared by the functions above and the fused 3LC encoder, so the
// max rule and the rounding rule each exist once. Output buffers must not
// overlap any other argument.

// max(|in[i]|), 0 for n == 0. NaN elements are ignored (`a > m ? a : m`);
// computed over independent lanes, with exactly the scalar loop's result.
float MaxAbs(const float* in, std::size_t n);

// max(|in[i] + acc[i]|), with the same NaN rule as MaxAbs.
float MaxAbsSum(const float* in, const float* acc, std::size_t n);

// q[i] = round(in[i] / M) in {-1, 0, +1} for a precomputed M.
void Quantize3Block(const float* in, std::size_t n, float M, std::int8_t* q);

// Error-accumulation step: v = in[i] + residual[i], then q[i] = round(v / M)
// and residual[i] = v - M * q[i].
void Quantize3AccumulateBlock(const float* in, std::size_t n, float M,
                              std::int8_t* q, float* residual);

}  // namespace threelc::compress
