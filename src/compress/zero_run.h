// Zero-run encoding (paper §3.3): run-length encoding specialized for
// quartic-encoded data.
//
// Quartic encoding emits byte 121 for a group of five quantized zeros and
// never emits 243..255. Zero-run encoding replaces k consecutive 121-bytes
// (2 <= k <= 14) with the single byte 243 + (k - 2); longer runs split
// greedily into 14-byte chunks. A lone 121 passes through unchanged, as do
// all other bytes (0..242).
//
// The scheme is byte-level only — no bit operations, no lookup tables —
// which is what keeps 3LC's computation overhead low compared to entropy
// coders. On an all-zero float32 tensor the full 3LC pipeline reaches
// 32 bits / (1.6 bits / 14) = 280x compression (paper §3.3).
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/byte_buffer.h"

namespace threelc::compress {

// First byte value used for encoded runs.
inline constexpr std::uint8_t kZreRunBase = 243;   // encodes a run of 2
// Longest run a single byte can encode.
inline constexpr std::size_t kZreMaxRun = 14;      // 243 + (14-2) = 255

// Appends the zero-run encoding of `in` (quartic bytes, all <= 242) to
// `out`. Returns the number of bytes appended.
std::size_t ZeroRunEncode(util::ByteSpan in, util::ByteBuffer& out);

// Raw form: writes the encoding of in[0, n) to `out` and returns its length
// (<= n). `out` may equal `in`: every output byte covers at least one input
// byte, so the scan never overwrites a byte it has yet to read. The fused
// 3LC encoder uses this to compact quartic bytes in place.
std::size_t ZeroRunEncode(const std::uint8_t* in, std::size_t n,
                          std::uint8_t* out);

// Appends the decoded quartic bytes to `out`. Throws std::runtime_error if
// the expansion would exceed `max_output` bytes (corruption guard), in which
// case nothing is appended. Returns the number of bytes appended.
std::size_t ZeroRunDecode(util::ByteSpan in, util::ByteBuffer& out,
                          std::size_t max_output);

// Number of quartic bytes `in` expands to.
std::size_t ZeroRunDecodedSize(util::ByteSpan in);

// One-pass decode of a quartic payload, zero-run encoded or not, straight
// into dequantized floats: each digit d becomes M * (d - 1), exactly as
// QuarticDecode + Dequantize3 compute it. Writes n floats, dropping the
// padding of the last group. The caller validates `in` first: bytes 0..242
// are groups, 243..255 are zero runs, and the groups must number exactly
// QuarticEncodedSize(n) (ZeroRunDecodedSize(in), or in.size() when every
// byte is <= kQuarticMaxByte).
void ZeroRunExpandDequantize(util::ByteSpan in, std::size_t n, float M,
                             float* out);

// Upper bound on encoded size (ZRE never expands: every output byte covers
// at least one input byte).
constexpr std::size_t ZeroRunMaxEncodedSize(std::size_t n) { return n; }

}  // namespace threelc::compress
