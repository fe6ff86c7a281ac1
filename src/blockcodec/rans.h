// Static order-0 rANS (range asymmetric numeral system) entropy coder.
//
// Two interleaved 32-bit states with 16-bit-word renormalization and a
// 12-bit frequency scale (kProbScale = 4096). The stream layout is:
//
//   offset  size  field
//   ------  ----  -----------------------------------------------
//        0     1  k - 1, where k (1..256) is the number of distinct
//                 symbols present in the block
//        1     t  frequency table, t = 2k..3k bytes: for each present
//                 symbol in strictly ascending order, the u8 symbol and
//                 then its scaled frequency (1..4096) as a 1-2 byte
//                 varint (7 bits per byte, low group first, high bit set
//                 = one more byte follows)
//      1+t     4  final encoder state 0 (u32 LE) = decoder's initial state 0
//      5+t     4  final encoder state 1 (u32 LE) = decoder's initial state 1
//      9+t     n  renormalization words (u16 LE), in decode order
//
// The table lists only the symbols that occur, so a 700-byte block of a
// dozen distinct bytes pays ~25 header bytes instead of a 512-byte table.
// (Protocol v6 and checkpoint container v1 carried the old 256 x u16
// table; those versions are rejected before any payload is decoded.)
//
// Symbol i is coded by state i & 1; the two dependency chains run in
// parallel in the hot loops, which is the main reason this beats a
// single-state byte-renorm coder by >2x in throughput. The encoder walks
// the input backward (ANS is LIFO) starting both states from L = 1<<16
// and spills a 16-bit word whenever a state would overflow; the decoder
// consumes those words forward and must land both states back on exactly
// L after the last symbol. Decode rejects a table whose symbols are not
// strictly ascending, a zero or over-long frequency, a table that does
// not sum to kProbScale, a final state != L and trailing bytes, so
// corrupt streams loudly fail rather than decode to garbage. Empty input
// encodes to empty output.
//
// Frequencies are normalized to the 4096 scale with every present symbol
// kept >= 1 (a symbol that occurs must stay encodable); rounding drift
// is settled on the most frequent symbol where it distorts the ratio
// least. Division in the encoder hot loop is done via precomputed 33-bit
// reciprocals (multiply + add + shift), exact for every 32-bit state.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/byte_buffer.h"

namespace threelc::blockcodec::rans {

inline constexpr unsigned kProbBits = 12;
inline constexpr std::uint32_t kProbScale = 1u << kProbBits;
// Lower bound of the normalized state interval [L, 65536*L).
inline constexpr std::uint32_t kStateLowerBound = 1u << 16;

// Append the encoded form of `raw` to `out` and return true — unless the
// encoded form would be `limit` bytes or more, in which case `out` is
// left as it was and the result is false. The check runs every few
// hundred symbols, so a losing candidate stops early instead of paying
// for the whole block.
bool Encode(util::ByteSpan raw, util::ByteBuffer& out,
            std::size_t limit = SIZE_MAX);

// Append exactly `raw_size` decoded bytes to `out`, consuming all of
// `encoded`. Throws std::runtime_error / std::out_of_range on truncated
// input, a malformed frequency table, a final state != L, or trailing
// bytes.
void Decode(util::ByteSpan encoded, std::size_t raw_size,
            util::ByteBuffer& out);

}  // namespace threelc::blockcodec::rans
