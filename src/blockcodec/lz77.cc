#include "blockcodec/lz77.h"

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace threelc::blockcodec::lz {
namespace {

// The hash table is sized to the block: about two buckets per input
// byte, between 2^kMinHashBits and 2^kMaxHashBits entries. A ~700-byte
// per-tensor block then clears an 8 KB table instead of 128 KB.
constexpr unsigned kMinHashBits = 8;
constexpr unsigned kMaxHashBits = 15;

unsigned HashBitsFor(std::size_t n) {
  unsigned bits = kMinHashBits;
  while (bits < kMaxHashBits && (std::size_t{1} << bits) < 2 * n) ++bits;
  return bits;
}

inline std::uint32_t Load32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline std::uint64_t Load64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline std::uint32_t Hash(std::uint32_t v, unsigned shift) {
  return (v * 2654435761u) >> shift;
}

// Length of the common prefix of raw[a..] and raw[b..], capped at n - b
// (b > a). 8 bytes per probe until the tail.
inline std::size_t MatchLength(const std::uint8_t* raw, std::size_t a,
                               std::size_t b, std::size_t n) {
  std::size_t len = 0;
  const std::size_t max_len = n - b;
  while (len + 8 <= max_len) {
    const std::uint64_t diff = Load64(raw + a + len) ^ Load64(raw + b + len);
    if (diff != 0) {
      return len +
             static_cast<std::size_t>(__builtin_ctzll(diff)) / 8;
    }
    len += 8;
  }
  while (len < max_len && raw[a + len] == raw[b + len]) ++len;
  return len;
}

// 15-or-extended nibble continuation: each byte adds 0..255, first byte
// below 255 terminates.
inline std::uint8_t* PutExtended(std::size_t v, std::uint8_t* q) {
  while (v >= 255) {
    *q++ = 255;
    v -= 255;
  }
  *q++ = static_cast<std::uint8_t>(v);
  return q;
}

std::size_t ReadExtended(std::size_t base, util::ByteReader& reader) {
  std::uint8_t b;
  do {
    b = reader.ReadU8();
    base += b;
  } while (b == 255);
  return base;
}

// Emit one sequence through a raw cursor. The caller sizes the output for
// the literal-only worst case up front, so no bounds checks are needed
// here — this is the per-sequence hot path and buffer-growth checks were
// a measurable fraction of encode time on match-dense streams.
inline std::uint8_t* PutSequence(const std::uint8_t* raw, std::size_t lit_start,
                                 std::size_t lit_len, std::size_t match_len,
                                 std::size_t offset, std::uint8_t* q) {
  const std::size_t lit_nibble = lit_len < 15 ? lit_len : 15;
  const std::size_t match_extra = match_len == 0 ? 0 : match_len - kMinMatch;
  const std::size_t match_nibble = match_extra < 15 ? match_extra : 15;
  *q++ = static_cast<std::uint8_t>((lit_nibble << 4) | match_nibble);
  if (lit_nibble == 15) q = PutExtended(lit_len - 15, q);
  std::memcpy(q, raw + lit_start, lit_len);
  q += lit_len;
  if (match_len == 0) return q;
  const std::uint16_t off16 = static_cast<std::uint16_t>(offset);
  std::memcpy(q, &off16, 2);
  q += 2;
  if (match_nibble == 15) q = PutExtended(match_extra - 15, q);
  return q;
}

}  // namespace

void Compress(util::ByteSpan raw, util::ByteBuffer& out) {
  const std::size_t n = raw.size();
  if (n == 0) return;
  const std::uint8_t* p = raw.data();

  // Size the output for the worst case (all literals: one token byte plus
  // one length-extension byte per 255 literals) and write through a raw
  // cursor; trim to the actual size at the end.
  const std::size_t base = out.size();
  out.Resize(base + n + n / 255 + 16);
  std::uint8_t* q = out.data() + base;

  // Per-thread scratch: reallocating the table per call would cost more
  // than the search on small blocks, so reuse it across calls. Head-only
  // matching (most recent position per hash bucket, no chain walk) is the
  // LZ4 recipe: on the match-dense streams 3LC produces, walking chains
  // for a marginally longer match costs far more time than the extra
  // bytes it saves.
  thread_local std::vector<std::int32_t> head;
  const unsigned hash_bits = HashBitsFor(n);
  const unsigned shift = 32 - hash_bits;
  head.assign(std::size_t{1} << hash_bits, -1);

  std::size_t i = 0;
  std::size_t lit_start = 0;
  // Miss streak since the last match; drives LZ4-style skip acceleration
  // so high-entropy regions are crossed in growing strides instead of
  // paying a probe per byte.
  std::size_t misses = 0;
  while (i + kMinMatch <= n) {
    const std::uint32_t v = Load32(p + i);
    const std::uint32_t h = Hash(v, shift);
    const std::int32_t cand = head[h];
    head[h] = static_cast<std::int32_t>(i);
    std::size_t best_len = 0;
    std::size_t best_off = 0;
    if (cand >= 0) {
      const std::size_t c = static_cast<std::size_t>(cand);
      // The hash folds 32 bits into hash_bits, so verify the candidate
      // really starts with the same 4 bytes before scanning.
      if (i - c <= kMaxOffset && Load32(p + c) == v) {
        best_len = MatchLength(p, c, i, n);
        best_off = i - c;
      }
    }
    if (best_len >= kMinMatch) {
      misses = 0;
      q = PutSequence(p, lit_start, i - lit_start, best_len, best_off, q);
      const std::size_t end = i + best_len;
      // Sparse in-match inserts keep future matches findable across the
      // covered span without paying a table write per byte.
      for (std::size_t j = i + 1; j + kMinMatch <= n && j < end; j += 4) {
        head[Hash(Load32(p + j), shift)] = static_cast<std::int32_t>(j);
      }
      i = end;
      lit_start = end;
    } else {
      i += 1 + (misses++ >> 6);
    }
  }
  if (lit_start < n) {
    q = PutSequence(p, lit_start, n - lit_start, /*match_len=*/0,
                    /*offset=*/0, q);
  }
  out.Resize(static_cast<std::size_t>(q - out.data()));
}

void Decompress(util::ByteSpan encoded, std::size_t raw_size,
                util::ByteBuffer& out) {
  if (raw_size == 0) {
    if (!encoded.empty()) {
      throw std::runtime_error("lz: trailing bytes after empty block");
    }
    return;
  }
  const std::size_t base = out.size();
  out.Resize(base + raw_size);
  std::uint8_t* dst = out.data() + base;
  std::size_t pos = 0;

  util::ByteReader reader(encoded);
  while (pos < raw_size) {
    const std::uint8_t token = reader.ReadU8();
    std::size_t lit_len = token >> 4;
    if (lit_len == 15) lit_len = ReadExtended(lit_len, reader);
    if (lit_len > raw_size - pos) {
      throw std::runtime_error("lz: literal run past declared size");
    }
    const util::ByteSpan lits = reader.ReadSpan(lit_len);
    std::memcpy(dst + pos, lits.data(), lit_len);
    pos += lit_len;
    if (pos == raw_size) {
      // Final sequence: literals only.
      if ((token & 0x0F) != 0) {
        throw std::runtime_error("lz: match in final sequence");
      }
      break;
    }
    const std::size_t offset = reader.ReadU16();
    if (offset == 0 || offset > pos) {
      throw std::runtime_error("lz: match offset outside decoded prefix");
    }
    std::size_t match_extra = token & 0x0F;
    if (match_extra == 15) match_extra = ReadExtended(match_extra, reader);
    const std::size_t match_len = match_extra + kMinMatch;
    if (match_len > raw_size - pos) {
      throw std::runtime_error("lz: match run past declared size");
    }
    if (offset >= match_len) {
      std::memcpy(dst + pos, dst + pos - offset, match_len);
    } else {
      // Byte-wise so overlapping matches (offset < length) repeat their
      // period, which is exactly what the encoder meant.
      for (std::size_t k = 0; k < match_len; ++k) {
        dst[pos + k] = dst[pos + k - offset];
      }
    }
    pos += match_len;
  }
  if (!reader.AtEnd()) {
    throw std::runtime_error("lz: trailing bytes after final sequence");
  }
}

}  // namespace threelc::blockcodec::lz
