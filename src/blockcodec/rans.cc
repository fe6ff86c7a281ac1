#include "blockcodec/rans.h"

#include <algorithm>
#include <cstring>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace threelc::blockcodec::rans {
namespace {

struct EncSymbol {
  // Renormalization threshold freq << 20, kept 64-bit: a probability-1
  // symbol (freq = 4096) has threshold 2^32, i.e. never renormalizes —
  // its encode step is the identity and carries zero information.
  std::uint64_t x_max;
  // ceil(2^64 / freq): the high half of x * rcp is floor(x / freq) for
  // every 32-bit x (see MakeEncSymbol).
  std::uint64_t rcp;
  std::uint32_t bias;       // cumulative start (+ 4095 when freq = 1)
  std::uint32_t cmpl_freq;  // kProbScale - freq
};

// Scale raw counts to sum exactly kProbScale, keeping every present
// symbol >= 1. Rounding drift is settled on the most frequent symbol.
void NormalizeFreqs(const std::uint64_t counts[256], std::uint64_t total,
                    std::uint32_t freq[256]) {
  std::uint32_t sum = 0;
  int largest = 0;
  for (int s = 0; s < 256; ++s) {
    if (counts[s] == 0) {
      freq[s] = 0;
      continue;
    }
    std::uint64_t f = counts[s] * kProbScale / total;
    if (f == 0) f = 1;
    freq[s] = static_cast<std::uint32_t>(f);
    sum += freq[s];
    if (freq[s] > freq[largest]) largest = s;
  }
  if (sum < kProbScale) freq[largest] += kProbScale - sum;
  // An excess comes only from the >= 1 floor, at most one unit per present
  // symbol; each pass trims the current largest, down to 1 at most.
  while (sum > kProbScale) {
    const std::uint32_t cut = std::min(freq[largest] - 1u, sum - kProbScale);
    freq[largest] -= cut;
    sum -= cut;
    for (int s = 0; s < 256; ++s) {
      if (freq[s] > freq[largest]) largest = s;
    }
  }
}

// With rcp = ceil(2^64 / f), x * rcp / 2^64 = x / f + d where
// 0 <= d < x / 2^64 < 2^-32 < 1 / f, so its floor is exactly floor(x / f)
// for every 32-bit state x. (A 32-bit reciprocal is exact only below
// 2^31, and a symbol with f > 2048 drives its state above that.) f = 1
// would need rcp = 2^64; it takes 2^64 - 1 instead, which yields
// q = x - 1 (states are never 0), and the lost 4095 is folded into the
// bias.
EncSymbol MakeEncSymbol(std::uint32_t start, std::uint32_t f) {
  EncSymbol sym;
  // ((L >> kProbBits) * 65536) * f with L = 1<<16: the largest pre-encode
  // state that keeps the post-encode state below 2^32.
  sym.x_max = std::uint64_t{f} << 20;
  sym.cmpl_freq = kProbScale - f;
  if (f == 1) {
    sym.rcp = ~std::uint64_t{0};
    sym.bias = start + kProbScale - 1;
  } else {
    sym.rcp = ~std::uint64_t{0} / f + 1;
    sym.bias = start;
  }
  return sym;
}

// One encode step: renormalize (at most one 16-bit word — a 32-bit state
// shifted right by 16 is always below the minimum threshold 1<<20), then
// push the symbol onto the state. The renorm is branchless: the word is
// written unconditionally and the cursor advances only when it counts,
// because the spill/no-spill choice is data-dependent and mispredicts.
inline std::uint32_t EncStep(std::uint32_t x, const EncSymbol& sym,
                             std::uint16_t*& sp) {
  const bool renorm = x >= sym.x_max;
  *sp = static_cast<std::uint16_t>(x);
  sp += renorm;
  x >>= renorm * 16u;  // a shift, not a select: GCC would branch on it
  const auto q = static_cast<std::uint32_t>(
      (static_cast<unsigned __int128>(x) * sym.rcp) >> 64);
  return x + sym.bias + q * sym.cmpl_freq;
}

// Table frequencies are at most kProbScale = 2^12, so two 7-bit groups
// always suffice.
void AppendFreq(std::uint32_t f, util::ByteBuffer& out) {
  if (f < 0x80) {
    out.AppendU8(static_cast<std::uint8_t>(f));
    return;
  }
  out.AppendU8(static_cast<std::uint8_t>(0x80 | (f & 0x7F)));
  out.AppendU8(static_cast<std::uint8_t>(f >> 7));
}

std::uint32_t ReadFreq(util::ByteReader& reader) {
  const std::uint8_t lo = reader.ReadU8();
  if ((lo & 0x80) == 0) return lo;
  const std::uint8_t hi = reader.ReadU8();
  if (hi == 0 || (hi & 0x80) != 0) {
    throw std::runtime_error("rans: malformed frequency varint");
  }
  return (std::uint32_t{hi} << 7) | (lo & 0x7Fu);
}

inline std::uint16_t Load16(const std::uint8_t* p) {
  std::uint16_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

bool Encode(util::ByteSpan raw, util::ByteBuffer& out, std::size_t limit) {
  const std::size_t n = raw.size();
  if (n == 0) return limit > 0;

  // Four sub-histograms dodge the store-forwarding stall a skewed input
  // hits when consecutive bytes bump the same counter.
  std::uint64_t counts4[4][256] = {};
  std::size_t i4 = 0;
  for (; i4 + 4 <= n; i4 += 4) {
    ++counts4[0][raw[i4]];
    ++counts4[1][raw[i4 + 1]];
    ++counts4[2][raw[i4 + 2]];
    ++counts4[3][raw[i4 + 3]];
  }
  for (; i4 < n; ++i4) ++counts4[0][raw[i4]];
  std::uint64_t counts[256];
  for (int s = 0; s < 256; ++s) {
    counts[s] = counts4[0][s] + counts4[1][s] + counts4[2][s] + counts4[3][s];
  }
  std::uint32_t freq[256];
  NormalizeFreqs(counts, n, freq);

  const std::size_t base = out.size();
  EncSymbol syms[256];
  std::uint32_t cum = 0;
  int present = 0;
  for (int s = 0; s < 256; ++s) {
    if (freq[s] == 0) continue;
    syms[s] = MakeEncSymbol(cum, freq[s]);
    cum += freq[s];
    ++present;
  }

  out.AppendU8(static_cast<std::uint8_t>(present - 1));
  for (int s = 0; s < 256; ++s) {
    if (freq[s] == 0) continue;
    out.AppendU8(static_cast<std::uint8_t>(s));
    AppendFreq(freq[s], out);
  }
  // Everything but the spill words; the stream only grows from here.
  const std::size_t fixed_bytes = out.size() - base + 8;
  if (fixed_bytes >= limit) {
    out.Resize(base);
    return false;
  }

  // ANS is LIFO: encode backward, spill renormalization words into a
  // scratch buffer, then emit them reversed so the decoder reads forward.
  // Symbol i belongs to state i & 1; walking backward two at a time keeps
  // the parity assignment and lets the two state updates overlap. Worst
  // case one spill word per symbol, so the scratch is sized to n + 1 and
  // written through a raw cursor (branchless EncStep writes one past the
  // live end).
  thread_local std::vector<std::uint16_t> spill;
  if (spill.size() < n + 1) spill.resize(n + 1);
  std::uint16_t* const sp_base = spill.data();
  std::uint16_t* sp = sp_base;
  std::uint32_t x0 = kStateLowerBound;
  std::uint32_t x1 = kStateLowerBound;
  std::size_t i = n;
  if (i & 1) {
    --i;
    x0 = EncStep(x0, syms[raw[i]], sp);  // even index when n is odd
  }
  // Symbols go in even-sized chunks so the budget check stays out of the
  // per-symbol loop.
  constexpr std::size_t kChunk = 128;
  while (i > 0) {
    const std::size_t stop = i > kChunk ? i - kChunk : 0;
    while (i > stop) {
      x1 = EncStep(x1, syms[raw[i - 1]], sp);
      x0 = EncStep(x0, syms[raw[i - 2]], sp);
      i -= 2;
    }
    if (fixed_bytes + 2 * static_cast<std::size_t>(sp - sp_base) >= limit) {
      out.Resize(base);
      return false;
    }
  }
  out.AppendU32(x0);
  out.AppendU32(x1);
  const std::size_t n_words = static_cast<std::size_t>(sp - sp_base);
  const std::size_t word_base = out.size();
  out.Resize(word_base + n_words * 2);
  std::uint8_t* wq = out.data() + word_base;
  for (std::size_t k = n_words; k-- > 0;) {
    std::memcpy(wq, sp_base + k, 2);
    wq += 2;
  }
  return true;
}

void Decode(util::ByteSpan encoded, std::size_t raw_size,
            util::ByteBuffer& out) {
  if (raw_size == 0) {
    if (!encoded.empty()) {
      throw std::runtime_error("rans: trailing bytes after empty block");
    }
    return;
  }
  util::ByteReader reader(encoded);

  // slot -> symbol over the full 4096-wide scale; a stack table, rebuilt
  // per block with one memset per present symbol.
  std::uint32_t freq[256] = {};
  std::uint32_t cum[256] = {};
  std::uint8_t slot_sym[kProbScale];
  const int present = reader.ReadU8() + 1;
  std::uint32_t sum = 0;
  int prev = -1;
  for (int k = 0; k < present; ++k) {
    const int s = reader.ReadU8();
    if (s <= prev) {
      throw std::runtime_error("rans: table symbols not strictly ascending");
    }
    prev = s;
    const std::uint32_t f = ReadFreq(reader);
    if (f == 0) throw std::runtime_error("rans: zero frequency in table");
    if (f > kProbScale - sum) {
      throw std::runtime_error("rans: frequency table does not sum to scale");
    }
    freq[s] = f;
    cum[s] = sum;
    std::memset(slot_sym + sum, s, f);
    sum += f;
  }
  if (sum != kProbScale) {
    throw std::runtime_error("rans: frequency table does not sum to scale");
  }

  std::uint32_t x0 = reader.ReadU32();
  std::uint32_t x1 = reader.ReadU32();
  if (x0 < kStateLowerBound || x1 < kStateLowerBound) {
    throw std::runtime_error("rans: initial state below lower bound");
  }
  const util::ByteSpan words = reader.ReadSpan(reader.remaining());
  const std::uint8_t* wp = words.data();
  const std::uint8_t* const wend = wp + words.size();

  // Pop one symbol off `st`. At most one refill follows: from any state
  // >= L the post-decode state is >= 16, so one 16-bit word always lifts
  // it back above L = 1<<16.
  const auto pop = [&](std::uint32_t& st) {
    const std::uint32_t slot = st & (kProbScale - 1);
    const std::uint8_t s = slot_sym[slot];
    st = freq[s] * (st >> kProbBits) + slot - cum[s];
    return s;
  };
  // Branchless refill for the fast path, where the caller guarantees a
  // readable word: the spill/no-spill choice is data-dependent and would
  // mispredict, so the word is always loaded and kept only when needed.
  const auto refill = [&](std::uint32_t& st) {
    const bool renorm = st < kStateLowerBound;
    const std::uint32_t word = Load16(wp);
    st = renorm ? (st << 16) | word : st;
    wp += renorm ? 2 : 0;
  };

  const std::size_t base = out.size();
  out.Resize(base + raw_size);
  std::uint8_t* dst = out.data() + base;
  std::size_t i = 0;
  // Two symbols consume at most two words.
  for (; i + 2 <= raw_size && wend - wp >= 4; i += 2) {
    dst[i] = pop(x0);
    refill(x0);
    dst[i + 1] = pop(x1);
    refill(x1);
  }
  for (; i < raw_size; ++i) {
    std::uint32_t& st = (i & 1) ? x1 : x0;
    dst[i] = pop(st);
    if (st < kStateLowerBound) {
      if (wend - wp < 2) throw std::runtime_error("rans: truncated stream");
      st = (st << 16) | Load16(wp);
      wp += 2;
    }
  }
  if (x0 != kStateLowerBound || x1 != kStateLowerBound) {
    throw std::runtime_error("rans: corrupt stream (final state mismatch)");
  }
  if (wp != wend) {
    throw std::runtime_error("rans: trailing bytes after stream");
  }
}

}  // namespace threelc::blockcodec::rans
