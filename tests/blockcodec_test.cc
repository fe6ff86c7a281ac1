// Tests for the pluggable lossless block-codec subsystem (blockcodec/):
// registry lookups, roundtrips over adversarial and realistic inputs
// (including real 3LC quartic/ZRE wire streams), strict decode behavior
// under fuzzed truncation and corruption, the compact rans table, and
// the wire envelope's best-of choice.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "blockcodec/block_codec.h"
#include "blockcodec/lz77.h"
#include "blockcodec/rans.h"
#include "compress/factory.h"
#include "tensor/tensor_ops.h"
#include "util/byte_buffer.h"
#include "util/rng.h"

namespace threelc::blockcodec {
namespace {

using util::ByteBuffer;
using util::ByteSpan;

std::vector<std::uint8_t> ToVector(const ByteBuffer& buf) {
  return std::vector<std::uint8_t>(buf.data(), buf.data() + buf.size());
}

std::vector<std::uint8_t> RandomBytes(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.Below(256));
  return v;
}

std::vector<std::uint8_t> RepetitiveBytes(std::size_t n) {
  // "abcabcabc..." with a periodic run of zeros — long matches at several
  // offsets plus a skewed byte histogram.
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = (i % 7 < 4) ? static_cast<std::uint8_t>('a' + i % 3) : 0;
  }
  return v;
}

// A real second-stage input: the 3LC (quartic + ZRE) wire payload of a
// gradient-like tensor, the byte stream the RPC path would hand to the
// block codec.
std::vector<std::uint8_t> QuarticStream(std::size_t elements,
                                        std::uint64_t seed) {
  auto codec =
      compress::MakeCompressor(compress::CodecConfig::ThreeLC(1.0f));
  util::Rng rng(seed);
  tensor::Tensor t(tensor::Shape{static_cast<std::int64_t>(elements)});
  tensor::FillNormal(t, rng, 0.0f, 0.02f);
  auto ctx = codec->MakeContext(t.shape());
  ByteBuffer out;
  codec->Encode(t, *ctx, out);
  return ToVector(out);
}

void ExpectRoundTrip(const BlockCodec& codec,
                     const std::vector<std::uint8_t>& raw) {
  ByteBuffer encoded;
  codec.Encode(ByteSpan(raw.data(), raw.size()), encoded);
  ByteBuffer decoded;
  codec.Decode(encoded.span(), raw.size(), decoded);
  ASSERT_EQ(decoded.size(), raw.size()) << codec.name();
  EXPECT_EQ(ToVector(decoded), raw) << codec.name();
}

TEST(BlockCodecRegistry, FindByNameAndId) {
  for (const BlockCodec* codec : All()) {
    EXPECT_EQ(Find(codec->name()), codec);
    EXPECT_EQ(FindById(codec->id()), codec);
  }
  EXPECT_EQ(Find("store")->id(), kStoreId);
  EXPECT_EQ(Find("lz")->id(), kLzId);
  EXPECT_EQ(Find("rans")->id(), kRansId);
  EXPECT_EQ(Find("lz+rans")->id(), kLzRansId);
}

TEST(BlockCodecRegistry, RejectsUnknownNamesAndIds) {
  EXPECT_EQ(Find("zstd"), nullptr);
  EXPECT_EQ(Find(""), nullptr);
  EXPECT_EQ(Find("LZ"), nullptr);  // names are case-sensitive
  EXPECT_EQ(FindById(4), nullptr);
  EXPECT_EQ(FindById(255), nullptr);
}

TEST(BlockCodecRegistry, KnownNamesListsAll) {
  EXPECT_EQ(KnownNames(), "store|lz|rans|lz+rans");
}

TEST(BlockCodecRoundTrip, EmptyInput) {
  for (const BlockCodec* codec : All()) {
    ExpectRoundTrip(*codec, {});
  }
}

TEST(BlockCodecRoundTrip, OneByte) {
  for (const BlockCodec* codec : All()) {
    ExpectRoundTrip(*codec, {0x5a});
    ExpectRoundTrip(*codec, {0x00});
  }
}

TEST(BlockCodecRoundTrip, IncompressibleRandom) {
  const auto raw = RandomBytes(64 * 1024 + 3, 17);
  for (const BlockCodec* codec : All()) {
    ExpectRoundTrip(*codec, raw);
  }
}

TEST(BlockCodecRoundTrip, HighlyRepetitive) {
  const auto raw = RepetitiveBytes(100000);
  for (const BlockCodec* codec : All()) {
    ExpectRoundTrip(*codec, raw);
  }
  // Repetitive input must actually compress under both stages.
  ByteBuffer lz_out, rans_out;
  Find("lz")->Encode(ByteSpan(raw.data(), raw.size()), lz_out);
  Find("rans")->Encode(ByteSpan(raw.data(), raw.size()), rans_out);
  EXPECT_LT(lz_out.size(), raw.size() / 10);
  EXPECT_LT(rans_out.size(), raw.size());
}

TEST(BlockCodecRoundTrip, AllZeros) {
  const std::vector<std::uint8_t> raw(50000, 0);
  for (const BlockCodec* codec : All()) {
    ExpectRoundTrip(*codec, raw);
  }
}

TEST(BlockCodecRoundTrip, RealQuarticStream) {
  const auto raw = QuarticStream(40000, 23);
  ASSERT_GT(raw.size(), 1000u);
  for (const BlockCodec* codec : All()) {
    ExpectRoundTrip(*codec, raw);
  }
  // §3.3 sanity: an entropy stage finds residual redundancy in the
  // quartic/ZRE stream (skewed byte histogram).
  ByteBuffer rans_out;
  Find("rans")->Encode(ByteSpan(raw.data(), raw.size()), rans_out);
  EXPECT_LT(rans_out.size(), raw.size());
}

TEST(BlockCodecRoundTrip, ManySizesAndSeeds) {
  for (const std::size_t n : {2u, 3u, 7u, 15u, 16u, 255u, 256u, 4097u}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto raw = RandomBytes(n, seed);
      for (const BlockCodec* codec : All()) {
        ExpectRoundTrip(*codec, raw);
      }
    }
  }
}

TEST(BlockCodecStrictDecode, WrongDeclaredSizeThrows) {
  const auto raw = RepetitiveBytes(5000);
  for (const BlockCodec* codec : All()) {
    ByteBuffer encoded;
    codec->Encode(ByteSpan(raw.data(), raw.size()), encoded);
    ByteBuffer decoded;
    EXPECT_THROW(codec->Decode(encoded.span(), raw.size() - 1, decoded),
                 std::exception)
        << codec->name();
    ByteBuffer decoded2;
    EXPECT_THROW(codec->Decode(encoded.span(), raw.size() + 1, decoded2),
                 std::exception)
        << codec->name();
  }
}

TEST(BlockCodecStrictDecode, FuzzedTruncationAlwaysThrows) {
  const auto raw = QuarticStream(20000, 5);
  util::Rng rng(99);
  for (const BlockCodec* codec : All()) {
    ByteBuffer encoded;
    codec->Encode(ByteSpan(raw.data(), raw.size()), encoded);
    for (int trial = 0; trial < 50; ++trial) {
      const std::size_t cut = rng.Below(encoded.size());
      ByteBuffer decoded;
      EXPECT_THROW(
          codec->Decode(ByteSpan(encoded.data(), cut), raw.size(), decoded),
          std::exception)
          << codec->name() << " truncated to " << cut;
    }
  }
}

TEST(BlockCodecStrictDecode, TrailingBytesAlwaysThrow) {
  const auto raw = RepetitiveBytes(3000);
  for (const BlockCodec* codec : All()) {
    ByteBuffer encoded;
    codec->Encode(ByteSpan(raw.data(), raw.size()), encoded);
    encoded.PushByte(0x00);
    ByteBuffer decoded;
    EXPECT_THROW(codec->Decode(encoded.span(), raw.size(), decoded),
                 std::exception)
        << codec->name();
  }
}

TEST(BlockCodecStrictDecode, FuzzedCorruptionNeverProducesSilentGarbage) {
  // Flip random bytes in valid streams: decode must either throw or —
  // for codecs without redundancy, like store — produce output whose
  // length still matches. No crash, no overrun (ASan-checked in CI).
  const auto raw = QuarticStream(10000, 7);
  util::Rng rng(1234);
  for (const BlockCodec* codec : All()) {
    ByteBuffer encoded;
    codec->Encode(ByteSpan(raw.data(), raw.size()), encoded);
    for (int trial = 0; trial < 100; ++trial) {
      std::vector<std::uint8_t> mut = ToVector(encoded);
      const std::size_t pos = rng.Below(mut.size());
      mut[pos] ^= static_cast<std::uint8_t>(1 + rng.Below(255));
      ByteBuffer decoded;
      try {
        codec->Decode(ByteSpan(mut.data(), mut.size()), raw.size(), decoded);
        EXPECT_EQ(decoded.size(), raw.size()) << codec->name();
      } catch (const std::exception&) {
        // Expected for most corruptions.
      }
    }
  }
}

TEST(BlockCodecLz, CompressesLongRunsWithExtendedLengths) {
  // > 15 literals and > 19 match bytes force both extension paths.
  std::vector<std::uint8_t> raw = RandomBytes(40, 3);
  raw.insert(raw.end(), 3000, 0xAB);
  raw.insert(raw.end(), raw.begin(), raw.begin() + 100);
  ExpectRoundTrip(*Find("lz"), raw);
  ByteBuffer out;
  lz::Compress(ByteSpan(raw.data(), raw.size()), out);
  EXPECT_LT(out.size(), raw.size() / 2);
}

TEST(BlockCodecLz, RejectsBadOffsets) {
  // token: 1 literal + match; offset 2 with only 1 decoded byte.
  const std::vector<std::uint8_t> bad = {0x10, 0x41, 0x02, 0x00};
  ByteBuffer decoded;
  EXPECT_THROW(lz::Decompress(ByteSpan(bad.data(), bad.size()), 10, decoded),
               std::runtime_error);
  // Offset 0 is never valid.
  const std::vector<std::uint8_t> zero_off = {0x10, 0x41, 0x00, 0x00};
  ByteBuffer decoded2;
  EXPECT_THROW(
      lz::Decompress(ByteSpan(zero_off.data(), zero_off.size()), 10,
                     decoded2),
      std::runtime_error);
}

TEST(BlockCodecRans, RejectsBadFrequencyTable) {
  const auto raw = RepetitiveBytes(1000);
  ByteBuffer encoded;
  rans::Encode(ByteSpan(raw.data(), raw.size()), encoded);
  // Bump the symbol count: the table no longer parses to the scale.
  std::vector<std::uint8_t> mut = ToVector(encoded);
  mut[0] ^= 0x01;
  ByteBuffer decoded;
  EXPECT_THROW(
      rans::Decode(ByteSpan(mut.data(), mut.size()), raw.size(), decoded),
      std::runtime_error);
}

// The table lists only the symbols present: a block of a dozen distinct
// bytes pays a few dozen header bytes, not a 256-entry table.
TEST(BlockCodecRans, CompactHeaderOnSmallBlocks) {
  std::vector<std::uint8_t> raw(700);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    raw[i] = (i % 5 == 0) ? static_cast<std::uint8_t>(200 + i % 12) : 7;
  }
  ByteBuffer encoded;
  ASSERT_TRUE(rans::Encode(ByteSpan(raw.data(), raw.size()), encoded));
  EXPECT_EQ(encoded.data()[0], 12);  // 13 symbols present
  EXPECT_LT(encoded.size(), raw.size() / 2);
  ExpectRoundTrip(*Find("rans"), raw);

  // One symbol: count byte, symbol, 2-byte frequency 4096, both states.
  const std::vector<std::uint8_t> zeros(700, 0);
  ByteBuffer single;
  rans::Encode(ByteSpan(zeros.data(), zeros.size()), single);
  EXPECT_EQ(single.size(), 1u + 1u + 2u + 8u);
  ExpectRoundTrip(*Find("rans"), zeros);
}

// Handcrafted tables: each must be refused before any symbol is decoded.
TEST(BlockCodecRans, RejectsMalformedCompactTables) {
  const auto decode = [](std::vector<std::uint8_t> table) {
    // Append both initial states at L; the payload itself is irrelevant.
    for (int k = 0; k < 2; ++k) {
      table.insert(table.end(), {0x00, 0x00, 0x01, 0x00});
    }
    ByteBuffer decoded;
    rans::Decode(ByteSpan(table.data(), table.size()), 16, decoded);
  };
  // 4096 = 0x80 | (4096 & 0x7f), 4096 >> 7 = {0x80, 0x20}; 2048 = {0x80, 0x10}.
  const auto expect_reject = [&](std::vector<std::uint8_t> table,
                                 const char* want) {
    try {
      decode(std::move(table));
      ADD_FAILURE() << "accepted a table that should fail with: " << want;
    } catch (const std::exception& e) {
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << e.what();
    }
  };
  expect_reject({1, 5, 0x80, 0x10, 5, 0x80, 0x10}, "strictly ascending");
  expect_reject({1, 6, 0x80, 0x10, 5, 0x80, 0x10}, "strictly ascending");
  expect_reject({1, 5, 0x00, 6, 0x80, 0x20}, "zero frequency");
  expect_reject({1, 5, 0x64, 6, 0x64}, "sum to scale");
  expect_reject({0, 5, 0x80, 0x10}, "sum to scale");
  expect_reject({1, 5, 0x80, 0x20, 6, 0x01}, "sum to scale");
  expect_reject({0, 5, 0x80, 0x00}, "varint");        // non-minimal
  expect_reject({0, 5, 0x80, 0xA0, 0x00}, "varint");  // a third byte
  // Truncated inside the table.
  EXPECT_THROW(decode({2, 5, 0x80}), std::exception);
  // A well-formed single-symbol table decodes (the states are at L).
  std::vector<std::uint8_t> ok = {0, 5, 0x80, 0x20};
  for (int k = 0; k < 2; ++k) ok.insert(ok.end(), {0x00, 0x00, 0x01, 0x00});
  ByteBuffer decoded;
  rans::Decode(ByteSpan(ok.data(), ok.size()), 16, decoded);
  EXPECT_EQ(ToVector(decoded), std::vector<std::uint8_t>(16, 5));
}

// A budgeted encode either produces exactly the unbudgeted stream or
// gives up leaving the output untouched.
TEST(BlockCodecRans, EncodeLimitIsExact) {
  for (const auto& raw : {RepetitiveBytes(5000), RandomBytes(3000, 9),
                          QuarticStream(30000, 4)}) {
    const ByteSpan span(raw.data(), raw.size());
    ByteBuffer full;
    ASSERT_TRUE(rans::Encode(span, full));
    for (const std::size_t limit :
         {std::size_t{0}, std::size_t{1}, full.size() / 2, full.size() - 1,
          full.size(), full.size() + 1}) {
      ByteBuffer out;
      out.AppendU8(0xEE);
      const bool kept = rans::Encode(span, out, limit);
      EXPECT_EQ(kept, full.size() < limit) << "limit " << limit;
      if (kept) {
        EXPECT_EQ(out.size(), 1 + full.size());
        EXPECT_EQ(std::memcmp(out.data() + 1, full.data(), full.size()), 0);
      } else {
        ASSERT_EQ(out.size(), 1u);
        EXPECT_EQ(out.data()[0], 0xEE);
      }
    }
  }
}

// A block where one byte is at least half of the input drives the state
// of that symbol's chain above 2^31 (its scaled frequency is > 2048), the
// range where a 32-bit reciprocal quotient is no longer exact. Every
// such block must round-trip.
TEST(BlockCodecRans, SkewedBlocksRoundTrip) {
  util::Rng rng(0x5e3d);
  for (int trial = 0; trial < 20000; ++trial) {
    const std::size_t n = 1 + rng.Below(2000);
    const double dominant_share = 0.5 + 0.5 * rng.Uniform();
    const auto dominant = static_cast<std::uint8_t>(rng.Below(256));
    const std::uint64_t alphabet = 1 + rng.Below(64);
    std::vector<std::uint8_t> raw(n);
    for (auto& b : raw) {
      b = rng.Bernoulli(dominant_share)
              ? dominant
              : static_cast<std::uint8_t>(rng.Below(alphabet));
    }
    ByteBuffer encoded;
    rans::Encode(ByteSpan(raw.data(), raw.size()), encoded);
    ByteBuffer decoded;
    try {
      rans::Decode(encoded.span(), raw.size(), decoded);
    } catch (const std::exception& e) {
      FAIL() << "trial " << trial << " (n=" << n << "): " << e.what();
    }
    ASSERT_EQ(ToVector(decoded), raw) << "trial " << trial << " (n=" << n
                                      << ")";
  }
}

// The stages EncodeBlock may pick from for each negotiated codec.
std::vector<const BlockCodec*> PipelineStages(const BlockCodec& codec) {
  switch (codec.id()) {
    case kLzId:
      return {Find("lz")};
    case kRansId:
      return {Find("rans")};
    case kLzRansId:
      return {Find("lz"), Find("rans"), Find("lz+rans")};
    default:
      return {};
  }
}

TEST(BlockEnvelope, RoundTripsAndRecordsCodecId) {
  const auto raw = RepetitiveBytes(10000);
  for (const BlockCodec* codec : All()) {
    ByteBuffer envelope;
    const std::uint8_t used =
        EncodeBlock(*codec, ByteSpan(raw.data(), raw.size()), envelope);
    EXPECT_EQ(envelope.data()[0], used);
    if (codec->id() == kStoreId) {
      EXPECT_EQ(used, kStoreId);
    } else {
      // Repetitive input always compresses, through one of the stages.
      bool is_stage = false;
      for (const BlockCodec* stage : PipelineStages(*codec)) {
        is_stage = is_stage || stage->id() == used;
      }
      EXPECT_TRUE(is_stage) << codec->name() << " used " << int{used};
    }
    ByteBuffer decoded;
    DecodeBlock(envelope.span(), raw.size(), decoded);
    EXPECT_EQ(ToVector(decoded), raw) << codec->name();
  }
}

// Best-of: whatever the negotiated codec, the envelope is never larger
// than store or any stage of its pipeline run alone (plus the 5-byte
// header), and it decodes byte-exactly. The inputs cover each winner:
// repeats over a flat histogram (lz), a skewed histogram without
// repeats (rans), both (lz+rans) and neither (store).
TEST(BlockEnvelope, KeepsTheSmallestCandidate) {
  std::vector<std::vector<std::uint8_t>> inputs = {
      {},
      {0x5a},
      RandomBytes(700, 3),
      RepetitiveBytes(700),
      RepetitiveBytes(20000),
      std::vector<std::uint8_t>(5000, 0),
      QuarticStream(176 * 176, 11),
      QuarticStream(192 * 176, 12),
      QuarticStream(200000, 13),
  };
  {
    // Periodic random bytes: every byte value equally likely, long repeats.
    const auto period = RandomBytes(97, 21);
    std::vector<std::uint8_t> v;
    while (v.size() < 3000) v.insert(v.end(), period.begin(), period.end());
    inputs.push_back(v);
  }
  {
    // i.i.d. skewed bytes: a lopsided histogram but few long repeats.
    util::Rng rng(22);
    std::vector<std::uint8_t> v(900);
    for (auto& b : v) {
      b = rng.Bernoulli(0.7) ? 0x40
                             : static_cast<std::uint8_t>(rng.Below(32));
    }
    inputs.push_back(v);
  }
  for (const BlockCodec* codec : All()) {
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      const auto& raw = inputs[k];
      const ByteSpan span(raw.data(), raw.size());
      ByteBuffer envelope;
      EncodeBlock(*codec, span, envelope);
      EXPECT_LE(envelope.size(), kEnvelopeHeaderBytes + raw.size())
          << codec->name() << " input " << k << " vs store";
      for (const BlockCodec* stage : PipelineStages(*codec)) {
        ByteBuffer alone;
        stage->Encode(span, alone);
        EXPECT_LE(envelope.size(), kEnvelopeHeaderBytes + alone.size())
            << codec->name() << " input " << k << " vs " << stage->name();
      }
      ByteBuffer decoded;
      DecodeBlock(envelope.span(), raw.size(), decoded);
      EXPECT_EQ(ToVector(decoded), raw) << codec->name() << " input " << k;
    }
  }
}

TEST(BlockEnvelope, IncompressibleInputFallsBackToStore) {
  const auto raw = RandomBytes(512, 11);
  ByteBuffer envelope;
  const std::uint8_t used =
      EncodeBlock(*Find("lz+rans"), ByteSpan(raw.data(), raw.size()),
                  envelope);
  EXPECT_EQ(used, kStoreId);
  EXPECT_EQ(envelope.size(), kEnvelopeHeaderBytes + raw.size());
  ByteBuffer decoded;
  DecodeBlock(envelope.span(), raw.size(), decoded);
  EXPECT_EQ(ToVector(decoded), raw);
}

TEST(BlockEnvelope, RejectsUnknownCodecId) {
  ByteBuffer envelope;
  envelope.AppendU8(200);
  envelope.AppendU32(4);
  envelope.AppendU32(0);
  ByteBuffer decoded;
  EXPECT_THROW(DecodeBlock(envelope.span(), 1 << 20, decoded),
               std::runtime_error);
}

TEST(BlockEnvelope, RejectsOversizedDeclaredRawSize) {
  const auto raw = RepetitiveBytes(4096);
  ByteBuffer envelope;
  EncodeBlock(*Find("lz"), ByteSpan(raw.data(), raw.size()), envelope);
  ByteBuffer decoded;
  EXPECT_THROW(DecodeBlock(envelope.span(), raw.size() - 1, decoded),
               std::runtime_error);
}

TEST(BlockEnvelope, RejectsTruncatedHeader) {
  ByteBuffer envelope;
  envelope.AppendU8(kLzId);
  envelope.AppendU16(7);  // half a raw-size field
  ByteBuffer decoded;
  EXPECT_THROW(DecodeBlock(envelope.span(), 1 << 20, decoded),
               std::exception);
}

}  // namespace
}  // namespace threelc::blockcodec
