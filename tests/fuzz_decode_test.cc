// Failure-injection tests: decoders must survive corrupted, truncated, and
// adversarial payloads — either throwing a std::exception or producing a
// finite tensor (or, for block envelopes, exactly the declared bytes) —
// but never crashing or reading out of bounds.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "blockcodec/block_codec.h"
#include "compress/factory.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace threelc::compress {
namespace {

using tensor::Shape;
using tensor::Tensor;

struct FuzzCase {
  const char* label;
  CodecConfig config;
};

class DecodeFuzz : public ::testing::TestWithParam<FuzzCase> {
 protected:
  // Decode and check the result is either an exception or a finite tensor.
  static void TryDecode(const Compressor& codec, util::ByteSpan payload,
                        const Shape& shape) {
    Tensor out(shape);
    util::ByteReader reader(payload);
    try {
      codec.Decode(reader, out);
    } catch (const std::exception&) {
      return;  // rejecting corrupt input is correct behaviour
    }
    // Accepted: every value must at least be a real float.
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_TRUE(std::isfinite(out[i]) || std::isnan(out[i]) ||
                  std::isinf(out[i]));
    }
  }
};

TEST_P(DecodeFuzz, SingleByteFlips) {
  auto codec = MakeCompressor(GetParam().config);
  util::Rng rng(1);
  Tensor in(Shape{503});
  tensor::FillNormal(in, rng, 0.0f, 0.1f);
  auto ctx = codec->MakeContext(in.shape());
  util::ByteBuffer buf;
  codec->Encode(in, *ctx, buf);

  // Flip each of a sample of byte positions through several values.
  for (std::size_t pos = 0; pos < buf.size();
       pos += std::max<std::size_t>(1, buf.size() / 64)) {
    for (std::uint8_t delta : {0x01, 0x80, 0xFF}) {
      util::ByteBuffer corrupted;
      corrupted.Append(buf.span());
      corrupted.data()[pos] = static_cast<std::uint8_t>(
          corrupted.data()[pos] ^ delta);
      TryDecode(*codec, corrupted.span(), in.shape());
    }
  }
}

TEST_P(DecodeFuzz, Truncations) {
  auto codec = MakeCompressor(GetParam().config);
  util::Rng rng(2);
  Tensor in(Shape{257});
  tensor::FillNormal(in, rng, 0.0f, 1.0f);
  auto ctx = codec->MakeContext(in.shape());
  util::ByteBuffer buf;
  codec->Encode(in, *ctx, buf);
  for (std::size_t len = 0; len < buf.size();
       len += std::max<std::size_t>(1, buf.size() / 32)) {
    util::ByteBuffer truncated;
    truncated.Append(buf.data(), len);
    TryDecode(*codec, truncated.span(), in.shape());
  }
}

TEST_P(DecodeFuzz, RandomGarbage) {
  auto codec = MakeCompressor(GetParam().config);
  util::Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    util::ByteBuffer garbage;
    const std::size_t n = rng.Below(600);
    for (std::size_t i = 0; i < n; ++i) {
      garbage.PushByte(static_cast<std::uint8_t>(rng.Below(256)));
    }
    TryDecode(*codec, garbage.span(), Shape{101});
  }
}

TEST_P(DecodeFuzz, EmptyPayload) {
  auto codec = MakeCompressor(GetParam().config);
  TryDecode(*codec, util::ByteSpan{}, Shape{7});
}

// The second stage under the same rule: a corrupted or random block
// envelope — flipped bytes land in the compact rans table (symbol order,
// zero or oversized frequencies, varint bytes) as often as in the
// payload — either throws or decodes to exactly its declared raw size.
TEST(BlockDecodeFuzz, CorruptEnvelopesThrowOrKeepDeclaredSize) {
  auto codec = MakeCompressor(CodecConfig::ThreeLC(1.75f));
  util::Rng rng(4);
  Tensor in(Shape{176, 176});
  tensor::FillNormal(in, rng, 0.0f, 0.1f);
  auto ctx = codec->MakeContext(in.shape());
  util::ByteBuffer stream;
  codec->Encode(in, *ctx, stream);
  constexpr std::size_t kMaxRaw = 1 << 20;

  const auto try_decode = [&](const util::ByteBuffer& envelope) {
    util::ByteBuffer decoded;
    try {
      blockcodec::DecodeBlock(envelope.span(), kMaxRaw, decoded);
    } catch (const std::exception&) {
      return;
    }
    std::uint32_t declared;
    std::memcpy(&declared, envelope.data() + 1, sizeof(declared));
    EXPECT_EQ(decoded.size(), declared);
  };

  for (const blockcodec::BlockCodec* block : blockcodec::All()) {
    util::ByteBuffer envelope;
    // The codec's own stage, so every id's decoder is exercised.
    envelope.AppendU8(block->id());
    envelope.AppendU32(static_cast<std::uint32_t>(stream.size()));
    block->Encode(stream.span(), envelope);
    for (int trial = 0; trial < 300; ++trial) {
      util::ByteBuffer mutated;
      mutated.Append(envelope.span());
      const int flips = 1 + static_cast<int>(rng.Below(3));
      for (int f = 0; f < flips; ++f) {
        const std::size_t span = trial % 2 == 0
                                     ? std::min<std::size_t>(64, mutated.size())
                                     : mutated.size();
        const std::size_t pos = rng.Below(span);
        mutated.data()[pos] ^= static_cast<std::uint8_t>(1 + rng.Below(255));
      }
      try_decode(mutated);
    }
  }
  for (int trial = 0; trial < 300; ++trial) {
    util::ByteBuffer garbage;
    garbage.AppendU8(static_cast<std::uint8_t>(rng.Below(5)));
    garbage.AppendU32(static_cast<std::uint32_t>(rng.Below(4096)));
    const std::size_t n = rng.Below(600);
    for (std::size_t i = 0; i < n; ++i) {
      garbage.PushByte(static_cast<std::uint8_t>(rng.Below(256)));
    }
    try_decode(garbage);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecs, DecodeFuzz,
    ::testing::Values(FuzzCase{"float32", CodecConfig::Float32()},
                      FuzzCase{"int8", CodecConfig::EightBit()},
                      FuzzCase{"stoch3", CodecConfig::StochThreeQE()},
                      FuzzCase{"mqe1bit", CodecConfig::MqeOneBit()},
                      FuzzCase{"sparse25", CodecConfig::Sparsification(0.25f)},
                      FuzzCase{"sparse5", CodecConfig::Sparsification(0.05f)},
                      FuzzCase{"local2", CodecConfig::TwoLocalSteps()},
                      FuzzCase{"threelc100", CodecConfig::ThreeLC(1.0f)},
                      FuzzCase{"threelc175", CodecConfig::ThreeLC(1.75f)},
                      FuzzCase{"threelc190", CodecConfig::ThreeLC(1.9f)}),
    [](const ::testing::TestParamInfo<FuzzCase>& info) {
      return info.param.label;
    });

}  // namespace
}  // namespace threelc::compress
