// Property test: the optimized codec kernels against the scalar reference
// kernels in reference_kernels.h. Payloads must match byte for byte;
// decoded tensors, M values and residual buffers bit for bit; EncodeStats
// field for field. Inputs cover random, sparse and all-zero tensors,
// +-FLT_MAX, denormals, NaN and Inf, every n % 5 tail and the fused
// encoder's block boundary, both sparsity multipliers, and multi-step
// error-accumulation trajectories.
//
// This binary also replaces the global operator new to count heap
// allocations, which checks that 3LC decode allocates nothing per call.
#include <gtest/gtest.h>

#include <atomic>
#include <cfloat>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "compress/eight_bit.h"
#include "compress/quantize3.h"
#include "compress/quartic.h"
#include "compress/stoch_three.h"
#include "compress/three_lc.h"
#include "compress/zero_run.h"
#include "reference_kernels.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace threelc::compress {
namespace {

using tensor::Shape;
using tensor::Tensor;
using util::ByteBuffer;
using util::ByteReader;

enum class Kind { kRandom, kSparse, kZero, kExtremes, kDenormal, kSpecial };

constexpr Kind kAllKinds[] = {Kind::kRandom,   Kind::kSparse,
                              Kind::kZero,     Kind::kExtremes,
                              Kind::kDenormal, Kind::kSpecial};

const char* KindName(Kind k) {
  switch (k) {
    case Kind::kRandom: return "random";
    case Kind::kSparse: return "sparse";
    case Kind::kZero: return "zero";
    case Kind::kExtremes: return "extremes";
    case Kind::kDenormal: return "denormal";
    case Kind::kSpecial: return "nan_inf";
  }
  return "?";
}

// Every n % 5 tail, several whole groups, and both sides of the fused
// encoder's 1280-element block.
const std::vector<std::size_t> kSizes = {0,    1,    2,    3,    4,    5,
                                         6,    7,    8,    9,    10,   11,
                                         1279, 1280, 1281, 1283, 2561, 4099,
                                         31001};

std::vector<float> MakeValues(Kind kind, std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const float normal = rng.NormalFloat(0.0f, 1.0f);
    switch (kind) {
      case Kind::kRandom:
        v[i] = normal;
        break;
      case Kind::kSparse:
        v[i] = rng.Bernoulli(0.9) ? 0.0f : normal;
        break;
      case Kind::kZero:
        v[i] = rng.Bernoulli(0.5) ? 0.0f : -0.0f;
        break;
      case Kind::kExtremes:
        v[i] = rng.Bernoulli(0.05) ? (normal < 0 ? -FLT_MAX : FLT_MAX)
                                   : normal * 1e30f;
        break;
      case Kind::kDenormal:
        v[i] = rng.Bernoulli(0.3) ? 0.0f : normal * 1e-40f;
        break;
      case Kind::kSpecial: {
        const double u = rng.UniformFloat();
        v[i] = u < 0.02   ? std::numeric_limits<float>::quiet_NaN()
               : u < 0.03 ? std::numeric_limits<float>::infinity()
               : u < 0.04 ? -std::numeric_limits<float>::infinity()
                          : normal;
        break;
      }
    }
  }
  return v;
}

Tensor MakeTensor(Kind kind, std::size_t n, std::uint64_t seed) {
  return Tensor(Shape{static_cast<std::int64_t>(n)}, MakeValues(kind, n, seed));
}

template <typename T>
bool SameBits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.size() == b.size() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.byte_size()) == 0);
}

bool SameBits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Bit-identical, except that any two NaNs match. When both operands of an
// add are NaN, IEEE 754 leaves the result's payload to the implementation,
// and the compiler may order a commutative add either way; once a residual
// holds NaN (from a NaN input, or Inf * 0 when M is infinite), its payload
// bits are not part of the contract. Payload bytes, M and decodes never
// depend on them and are compared bit for bit.
bool SameValues(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i]) && !(std::isnan(a[i]) && std::isnan(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string Label(Kind kind, std::size_t n, float s) {
  return std::string(KindName(kind)) + " n=" + std::to_string(n) +
         " s=" + std::to_string(s);
}

TEST(KernelParity, StageKernelsMatchReference) {
  for (const Kind kind : kAllKinds) {
    for (const std::size_t n : kSizes) {
      for (const float s : {1.00f, 1.75f}) {
        SCOPED_TRACE(Label(kind, n, s));
        const std::vector<float> in = MakeValues(kind, n, 7 + n);

        std::vector<std::int8_t> q(n), ref_q(n);
        ASSERT_TRUE(SameBits(Quantize3(in.data(), n, s, q.data()),
                             reference::Quantize3(in.data(), n, s,
                                                  ref_q.data())));
        ASSERT_TRUE(SameBits(q, ref_q));

        std::vector<float> res(n), ref_res(n);
        const float M = Quantize3WithResidual(in.data(), n, s, q.data(),
                                              res.data());
        ASSERT_TRUE(SameBits(M, reference::Quantize3WithResidual(
                                    in.data(), n, s, ref_q.data(),
                                    ref_res.data())));
        ASSERT_TRUE(SameBits(q, ref_q));
        ASSERT_TRUE(SameValues(res, ref_res));

        std::vector<float> deq(n), ref_deq(n);
        Dequantize3(q.data(), n, M, deq.data());
        reference::Dequantize3(q.data(), n, M, ref_deq.data());
        ASSERT_TRUE(SameBits(deq, ref_deq));

        ByteBuffer quartic, ref_quartic;
        QuarticEncode(q.data(), n, quartic);
        reference::QuarticEncode(q.data(), n, ref_quartic);
        ASSERT_EQ(quartic, ref_quartic);
        std::vector<std::int8_t> unpacked(n);
        QuarticDecode(quartic.span(), n, unpacked.data());
        ASSERT_TRUE(SameBits(unpacked, q));

        ByteBuffer zre, ref_zre;
        ZeroRunEncode(quartic.span(), zre);
        reference::ZeroRunEncode(quartic.span(), ref_zre);
        ASSERT_EQ(zre, ref_zre);
        ByteBuffer in_place = quartic;
        const std::size_t len =
            ZeroRunEncode(in_place.data(), in_place.size(), in_place.data());
        in_place.Resize(len);
        ASSERT_EQ(in_place, ref_zre);
        ASSERT_EQ(ZeroRunDecodedSize(zre.span()), quartic.size());
        ByteBuffer expanded;
        ZeroRunDecode(zre.span(), expanded, quartic.size());
        ASSERT_EQ(expanded, quartic);

        std::vector<float> direct(n);
        ZeroRunExpandDequantize(zre.span(), n, M, direct.data());
        ASSERT_TRUE(SameBits(direct, ref_deq));
        ZeroRunExpandDequantize(quartic.span(), n, M, direct.data());
        ASSERT_TRUE(SameBits(direct, ref_deq));
      }
    }
  }
}

TEST(KernelParity, ThreeLCTrajectoriesMatchReference) {
  constexpr int kSteps = 4;
  for (const Kind kind : kAllKinds) {
    for (const std::size_t n : kSizes) {
      for (const float s : {1.00f, 1.75f}) {
        for (const bool zero_run : {true, false}) {
          for (const bool ea : {true, false}) {
            SCOPED_TRACE(Label(kind, n, s) +
                         " zre=" + std::to_string(zero_run) +
                         " ea=" + std::to_string(ea));
            const ThreeLCOptions options{s, zero_run, ea};
            const ThreeLC codec(options);
            const Shape shape{static_cast<std::int64_t>(n)};
            auto ctx = codec.MakeContext(shape);
            std::vector<float> ref_residual(n, 0.0f);
            for (int step = 0; step < kSteps; ++step) {
              SCOPED_TRACE("step " + std::to_string(step));
              const Tensor in = MakeTensor(kind, n, 1000 * step + n);
              ByteBuffer payload, ref_payload;
              EncodeStats stats, ref_stats;
              codec.Encode(in, *ctx, payload, &stats);
              reference::ThreeLCEncode(in, options,
                                       ea ? &ref_residual : nullptr,
                                       ref_payload, &ref_stats);
              ASSERT_EQ(payload, ref_payload);

              EXPECT_EQ(stats.has_symbols, ref_stats.has_symbols);
              EXPECT_EQ(stats.zeros, ref_stats.zeros);
              EXPECT_EQ(stats.positives, ref_stats.positives);
              EXPECT_EQ(stats.negatives, ref_stats.negatives);
              EXPECT_EQ(stats.has_zero_run, ref_stats.has_zero_run);
              EXPECT_EQ(stats.zre_bytes_in, ref_stats.zre_bytes_in);
              EXPECT_EQ(stats.zre_bytes_out, ref_stats.zre_bytes_out);
              EXPECT_EQ(stats.has_residual, ref_stats.has_residual);
              EXPECT_TRUE(std::memcmp(&stats.residual_l2,
                                      &ref_stats.residual_l2,
                                      sizeof(double)) == 0);
              EXPECT_EQ(stats.elements, n);
              EXPECT_EQ(stats.payload_bytes, ref_payload.size());

              // The residual buffer, through the exact-resume state.
              ByteBuffer state;
              ctx->SaveState(state);
              ByteReader state_reader(state);
              ASSERT_EQ(state_reader.ReadU8(), ea ? 1 : 0);
              ASSERT_EQ(state_reader.ReadU64(), ea ? n : 0);
              std::vector<float> residual(ea ? n : 0);
              for (float& r : residual) r = state_reader.ReadF32();
              ASSERT_TRUE(SameValues(residual, ea ? ref_residual
                                                  : std::vector<float>{}));

              Tensor decoded(shape), ref_decoded(shape);
              ByteReader reader(payload);
              codec.Decode(reader, decoded);
              EXPECT_TRUE(reader.AtEnd());
              ByteReader ref_reader(ref_payload);
              reference::ThreeLCDecode(ref_reader, options, ref_decoded);
              ASSERT_TRUE(SameBits(decoded, ref_decoded));
            }
          }
        }
      }
    }
  }
}

TEST(KernelParity, EightBitMatchesReference) {
  // Finite inputs only: a NaN or infinite element makes the float-to-int8
  // conversion undefined in both versions.
  const EightBitInt codec;
  for (const Kind kind : {Kind::kRandom, Kind::kSparse, Kind::kZero,
                          Kind::kExtremes, Kind::kDenormal}) {
    for (const std::size_t n : kSizes) {
      SCOPED_TRACE(Label(kind, n, 1.0f));
      std::vector<float> values = MakeValues(kind, n, 3 + n);
      // Exact ties at +-0.5 after scaling, where the rounding is decided.
      if (n >= 4) {
        values[0] = 127.0f;
        values[1] = -0.5f;
        values[2] = 0.5f;
        values[3] = -127.0f;
      }
      const Tensor in(Shape{static_cast<std::int64_t>(n)}, values);
      auto ctx = codec.MakeContext(in.shape());
      ByteBuffer payload, ref_payload;
      codec.Encode(in, *ctx, payload);
      reference::EightBitEncode(in, ref_payload);
      ASSERT_EQ(payload, ref_payload);

      Tensor decoded(in.shape()), ref_decoded(in.shape());
      ByteReader reader(payload), ref_reader(payload);
      codec.Decode(reader, decoded);
      reference::EightBitDecode(ref_reader, ref_decoded);
      ASSERT_TRUE(SameBits(decoded, ref_decoded));
    }
  }
}

TEST(KernelParity, StochDecodeMatchesReference) {
  const StochThreeValueQE codec(5);
  for (const std::size_t n : kSizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const Tensor in = MakeTensor(Kind::kRandom, n, n);
    auto ctx = codec.MakeContext(in.shape());
    ByteBuffer payload;
    codec.Encode(in, *ctx, payload);

    Tensor decoded(in.shape());
    ByteReader reader(payload);
    codec.Decode(reader, decoded);

    ByteReader ref_reader(payload);
    const float m = ref_reader.ReadF32();
    const std::uint32_t len = ref_reader.ReadU32();
    std::vector<std::int8_t> q(n);
    reference::QuarticDecode(ref_reader.ReadSpan(len), n, q.data());
    Tensor ref_decoded(in.shape());
    reference::Dequantize3(q.data(), n, m, ref_decoded.data());
    ASSERT_TRUE(SameBits(decoded, ref_decoded));
  }
}

// A corrupt payload is rejected exactly when the reference rejects it, and
// an accepted one decodes to the same bits.
TEST(KernelParity, ThreeLCDecodeAcceptsExactlyWhatReferenceAccepts) {
  util::Rng rng(11);
  for (const bool zero_run : {true, false}) {
    for (const std::size_t n : {7u, 1283u, 4099u}) {
      const ThreeLCOptions options{1.0f, zero_run, true};
      const ThreeLC codec(options);
      const Tensor in = MakeTensor(Kind::kSparse, n, n);
      auto ctx = codec.MakeContext(in.shape());
      ByteBuffer payload;
      codec.Encode(in, *ctx, payload);
      for (int trial = 0; trial < 400; ++trial) {
        ByteBuffer bad = payload;
        const std::size_t pos = rng.Below(bad.size());
        bad.data()[pos] = static_cast<std::uint8_t>(rng.Below(256));
        if (trial % 4 == 0) bad.Resize(rng.Below(bad.size() + 1));
        SCOPED_TRACE("zre=" + std::to_string(zero_run) +
                     " n=" + std::to_string(n) + " pos=" + std::to_string(pos));

        Tensor decoded(in.shape()), ref_decoded(in.shape());
        bool threw = false, ref_threw = false;
        try {
          ByteReader reader(bad);
          codec.Decode(reader, decoded);
        } catch (const std::exception&) {
          threw = true;
        }
        try {
          ByteReader reader(bad);
          reference::ThreeLCDecode(reader, options, ref_decoded);
        } catch (const std::exception&) {
          ref_threw = true;
        }
        ASSERT_EQ(threw, ref_threw);
        if (!threw) {
          ASSERT_TRUE(SameBits(decoded, ref_decoded));
        }
      }
    }
  }
}

TEST(KernelParity, ThreeLCDecodeAllocatesNothing) {
  for (const bool zero_run : {true, false}) {
    const ThreeLC codec(ThreeLCOptions{1.0f, zero_run, true});
    const Tensor in = MakeTensor(Kind::kSparse, 31001, 1);
    auto ctx = codec.MakeContext(in.shape());
    ByteBuffer payload;
    codec.Encode(in, *ctx, payload);
    Tensor decoded(in.shape());

    const std::size_t before = g_allocations.load();
    for (int i = 0; i < 3; ++i) {
      ByteReader reader(payload);
      codec.Decode(reader, decoded);
    }
    EXPECT_EQ(g_allocations.load() - before, 0u) << "zero_run=" << zero_run;

    // Encoding into a buffer that already has the capacity allocates
    // nothing either: the codec keeps no scratch beyond the residual.
    const std::size_t encode_before = g_allocations.load();
    payload.Clear();
    codec.Encode(in, *ctx, payload);
    EXPECT_EQ(g_allocations.load() - encode_before, 0u)
        << "zero_run=" << zero_run;
  }
}

}  // namespace
}  // namespace threelc::compress
