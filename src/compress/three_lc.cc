#include "compress/three_lc.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "compress/quantize3.h"
#include "compress/quartic.h"
#include "compress/zero_run.h"
#include "obs/phase.h"
#include "util/logging.h"

namespace threelc::compress {

namespace {

// Elements per fused quantize + pack block: whole quartic groups, and small
// enough that the block's ternary digits stay in L1 between the two steps.
constexpr std::size_t kBlock = 256 * kQuarticGroup;

class ThreeLCContext final : public Context {
 public:
  explicit ThreeLCContext(const Shape& shape, bool error_accumulation)
      : n_(static_cast<std::size_t>(shape.num_elements())),
        has_residual_(error_accumulation) {
    if (has_residual_) residual_.assign(n_, 0.0f);
  }

  std::size_t StateBytes() const override {
    return residual_.size() * sizeof(float);
  }

  void SaveState(ByteBuffer& out) const override {
    out.AppendU8(has_residual_ ? 1 : 0);
    out.AppendU64(residual_.size());
    for (const float r : residual_) out.AppendF32(r);
  }

  void LoadState(ByteReader& in) override {
    const bool has_residual = in.ReadU8() != 0;
    const std::uint64_t n = in.ReadU64();
    if (has_residual != has_residual_ || n != residual_.size()) {
      throw std::runtime_error(
          "3LC context state mismatch: saved " + std::to_string(n) +
          " residuals (ea=" + std::to_string(has_residual) + "), context has " +
          std::to_string(residual_.size()) +
          " (ea=" + std::to_string(has_residual_) + ")");
    }
    for (float& r : residual_) r = in.ReadF32();
  }

  std::size_t n_;                    // elements of the tensor
  bool has_residual_;
  std::vector<float> residual_;      // error accumulation buffer (persistent)
};

void CountSymbols(const std::int8_t* q, std::size_t n, EncodeStats& stats) {
  std::size_t positives = 0;
  std::size_t negatives = 0;
  for (std::size_t i = 0; i < n; ++i) {
    positives += q[i] > 0;
    negatives += q[i] < 0;
  }
  stats.positives += positives;
  stats.negatives += negatives;
  stats.zeros += n - positives - negatives;
}

}  // namespace

ThreeLC::ThreeLC(ThreeLCOptions options) : options_(options) {
  THREELC_CHECK_MSG(options_.sparsity_multiplier >= kMinSparsityMultiplier &&
                        options_.sparsity_multiplier < kMaxSparsityMultiplier,
                    "sparsity multiplier must be in [1, 2)");
}

std::string ThreeLC::name() const {
  std::ostringstream oss;
  oss << "3LC (s=" << options_.sparsity_multiplier;
  if (!options_.zero_run) oss << ", no ZRE";
  if (!options_.error_accumulation) oss << ", no EA";
  oss << ")";
  return oss.str();
}

std::unique_ptr<Context> ThreeLC::MakeContext(const Shape& shape) const {
  return std::make_unique<ThreeLCContext>(shape, options_.error_accumulation);
}

void ThreeLC::EncodeImpl(const Tensor& in, Context& ctx, ByteBuffer& out,
                         EncodeStats* stats) const {
  obs::ScopedStage encode_stage(&obs::StageProfiler::Global(), "3lc_encode");
  auto& c = static_cast<ThreeLCContext&>(ctx);
  const auto n = static_cast<std::size_t>(in.num_elements());
  THREELC_CHECK_MSG(c.n_ == n, "context/tensor shape mismatch");
  const float* src = in.data();
  float* residual = c.has_residual_ ? c.residual_.data() : nullptr;

  // Pass 1, steps (1) + (2) Eq. 1: M = max|input + residual| * s. The sum
  // is recomputed in pass 2 rather than stored.
  float M;
  {
    obs::ScopedStage stage(&obs::StageProfiler::Global(), "max_abs");
    M = (residual != nullptr ? MaxAbsSum(src, residual, n) : MaxAbs(src, n)) *
        options_.sparsity_multiplier;
  }

  // Wire frame [f32 M][u32 payload_len][payload]; the length is patched in
  // once zero-run encoding has settled it.
  out.AppendF32(M);
  const std::size_t len_pos = out.size();
  out.AppendU32(0);
  const std::size_t payload_pos = out.size();
  const std::size_t quartic_len = QuarticEncodedSize(n);
  out.Resize(payload_pos + quartic_len);
  std::uint8_t* payload = out.data() + payload_pos;

  // Pass 2, steps (2) + (a)/(b) + (3): per block, quantize while folding the
  // remaining error back into the residual, then pack five digits per byte
  // straight into the frame.
  {
    obs::ScopedStage stage(&obs::StageProfiler::Global(), "quantize_pack");
    std::int8_t q[kBlock] = {};
    for (std::size_t base = 0; base < n; base += kBlock) {
      const std::size_t m = std::min(kBlock, n - base);
      if (residual != nullptr) {
        Quantize3AccumulateBlock(src + base, m, M, q, residual + base);
      } else {
        Quantize3Block(src + base, m, M, q);
      }
      if (stats != nullptr) CountSymbols(q, m, *stats);
      // Only the tensor's last block can be partial; its padded tail group
      // holds quantized zeros, as QuarticEncode pads.
      const std::size_t groups = QuarticEncodedSize(m);
      std::fill(q + m, q + groups * kQuarticGroup, std::int8_t{0});
      QuarticPackGroups(q, groups, payload + base / kQuarticGroup);
    }
  }

  // Step (4): zero-run encoding, compacting the quartic bytes in place.
  std::size_t payload_len = quartic_len;
  if (options_.zero_run) {
    obs::ScopedStage stage(&obs::StageProfiler::Global(), "zre");
    payload_len = ZeroRunEncode(payload, quartic_len, payload);
    out.Resize(payload_pos + payload_len);
    if (stats != nullptr) {
      stats->has_zero_run = true;
      stats->zre_bytes_in = quartic_len;
      stats->zre_bytes_out = payload_len;
    }
  }
  const auto len32 = static_cast<std::uint32_t>(payload_len);
  std::memcpy(out.data() + len_pos, &len32, sizeof(len32));

  if (stats != nullptr) {
    stats->has_symbols = true;
    if (c.has_residual_) {
      stats->has_residual = true;
      double sq = 0.0;
      for (const float r : c.residual_) {
        sq += static_cast<double>(r) * static_cast<double>(r);
      }
      stats->residual_l2 = std::sqrt(sq);
    }
  }
}

void ThreeLC::Decode(ByteReader& in, Tensor& out) const {
  obs::ScopedStage decode_stage(&obs::StageProfiler::Global(), "3lc_decode");
  const auto n = static_cast<std::size_t>(out.num_elements());
  const float M = in.ReadF32();
  const std::uint32_t len = in.ReadU32();
  util::ByteSpan payload = in.ReadSpan(len);

  // Validate the whole payload before writing `out`, so a corrupt push
  // leaves the destination untouched.
  const std::size_t quartic_len = QuarticEncodedSize(n);
  {
    obs::ScopedStage stage(&obs::StageProfiler::Global(), "check");
    if (options_.zero_run) {
      if (ZeroRunDecodedSize(payload) != quartic_len) {
        throw std::runtime_error("3LC decode: zero-run payload size mismatch");
      }
    } else if (payload.size() != quartic_len) {
      throw std::runtime_error("3LC decode: quartic payload size mismatch");
    } else if (!QuarticBytesValid(payload)) {
      throw std::runtime_error("3LC decode: quartic byte value out of range");
    }
  }
  // One pass: zero runs, digit lookup and dequantization together.
  obs::ScopedStage stage(&obs::StageProfiler::Global(), "expand");
  ZeroRunExpandDequantize(payload, n, M, out.data());
}

}  // namespace threelc::compress
