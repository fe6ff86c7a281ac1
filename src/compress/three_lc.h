// The full 3LC codec (paper §3, Fig. 3):
//
//   (1) accumulate input into the per-tensor error-accumulation buffer
//   (2) 3-value quantization with sparsity multiplication -> ternary + M
//   (a/b) local dequantization; buffer keeps the remaining error
//   (3) quartic encoding (5 ternary values per byte)
//   (4) zero-run encoding (runs of byte 121 -> one byte 243..255)
//
// The encoder fuses these into two passes over the tensor plus the ZRE
// byte scan: pass 1 finds M from input + residual; pass 2, block by block,
// recomputes input + residual, quantizes, updates the residual and packs
// the quartic bytes straight into `out`, which ZRE then compacts in place.
// Decode validates the payload, then expands zero runs, quartic digits and
// dequantized values into the output tensor in one allocation-free pass.
//
// Wire format per tensor:
//   [f32 M][u32 payload_len][payload bytes]
// where payload is the (optionally zero-run-encoded) quartic bytes. The
// element count comes from the receiver's tensor shape, exactly as the
// parameter-server architecture already knows each layer's shape.
//
// Options reproduce the paper's ablations: `sparsity_multiplier` is the
// compression-level knob s ∈ [1, 2); `zero_run` disables stage (4) for the
// "No ZRE" row of Table 2; `error_accumulation` disables stage (1)/(b)
// for the error-accumulation-vs-stochastic comparison.
#pragma once

#include <memory>
#include <vector>

#include "compress/compressor.h"

namespace threelc::compress {

struct ThreeLCOptions {
  float sparsity_multiplier = 1.0f;  // s, in [1, 2)
  bool zero_run = true;              // apply zero-run encoding
  bool error_accumulation = true;    // keep per-tensor residual buffers
};

class ThreeLC final : public Compressor {
 public:
  explicit ThreeLC(ThreeLCOptions options = {});

  std::string name() const override;
  std::unique_ptr<Context> MakeContext(const Shape& shape) const override;
  void Decode(ByteReader& in, Tensor& out) const override;

  const ThreeLCOptions& options() const { return options_; }

 protected:
  // Fills, when stats are requested: ternary symbol distribution, zero-run
  // stage bytes in/out, and the error-accumulation buffer's L2 norm.
  void EncodeImpl(const Tensor& in, Context& ctx, ByteBuffer& out,
                  EncodeStats* stats) const override;

 private:
  ThreeLCOptions options_;
};

}  // namespace threelc::compress
