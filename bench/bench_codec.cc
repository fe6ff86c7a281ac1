// Codec throughput bench for the perf regression gate.
//
// Unlike bench_kernels (google-benchmark, human-oriented), this emits a
// machine-readable BENCH_codec.json that tools/check_perf.py diffs against
// the committed baseline in bench/baselines/. Iteration counts are pinned
// by work volume (a fixed byte budget per configuration), so two runs on
// the same machine do the same work and the JSON is directly comparable.
//
// Usage: bench_codec [--out=BENCH_codec.json] [--target-mb=256]
// The commit id is taken from $THREELC_COMMIT when set (CI exports it);
// the file also records the host (CPU model, cores, compiler), since the
// numbers are only comparable on the same hardware.
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "blockcodec/block_codec.h"
#include "compress/factory.h"
#include "compress/quantize3.h"
#include "compress/quartic.h"
#include "tensor/tensor.h"
#include "util/byte_buffer.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace threelc;

namespace {

tensor::Tensor MakeInput(std::int64_t n, double zero_prob) {
  util::Rng rng(99);
  tensor::Tensor t(tensor::Shape{n});
  for (std::int64_t i = 0; i < n; ++i) {
    t[static_cast<std::size_t>(i)] =
        rng.Bernoulli(zero_prob) ? 0.0f : rng.NormalFloat(0.0f, 1.0f);
  }
  return t;
}

// Iterations pinned by byte volume: enough passes over the tensor to touch
// ~target_bytes of float input, clamped to [8, 4096]. Deterministic given
// (n, target_bytes), so baseline and candidate runs do identical work.
int PinnedIters(std::int64_t n, double target_bytes) {
  const double tensor_bytes = static_cast<double>(n) * sizeof(float);
  const double raw = target_bytes / tensor_bytes;
  if (raw < 8.0) return 8;
  if (raw > 4096.0) return 4096;
  return static_cast<int>(raw);
}

double GigabytesPerSecond(std::int64_t n, int iters, double seconds) {
  const double bytes =
      static_cast<double>(n) * sizeof(float) * static_cast<double>(iters);
  return bytes / seconds / 1e9;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const std::string out_path = flags.GetString("out", "BENCH_codec.json");
  const double target_mb = flags.GetDouble("target-mb", 256.0);
  const double target_bytes = target_mb * 1e6;

  struct Named {
    std::string label;
    compress::CodecConfig config;
  };
  const std::vector<Named> codecs = {
      {"float32", compress::CodecConfig::Float32()},
      {"eightbit", compress::CodecConfig::EightBit()},
      {"3lc_s1.00", compress::CodecConfig::ThreeLC(1.00f)},
      {"3lc_s1.75", compress::CodecConfig::ThreeLC(1.75f)},
  };
  const std::vector<std::int64_t> sizes = {1 << 14, 1 << 16, 1 << 20};
  // Gradient-like sparsity so ZRE has runs to compress, as in training.
  const double zero_prob = 0.5;

  std::vector<bench::Metric> metrics;
  for (const Named& named : codecs) {
    auto codec = compress::MakeCompressor(named.config);
    for (std::int64_t n : sizes) {
      tensor::Tensor in = MakeInput(n, zero_prob);
      auto ctx = codec->MakeContext(in.shape());
      const int iters = PinnedIters(n, target_bytes);
      util::ByteBuffer encoded;

      // Warm-up pass: fault in pages and settle the residual context.
      codec->Encode(in, *ctx, encoded);

      util::WallTimer encode_timer;
      for (int i = 0; i < iters; ++i) {
        encoded.Clear();
        codec->Encode(in, *ctx, encoded);
      }
      const double encode_s = encode_timer.ElapsedSeconds();

      tensor::Tensor decoded(in.shape());
      util::WallTimer decode_timer;
      for (int i = 0; i < iters; ++i) {
        util::ByteReader reader(encoded);
        codec->Decode(reader, decoded);
      }
      const double decode_s = decode_timer.ElapsedSeconds();

      const std::string suffix = named.label + "/n" + std::to_string(n);
      metrics.push_back({"encode_gbps/" + suffix,
                         GigabytesPerSecond(n, iters, encode_s), "GB/s", true});
      metrics.push_back({"decode_gbps/" + suffix,
                         GigabytesPerSecond(n, iters, decode_s), "GB/s", true});
      std::cerr << "bench_codec: " << suffix << " iters=" << iters
                << " encode=" << GigabytesPerSecond(n, iters, encode_s)
                << " GB/s decode=" << GigabytesPerSecond(n, iters, decode_s)
                << " GB/s\n";
    }
  }

  // Second-stage block codecs (paper §3.3: is heavier entropy coding worth
  // it?) over each tensor codec's real output stream, plus the bare
  // pre-ZRE quartic streams (Quantize3 + QuarticEncode with no zero-run
  // pass) — the paper's "quartic encoding" output, the natural input for
  // a general-purpose second stage. Throughput is measured against the
  // block codec's *input* bytes (the stage-1 stream), since that is the
  // byte volume the wire path pays per step; bits_per_value is end-to-end
  // — envelope bytes over original tensor elements — so the table reads
  // directly against the stage-1 row ("store", the no-op envelope-free
  // baseline).
  //
  // The 1M-element streams show the coders' asymptotic throughput; the
  // real-size rows are the blocks the wire carries for the paper-scale
  // plan (perfbench's model): one 3LC push of a 176x176 hidden layer or
  // the 192x176 input layer, and one bypassed 176-float bias.
  struct Stream {
    std::string label;
    util::ByteBuffer bytes;
    std::int64_t elements;
    int max_iters;
  };
  std::vector<Stream> streams;
  {
    const std::int64_t n = 1 << 20;
    tensor::Tensor in = MakeInput(n, zero_prob);
    for (const Named& named : codecs) {
      auto codec = compress::MakeCompressor(named.config);
      auto ctx = codec->MakeContext(in.shape());
      Stream s{named.label, {}, n, 4096};
      codec->Encode(in, *ctx, s.bytes);
      streams.push_back(std::move(s));
    }
    for (float s : {1.00f, 1.75f}) {
      std::vector<std::int8_t> ternary(static_cast<std::size_t>(n));
      compress::Quantize3(in.data(), static_cast<std::size_t>(n), s,
                          ternary.data());
      char label[32];
      std::snprintf(label, sizeof(label), "quartic_s%.2f", s);
      Stream q{label, {}, n, 4096};
      compress::QuarticEncode(ternary.data(), static_cast<std::size_t>(n),
                              q.bytes);
      streams.push_back(std::move(q));
    }
  }
  {
    // Small blocks: a per-block fixed cost dominates, so allow more
    // passes than the 1M rows to keep each timing above a few ms.
    constexpr int kRealSizeMaxIters = 16384;
    for (const Named& named : codecs) {
      if (named.config.kind != compress::CodecKind::kThreeLC) continue;
      for (const tensor::Shape& shape :
           {tensor::Shape({176, 176}), tensor::Shape({192, 176})}) {
        const tensor::Tensor in =
            MakeInput(shape.num_elements(), zero_prob).Reshaped(shape);
        auto codec = compress::MakeCompressor(named.config);
        auto ctx = codec->MakeContext(in.shape());
        Stream s{named.label + "_" + std::to_string(shape.dim(0)) + "x" +
                     std::to_string(shape.dim(1)),
                 {}, in.num_elements(), kRealSizeMaxIters};
        codec->Encode(in, *ctx, s.bytes);
        streams.push_back(std::move(s));
      }
    }
    // A bypassed bias gradient is dense.
    tensor::Tensor bias = MakeInput(176, /*zero_prob=*/0.0);
    auto codec = compress::MakeCompressor(compress::CodecConfig::Float32());
    auto ctx = codec->MakeContext(bias.shape());
    Stream s{"float32_176", {}, 176, kRealSizeMaxIters};
    codec->Encode(bias, *ctx, s.bytes);
    streams.push_back(std::move(s));
  }

  for (const Stream& s : streams) {
    const util::ByteBuffer& stream = s.bytes;
    const double stream_bytes = static_cast<double>(stream.size());
    const double elements = static_cast<double>(s.elements);
    metrics.push_back({"block_bits_per_value/store/" + s.label,
                       stream_bytes * 8.0 / elements, "bits", false});

    for (const char* block_name : {"lz", "rans", "lz+rans"}) {
      const blockcodec::BlockCodec* bc = blockcodec::Find(block_name);
      const int iters = [&] {
        const double raw = target_bytes / stream_bytes;
        if (raw < 8.0) return 8;
        if (raw > s.max_iters) return s.max_iters;
        return static_cast<int>(raw);
      }();

      util::ByteBuffer envelope;
      blockcodec::EncodeBlock(*bc, stream.span(), envelope);  // warm-up
      util::WallTimer encode_timer;
      for (int i = 0; i < iters; ++i) {
        envelope.Clear();
        blockcodec::EncodeBlock(*bc, stream.span(), envelope);
      }
      const double encode_s = encode_timer.ElapsedSeconds();

      util::ByteBuffer decoded;
      util::WallTimer decode_timer;
      for (int i = 0; i < iters; ++i) {
        decoded.Clear();
        blockcodec::DecodeBlock(envelope.span(), stream.size(), decoded);
      }
      const double decode_s = decode_timer.ElapsedSeconds();

      const std::string suffix = std::string(block_name) + "/" + s.label;
      const double encode_gbps = stream_bytes * iters / encode_s / 1e9;
      const double decode_gbps = stream_bytes * iters / decode_s / 1e9;
      metrics.push_back(
          {"block_encode_gbps/" + suffix, encode_gbps, "GB/s", true});
      metrics.push_back(
          {"block_decode_gbps/" + suffix, decode_gbps, "GB/s", true});
      metrics.push_back({"block_bits_per_value/" + suffix,
                         static_cast<double>(envelope.size()) * 8.0 / elements,
                         "bits", false});
      std::cerr << "bench_codec: block " << suffix << " iters=" << iters
                << " encode=" << encode_gbps << " GB/s decode="
                << decode_gbps << " GB/s ratio="
                << stream_bytes / static_cast<double>(envelope.size())
                << " used=" << static_cast<int>(envelope.data()[0]) << "\n";
    }
  }

  return bench::WriteBenchJson(out_path, "codec", metrics) ? 0 : 1;
}
