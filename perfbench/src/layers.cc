#include "layers.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "blockcodec/block_codec.h"
#include "compress/quantize3.h"
#include "compress/quartic.h"
#include "compress/zero_run.h"
#include "memfs.h"
#include "nn/checkpoint_manager.h"
#include "ps/plan.h"
#include "ps/server.h"
#include "ps/worker.h"
#include "rpc/frame.h"
#include "rpc/runtime.h"
#include "rpc/transport.h"
#include "train/model_zoo.h"
#include "util/crc32.h"
#include "util/timer.h"

namespace perfbench {

using namespace threelc;

double Get(const MetricList& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  throw std::out_of_range("perfbench: no metric " + name);
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double idx = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

const std::vector<std::string>& ServerPhases() {
  static const std::vector<std::string> kPhases = {
      "step_barrier", "decode",     "aggregate", "optimize",
      "encode",       "checkpoint", "fan_out"};
  return kPhases;
}

bool AppendStepLog(const std::string& path, StepLog* log) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  bool any = false;
  auto number_after = [](const std::string& s, std::size_t from,
                         const std::string& key, double* out) {
    const std::size_t pos = s.find(key, from);
    if (pos == std::string::npos) return false;
    *out = std::strtod(s.c_str() + pos + key.size(), nullptr);
    return true;
  };
  while (std::getline(in, line)) {
    if (line.find("\"type\":\"step\"") == std::string::npos) continue;
    double wall = 0.0;
    const std::size_t phases = line.find("\"phases_ms\":{");
    if (phases == std::string::npos ||
        !number_after(line, 0, "\"step_wall_ms\":", &wall)) {
      return false;
    }
    log->step_ms.push_back(wall);
    for (const std::string& phase : ServerPhases()) {
      double ms = 0.0;
      if (!number_after(line, phases, "\"" + phase + "\":", &ms)) return false;
      log->phase_ms[phase].push_back(ms);
    }
    any = true;
  }
  return any;
}

namespace {

// Median seconds per call of `fn`, over `samples` batches each long enough
// (>= 2 ms) for the clock to resolve; one untimed call warms caches first.
template <typename Fn>
double SecondsPerCall(Fn&& fn, int samples = 9) {
  fn();
  util::WallTimer once;
  fn();
  const double one = std::max(once.ElapsedSeconds(), 1e-9);
  const int reps = std::max(1, static_cast<int>(std::ceil(0.002 / one)));
  std::vector<double> per_call;
  for (int s = 0; s < samples; ++s) {
    util::WallTimer timer;
    for (int r = 0; r < reps; ++r) fn();
    per_call.push_back(timer.ElapsedSeconds() / reps);
  }
  return Median(per_call);
}

double Gbps(double bytes, double seconds) { return bytes / seconds / 1e9; }

nn::Model CloneModel(const train::ExperimentConfig& config, nn::Model& src) {
  nn::Model model = train::BuildMlp(config.model, config.model_seed);
  model.CopyParamsFrom(src);
  model.CopyBuffersFrom(src);
  return model;
}

// Codec stages on the recorded gradients of every compressed tensor.
void MeasureCodec(const Workload& workload, const ps::TensorPlan& plan,
                  const std::vector<tensor::Tensor>& grads, MetricList* out) {
  std::vector<std::size_t> coded;
  std::size_t values = 0;
  for (std::size_t t = 0; t < plan.size(); ++t) {
    if (!plan.entry(t).compressed) continue;
    coded.push_back(t);
    values += static_cast<std::size_t>(grads[t].num_elements());
  }
  const double float_bytes = static_cast<double>(values) * sizeof(float);

  auto codec = compress::MakeCompressor(workload.codec);
  std::vector<std::unique_ptr<compress::Context>> ctx;
  for (std::size_t t : coded) {
    ctx.push_back(codec->MakeContext(grads[t].shape()));
  }
  util::ByteBuffer payload;
  for (std::size_t i = 0; i < coded.size(); ++i) {
    codec->Encode(grads[coded[i]], *ctx[i], payload);
  }
  out->push_back({"compress.bits_per_value",
                  static_cast<double>(payload.size()) * 8.0 /
                      static_cast<double>(values),
                  "bits"});
  const double encode_s = SecondsPerCall([&] {
    payload.Clear();
    for (std::size_t i = 0; i < coded.size(); ++i) {
      codec->Encode(grads[coded[i]], *ctx[i], payload);
    }
  });
  std::vector<tensor::Tensor> decoded;
  for (std::size_t t : coded) decoded.emplace_back(grads[t].shape());
  const double decode_s = SecondsPerCall([&] {
    util::ByteReader reader(payload);
    for (tensor::Tensor& d : decoded) codec->Decode(reader, d);
  });
  out->push_back({"compress.encode_gbps", Gbps(float_bytes, encode_s), "GB/s"});
  out->push_back({"compress.decode_gbps", Gbps(float_bytes, decode_s), "GB/s"});

  // The 3LC stages at the workload's sparsity multiplier (s = 1.00 for the
  // float32 workload, whose codec has no stages of its own).
  const float s = workload.codec.kind == compress::CodecKind::kThreeLC
                      ? workload.codec.sparsity_multiplier
                      : 1.0f;
  std::vector<std::vector<std::int8_t>> ternary;
  std::vector<float> residual;
  for (std::size_t t : coded) {
    ternary.emplace_back(static_cast<std::size_t>(grads[t].num_elements()));
  }
  const double quantize_s = SecondsPerCall([&] {
    for (std::size_t i = 0; i < coded.size(); ++i) {
      const tensor::Tensor& g = grads[coded[i]];
      residual.resize(static_cast<std::size_t>(g.num_elements()));
      compress::Quantize3WithResidual(g.data(), residual.size(), s,
                                      ternary[i].data(), residual.data());
    }
  });
  std::vector<util::ByteBuffer> quartic(coded.size());
  const double quartic_encode_s = SecondsPerCall([&] {
    for (std::size_t i = 0; i < coded.size(); ++i) {
      quartic[i].Clear();
      compress::QuarticEncode(ternary[i].data(), ternary[i].size(), quartic[i]);
    }
  });
  std::vector<std::int8_t> unpacked;
  const double quartic_decode_s = SecondsPerCall([&] {
    for (std::size_t i = 0; i < coded.size(); ++i) {
      unpacked.resize(ternary[i].size());
      compress::QuarticDecode(quartic[i].span(), ternary[i].size(),
                              unpacked.data());
    }
  });
  std::vector<util::ByteBuffer> zre(coded.size());
  const double zre_encode_s = SecondsPerCall([&] {
    for (std::size_t i = 0; i < coded.size(); ++i) {
      zre[i].Clear();
      compress::ZeroRunEncode(quartic[i].span(), zre[i]);
    }
  });
  util::ByteBuffer expanded;
  const double zre_decode_s = SecondsPerCall([&] {
    for (std::size_t i = 0; i < coded.size(); ++i) {
      expanded.Clear();
      compress::ZeroRunDecode(zre[i].span(), expanded, quartic[i].size());
    }
  });
  out->push_back({"compress.quantize3_gbps", Gbps(float_bytes, quantize_s),
                  "GB/s"});
  out->push_back({"compress.quartic_encode_gbps",
                  Gbps(float_bytes, quartic_encode_s), "GB/s"});
  out->push_back({"compress.quartic_decode_gbps",
                  Gbps(float_bytes, quartic_decode_s), "GB/s"});
  out->push_back({"compress.zre_encode_gbps", Gbps(float_bytes, zre_encode_s),
                  "GB/s"});
  out->push_back({"compress.zre_decode_gbps", Gbps(float_bytes, zre_decode_s),
                  "GB/s"});
}

// The workload's block codec over one worker's per-tensor push payloads,
// the blocks the rpc path hands it: wrapped in the block envelope (with
// its store-if-incompressible escape) unless the codec is store, whose
// payloads travel bare.
void MeasureBlockCodec(const Workload& workload,
                       const std::vector<util::ByteBuffer>& blocks,
                       MetricList* out) {
  const blockcodec::BlockCodec* codec =
      blockcodec::Find(workload.block_codec);
  if (codec == nullptr) {
    throw std::runtime_error("unknown block codec " + workload.block_codec);
  }
  const bool bare = codec->id() == blockcodec::kStoreId;
  double raw = 0.0;
  std::size_t largest = 0;
  for (const util::ByteBuffer& b : blocks) {
    raw += static_cast<double>(b.size());
    largest = std::max(largest, b.size());
  }
  std::vector<util::ByteBuffer> encoded(blocks.size());
  const double encode_s = SecondsPerCall([&] {
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      encoded[i].Clear();
      if (bare) {
        codec->Encode(blocks[i].span(), encoded[i]);
      } else {
        blockcodec::EncodeBlock(*codec, blocks[i].span(), encoded[i]);
      }
    }
  });
  double wire = 0.0;
  for (const util::ByteBuffer& b : encoded) {
    wire += static_cast<double>(b.size());
  }
  util::ByteBuffer decoded;
  const double decode_s = SecondsPerCall([&] {
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      decoded.Clear();
      if (bare) {
        codec->Decode(encoded[i].span(), blocks[i].size(), decoded);
      } else {
        blockcodec::DecodeBlock(encoded[i].span(), largest, decoded);
      }
    }
  });
  out->push_back({"blockcodec.ratio", raw / wire, "x"});
  out->push_back({"blockcodec.encode_gbps", Gbps(raw, encode_s), "GB/s"});
  out->push_back({"blockcodec.decode_gbps", Gbps(raw, decode_s), "GB/s"});
}

}  // namespace

void MeasureModules(const Workload& workload,
                    const train::ExperimentConfig& config,
                    Reference& reference, MetricList* out) {
  const train::TrainerConfig& tc = config.trainer;
  auto codec = std::shared_ptr<const compress::Compressor>(
      compress::MakeCompressor(tc.codec));

  // One server and kWorkers workers, starting from the trained reference
  // model, each worker sampling its own stream as in training.
  nn::Model server_model = CloneModel(config, *reference.model);
  const ps::TensorPlan plan =
      ps::TensorPlan::FromParams(server_model.Params(), tc.min_compress_elems);
  ps::ParameterServer server(server_model, plan, codec, tc.optimizer);
  std::vector<nn::Model> models;
  for (int w = 0; w < kWorkers; ++w) {
    models.push_back(CloneModel(config, *reference.model));
  }
  std::vector<std::unique_ptr<ps::Worker>> workers;
  std::vector<data::Sampler> samplers;
  util::Rng seeder(tc.seed);
  for (int w = 0; w < kWorkers; ++w) {
    workers.push_back(std::make_unique<ps::Worker>(
        w, models[static_cast<std::size_t>(w)], plan, codec));
    samplers.emplace_back(reference.data.train, seeder.Fork(),
                          tc.augment_noise);
  }

  // data: one batch draw. nn: one forward + backward at the workload batch.
  data::Batch batch = samplers[0].Next(tc.batch_size);
  out->push_back({"data.sample_ms",
                  SecondsPerCall([&] { samplers[0].Next(tc.batch_size); }) *
                      1e3,
                  "ms"});
  out->push_back({"nn.forward_backward_ms",
                  SecondsPerCall([&] {
                    models[0].TrainStep(batch.inputs, batch.labels);
                  }) * 1e3,
                  "ms"});

  // Recorded gradients of worker 0 for the codec drivers.
  std::vector<tensor::Tensor> grads;
  for (const nn::ParamRef& p : models[0].Params()) grads.push_back(*p.grad);
  MeasureCodec(workload, plan, grads, out);

  // ps: whole steps driven through the public worker/server API.
  constexpr int kSteps = 8;
  std::vector<double> encode_ms, receive_ms, update_ms, prepare_ms, apply_ms;
  std::vector<std::vector<util::ByteBuffer>> pushes(
      kWorkers, std::vector<util::ByteBuffer>(plan.size()));
  nn::CosineDecay schedule(tc.lr_max, tc.lr_min, kSteps);
  for (int step = 0; step < kSteps; ++step) {
    for (int w = 0; w < kWorkers; ++w) {
      const auto i = static_cast<std::size_t>(w);
      const data::Batch b = samplers[i].Next(tc.batch_size);
      models[i].TrainStep(b.inputs, b.labels);
      util::WallTimer timer;
      for (std::size_t t = 0; t < plan.size(); ++t) {
        pushes[i][t].Clear();
        workers[i]->EncodePush(t, pushes[i][t]);
      }
      encode_ms.push_back(timer.ElapsedMillis());
    }
    util::WallTimer receive;
    server.BeginStep();
    for (int w = 0; w < kWorkers; ++w) {
      for (std::size_t t = 0; t < plan.size(); ++t) {
        util::ByteReader reader(pushes[static_cast<std::size_t>(w)][t]);
        server.ReceivePush(t, reader);
      }
    }
    receive_ms.push_back(receive.ElapsedMillis());
    util::WallTimer update;
    server.Update(schedule.At(step), kWorkers);
    update_ms.push_back(update.ElapsedMillis());
    util::WallTimer prepare;
    server.PreparePulls();
    prepare_ms.push_back(prepare.ElapsedMillis());
    for (int w = 0; w < kWorkers; ++w) {
      util::WallTimer apply;
      for (std::size_t t = 0; t < plan.size(); ++t) {
        util::ByteReader reader(server.PullPayload(t));
        workers[static_cast<std::size_t>(w)]->ApplyPull(t, reader);
      }
      apply_ms.push_back(apply.ElapsedMillis());
    }
  }
  out->push_back({"ps.worker_encode_push_ms", Median(encode_ms), "ms"});
  out->push_back({"ps.server_receive_push_ms", Median(receive_ms), "ms"});
  out->push_back({"ps.server_update_ms", Median(update_ms), "ms"});
  out->push_back({"ps.server_prepare_pulls_ms", Median(prepare_ms), "ms"});
  out->push_back({"ps.worker_apply_pull_ms", Median(apply_ms), "ms"});

  // blockcodec and rpc framing over worker 0's per-tensor push payloads.
  MeasureBlockCodec(workload, pushes[0], out);
  double push_bytes = 0.0;
  for (const util::ByteBuffer& p : pushes[0]) {
    push_bytes += static_cast<double>(p.size());
  }
  util::ByteBuffer frames;
  const double frame_s = SecondsPerCall([&] {
    frames.Clear();
    for (std::size_t t = 0; t < plan.size(); ++t) {
      rpc::EncodeFrame(rpc::MsgType::kPush, 1, static_cast<std::uint32_t>(t),
                       pushes[0][t].span(), frames);
    }
  });
  out->push_back({"rpc.frame_encode_gbps", Gbps(push_bytes, frame_s), "GB/s"});

  // nn checkpoint: the server state RpcServer checkpoints each step — model,
  // ps state, membership and a full replay ring of pull frames — saved as a
  // generation through util::Fs (in memory, as in the checkpoint workload).
  const rpc::RpcServerConfig defaults;
  nn::ServerState state;
  state.next_step = kSteps;
  util::ByteBuffer ps_state;
  server.SaveState(ps_state);
  state.ps_state.assign(ps_state.data(), ps_state.data() + ps_state.size());
  state.evicted.assign(kWorkers, 0);
  state.greeted.assign(kWorkers, 1);
  for (int r = 0; r < defaults.replay_steps; ++r) {
    nn::ServerState::ReplayStep replay;
    replay.step = static_cast<std::uint64_t>(kSteps - 1 - r);
    for (std::size_t t = 0; t < plan.size(); ++t) {
      util::ByteBuffer frame;
      rpc::EncodeFrame(rpc::MsgType::kPull, replay.step,
                       static_cast<std::uint32_t>(t), server.PullPayload(t),
                       frame);
      replay.frames.emplace_back(frame.data(), frame.data() + frame.size());
    }
    state.replay.insert(state.replay.begin(), std::move(replay));
  }
  MemFs memfs;
  nn::CheckpointManager::Options options;
  options.path = kCheckpointPath;
  options.retain = defaults.checkpoint_retain;
  options.block_codec = workload.block_codec;
  options.fs = &memfs;
  nn::CheckpointManager manager(options);
  const double save_s =
      SecondsPerCall([&] { manager.Save(server_model, state); }, 5);
  const std::vector<std::uint8_t> blob = memfs.ReadFile(
      manager.GenerationPath(manager.next_generation() - 1));
  out->push_back({"nn.checkpoint_write_ms", save_s * 1e3, "ms"});
  out->push_back({"nn.checkpoint_bytes", static_cast<double>(blob.size()),
                  "bytes"});
  const double crc_s =
      SecondsPerCall([&] { (void)util::Crc32c(blob.data(), blob.size()); });
  out->push_back({"util.crc32_gbps",
                  Gbps(static_cast<double>(blob.size()), crc_s), "GB/s"});
}

void ProbeHost(MetricList* out) {
  // memcpy over a buffer far larger than the last-level cache.
  std::vector<char> src(64u << 20, 1), dst(64u << 20);
  const double copy_s = SecondsPerCall(
      [&] { std::memcpy(dst.data(), src.data(), src.size()); }, 7);
  out->push_back({"host.memcpy_gbps",
                  Gbps(static_cast<double>(src.size()), copy_s), "GB/s"});

  std::string error;
  int port = 0;
  const int listener = rpc::ListenOn("127.0.0.1", 0, &error, &port);
  if (listener < 0) throw std::runtime_error("loopback probe: " + error);
  rpc::RetryOptions retry;
  retry.max_attempts = 3;
  const int client =
      rpc::ConnectWithRetry("127.0.0.1", port, retry, nullptr, &error);
  const int server = client < 0 ? -1 : ::accept(listener, nullptr, nullptr);
  ::close(listener);
  if (client < 0 || server < 0) {
    if (client >= 0) ::close(client);
    throw std::runtime_error("loopback probe: connect: " + error);
  }
  rpc::SetNoDelay(client);
  rpc::SetNoDelay(server);

  // Round trip: one byte out, one byte back, on blocking sockets.
  constexpr int kRoundTrips = 2000;
  constexpr std::size_t kStreamBytes = 64u << 20;
  std::thread echo([server] {
    char c = 0;
    for (int i = 0; i < kRoundTrips; ++i) {
      if (::recv(server, &c, 1, MSG_WAITALL) != 1) return;
      if (::send(server, &c, 1, MSG_NOSIGNAL) != 1) return;
    }
    std::vector<char> sink(1u << 18);
    std::size_t got = 0;
    while (got < kStreamBytes) {
      const ssize_t n = ::recv(server, sink.data(), sink.size(), 0);
      if (n <= 0) return;
      got += static_cast<std::size_t>(n);
    }
    ::send(server, &c, 1, MSG_NOSIGNAL);  // stream fully received
  });
  std::vector<double> rtt_us;
  char c = 'x';
  bool ok = true;
  for (int i = 0; i < kRoundTrips && ok; ++i) {
    util::WallTimer timer;
    ok = ::send(client, &c, 1, MSG_NOSIGNAL) == 1 &&
         ::recv(client, &c, 1, MSG_WAITALL) == 1;
    rtt_us.push_back(timer.ElapsedMicros());
  }
  // Throughput: kStreamBytes one way, timed to the receiver's ack.
  std::vector<char> chunk(1u << 18, 7);
  util::WallTimer stream;
  std::size_t sent = 0;
  while (ok && sent < kStreamBytes) {
    const ssize_t n = ::send(client, chunk.data(),
                             std::min(chunk.size(), kStreamBytes - sent),
                             MSG_NOSIGNAL);
    ok = n > 0;
    if (ok) sent += static_cast<std::size_t>(n);
  }
  ok = ok && ::recv(client, &c, 1, MSG_WAITALL) == 1;
  const double stream_s = stream.ElapsedSeconds();
  ::shutdown(client, SHUT_RDWR);
  echo.join();
  ::close(client);
  ::close(server);
  if (!ok) throw std::runtime_error("loopback probe: transfer failed");
  out->push_back({"host.loopback_rtt_us", Median(rtt_us), "us"});
  out->push_back({"host.loopback_gbps",
                  Gbps(static_cast<double>(kStreamBytes), stream_s), "GB/s"});
}

}  // namespace perfbench
