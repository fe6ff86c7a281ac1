#include "workload.h"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <exception>
#include <iostream>
#include <thread>

#include "data/synthetic.h"
#include "memfs.h"
#include "ps/plan.h"
#include "ps/server.h"
#include "ps/worker.h"
#include "rpc/runtime.h"
#include "train/model_zoo.h"
#include "util/rng.h"
#include "util/timer.h"

namespace perfbench {

using namespace threelc;

const std::vector<Workload>& Workloads() {
  // Why each exists is recorded in BENCHMARK.json and README.md.
  static const std::vector<Workload> kAll = {
      // Codec and server-step CPU dominate the step.
      {"lan-3lc", compress::CodecConfig::ThreeLC(1.00f), "store", false,
       false, 0.0, 150},
      // The write-ahead checkpoint dominates; the codec is a copy.
      {"lan-f32-ckpt", compress::CodecConfig::Float32(), "store", true, false,
       0.0, 60},
      // Paced 10 Mbps links dominate; the only block-codec workload.
      {"wan-3lc", compress::CodecConfig::ThreeLC(1.75f), "lz+rans", false,
       true, 10e6, 50},
  };
  return kAll;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

train::ExperimentConfig MakeConfig(const Workload& workload,
                                   std::uint64_t seed) {
  train::ExperimentConfig config = train::DefaultExperiment();
  config.data.num_train = 4096;
  config.data.num_test = 512;
  // The paper's scale: 54 hidden layers of width 176 give 1,687,146
  // parameters over 112 tensors (ResNet-110 has ~1.73M). The 54 hidden
  // biases (176 < min_compress_elems) bypass compression as small layers.
  config.model.hidden.assign(54, 176);

  train::TrainerConfig& tc = config.trainer;
  tc.num_workers = kWorkers;
  tc.batch_size = kBatch;
  tc.total_steps = workload.episode_steps;
  // lr_max = 0.1 (the paper's) drives this 55-layer MLP non-finite within a
  // few hundred steps; 0.01 keeps it finite.
  tc.lr_max = 0.01f;
  tc.lr_min = 0.001f;
  tc.eval_every = 0;
  tc.codec = workload.codec;
  tc.seed = seed;
  return config;
}

std::vector<std::uint8_t> SerializeModel(nn::Model& model) {
  std::vector<std::uint8_t> out;
  auto append = [&out](const tensor::Tensor& t) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(t.data());
    out.insert(out.end(), p, p + t.byte_size());
  };
  for (const nn::ParamRef& p : model.Params()) append(*p.value);
  for (const tensor::Tensor* b : model.Buffers()) append(*b);
  return out;
}

bool AllFinite(nn::Model& model) {
  for (const nn::ParamRef& p : model.Params()) {
    const float* v = p.value->data();
    for (std::int64_t i = 0; i < p.value->num_elements(); ++i) {
      if (!std::isfinite(v[i])) return false;
    }
  }
  return true;
}

double HeldOutLoss(nn::Model& model, const data::Dataset& test) {
  const data::Batch batch = data::EvalBatches(test, 256).front();
  const tensor::Tensor logits = model.Forward(batch.inputs, false);
  return nn::SoftmaxCrossEntropy(logits, batch.labels).loss;
}

namespace {

// One worker's state; heap-allocated because ps::Worker and RpcWorker keep
// references into it.
struct WorkerSlot {
  nn::Model model;
  ps::TensorPlan plan;
  std::unique_ptr<ps::Worker> ps_worker;
  std::unique_ptr<rpc::RpcWorker> rpc_worker;
};

// Run `body` and turn an escaping exception into a failed result.
template <typename Body>
bool Guarded(Body body, std::string* error) {
  try {
    return body();
  } catch (const std::exception& e) {
    *error = e.what();
    return false;
  }
}

}  // namespace

EpisodeResult RunEpisode(const Workload& workload,
                         const train::ExperimentConfig& config,
                         obs::Telemetry* telemetry) {
  EpisodeResult result;
  const train::TrainerConfig& tc = config.trainer;
  util::WallTimer setup_timer;

  const data::SyntheticData data = data::MakeTeacherDataset(config.data);
  nn::Model model = train::BuildMlp(config.model, config.model_seed);
  const ps::TensorPlan plan =
      ps::TensorPlan::FromParams(model.Params(), tc.min_compress_elems);
  auto codec = std::shared_ptr<const compress::Compressor>(
      compress::MakeCompressor(tc.codec));
  ps::ParameterServer ps(model, plan, codec, tc.optimizer);

  std::unique_ptr<MemFs> memfs;
  rpc::RpcServerConfig sc;
  sc.num_workers = tc.num_workers;
  sc.total_steps = tc.total_steps;
  sc.lr_max = tc.lr_max;
  sc.lr_min = tc.lr_min;
  sc.handshake_timeout_ms = 20000;
  sc.step_timeout_ms = 30000;
  sc.shutdown_timeout_ms = 20000;
  sc.block_codec = workload.block_codec;
  sc.telemetry = telemetry;
  if (workload.checkpoint) {
    memfs = std::make_unique<MemFs>();
    sc.checkpoint_path = kCheckpointPath;
    sc.fs = memfs.get();
  }
  rpc::RpcServer server(sc, ps, codec->name());
  if (!server.Listen(&result.error)) return result;

  std::unique_ptr<Relay> relay;
  if (workload.relay) {
    relay = std::make_unique<Relay>(workload.link_bps, "127.0.0.1",
                                    server.port(), kWorkers);
    if (!relay->Start(&result.error)) return result;
  }

  util::Rng seeder(tc.seed);  // forked per worker as DistributedTrainer does
  std::vector<std::unique_ptr<WorkerSlot>> slots;
  for (int w = 0; w < kWorkers; ++w) {
    auto slot = std::make_unique<WorkerSlot>();
    slot->model = train::BuildMlp(config.model, config.model_seed);
    slot->plan =
        ps::TensorPlan::FromParams(slot->model.Params(), tc.min_compress_elems);
    slot->ps_worker =
        std::make_unique<ps::Worker>(w, slot->model, slot->plan, codec);
    data::Sampler sampler(data.train, seeder.Fork(), tc.augment_noise);
    rpc::RpcWorkerConfig wc;
    wc.port = relay ? relay->port(w) : server.port();
    wc.worker_id = w;
    wc.batch_size = tc.batch_size;
    wc.handshake_timeout_ms = 20000;
    wc.pull_timeout_ms = 40000;
    wc.io_timeout_ms = 20000;
    wc.retry.max_attempts = 5;
    wc.retry.initial_backoff_ms = 10;
    wc.block_codec = workload.block_codec;
    slot->rpc_worker = std::make_unique<rpc::RpcWorker>(
        wc, *slot->ps_worker, slot->plan, codec->name(), std::move(sampler));
    slots.push_back(std::move(slot));
  }
  result.setup_s = setup_timer.ElapsedSeconds();

  util::WallTimer run_timer;
  bool server_ok = false;
  std::string server_error;
  std::thread server_thread([&] {
    server_ok = Guarded([&] { return server.Run(); }, &server_error);
  });
  std::vector<char> worker_ok(kWorkers, 0);
  std::vector<std::string> worker_errors(kWorkers);
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      const auto i = static_cast<std::size_t>(w);
      worker_ok[i] = Guarded([&] { return slots[i]->rpc_worker->Run(); },
                             &worker_errors[i]);
    });
  }
  for (std::thread& t : threads) t.join();
  server_thread.join();
  result.run_s = run_timer.ElapsedSeconds();

  auto note = [&result](const std::string& error) {
    if (result.error.empty()) result.error = error;  // first failure wins
  };
  if (!server_ok) {
    note("server: " + (server_error.empty() ? server.error() : server_error));
  }
  for (int w = 0; w < kWorkers; ++w) {
    const auto i = static_cast<std::size_t>(w);
    if (!worker_ok[i]) {
      note("worker " + std::to_string(w) + ": " +
           (worker_errors[i].empty() ? slots[i]->rpc_worker->error()
                                     : worker_errors[i]));
    }
  }
  if (relay) {
    relay->Stop();
    result.link_counts = relay->counts();
    for (const LinkCount& c : result.link_counts) {
      result.link_busy_s += relay->BusySeconds(c) / kWorkers;
    }
    if (!relay->error().empty()) note(relay->error());
  }
  result.steps_completed = server.steps_completed();
  if (result.steps_completed != tc.total_steps) {
    note("completed " + std::to_string(result.steps_completed) + " of " +
         std::to_string(tc.total_steps) + " steps");
  }
  if (!AllFinite(model)) note("non-finite model");
  result.ok = result.error.empty();
  result.model_bytes = SerializeModel(model);
  return result;
}

namespace {

void Serialize(const EpisodeResult& r, util::ByteBuffer& out) {
  out.AppendU8(r.ok ? 1 : 0);
  out.AppendU64(r.error.size());
  out.Append(r.error.data(), r.error.size());
  out.AppendF64(r.setup_s);
  out.AppendF64(r.run_s);
  out.AppendU64(static_cast<std::uint64_t>(r.steps_completed));
  out.AppendF64(r.link_busy_s);
  out.AppendF64(r.server_wire_bytes);
  out.AppendU64(r.link_counts.size());
  for (const LinkCount& c : r.link_counts) {
    out.AppendU64(c.up_bytes);
    out.AppendU64(c.down_bytes);
  }
  out.AppendU64(r.model_bytes.size());
  out.Append(r.model_bytes.data(), r.model_bytes.size());
}

EpisodeResult Deserialize(util::ByteReader& in) {
  EpisodeResult r;
  r.ok = in.ReadU8() != 0;
  const util::ByteSpan error = in.ReadSpan(in.ReadU64());
  r.error.assign(reinterpret_cast<const char*>(error.data()), error.size());
  r.setup_s = in.ReadF64();
  r.run_s = in.ReadF64();
  r.steps_completed = static_cast<std::int64_t>(in.ReadU64());
  r.link_busy_s = in.ReadF64();
  r.server_wire_bytes = in.ReadF64();
  r.link_counts.resize(in.ReadU64());
  for (LinkCount& c : r.link_counts) {
    c.up_bytes = in.ReadU64();
    c.down_bytes = in.ReadU64();
  }
  const util::ByteSpan model = in.ReadSpan(in.ReadU64());
  r.model_bytes.assign(model.data(), model.data() + model.size());
  return r;
}

// The child's half of RunEpisodeIsolated: run, serialise, exit.
[[noreturn]] void EpisodeChild(const Workload& workload,
                               const train::ExperimentConfig& config,
                               const std::string& step_log_path, int fd,
                               pid_t parent) {
  // A parent killed on timeout takes its episode with it (also when it
  // died before the request took effect).
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() != parent) _exit(4);
  util::ByteBuffer out;
  try {
    EpisodeResult r;
    if (step_log_path.empty()) {
      r = RunEpisode(workload, config);
    } else {
      obs::TelemetryOptions options;
      options.metrics_path = step_log_path;
      obs::Telemetry telemetry(options);
      r = RunEpisode(workload, config, &telemetry);
      telemetry.Flush();
      r.server_wire_bytes =
          telemetry.metrics().counter("rpc/wire_bytes")->Read().value;
    }
    Serialize(r, out);
  } catch (const std::exception& e) {
    EpisodeResult r;
    r.error = e.what();
    Serialize(r, out);
  }
  std::size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n = ::write(fd, out.data() + sent, out.size() - sent);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) _exit(3);
    sent += static_cast<std::size_t>(n);
  }
  _exit(0);
}

}  // namespace

EpisodeResult RunEpisodeIsolated(const Workload& workload,
                                 const train::ExperimentConfig& config,
                                 const std::string& step_log_path) {
  EpisodeResult failed;
  int fds[2];
  if (::pipe(fds) != 0) {
    failed.error = std::string("pipe: ") + std::strerror(errno);
    return failed;
  }
  std::cout.flush();
  std::cerr.flush();
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    EpisodeChild(workload, config, step_log_path, fds[1], parent);
  }
  ::close(fds[1]);
  if (pid < 0) {
    ::close(fds[0]);
    failed.error = std::string("fork: ") + std::strerror(errno);
    return failed;
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fds[0], chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  ::close(fds[0]);
  int status = 0;
  rusage usage{};
  while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    failed.error = "episode process ended with status " +
                   std::to_string(status);
    return failed;
  }
  EpisodeResult r;
  try {
    util::ByteReader reader(util::ByteSpan(bytes.data(), bytes.size()));
    r = Deserialize(reader);
  } catch (const std::exception& e) {
    failed.error = std::string("episode result unreadable: ") + e.what();
    return failed;
  }
  r.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return r;
}

Reference RunReference(const train::ExperimentConfig& config) {
  Reference ref;
  ref.data = data::MakeTeacherDataset(config.data);
  const train::MlpSpec spec = config.model;
  const std::uint64_t seed = config.model_seed;
  train::DistributedTrainer trainer(
      config.trainer, [spec, seed] { return train::BuildMlp(spec, seed); },
      ref.data.train, ref.data.test);
  ref.result = trainer.Run();
  ref.model_bytes = SerializeModel(trainer.global_model());
  ref.model = std::make_unique<nn::Model>(train::BuildMlp(spec, seed));
  ref.model->CopyParamsFrom(trainer.global_model());
  ref.model->CopyBuffersFrom(trainer.global_model());
  return ref;
}

}  // namespace perfbench
