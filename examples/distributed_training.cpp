// Real multi-process distributed training over TCP (rpc::RpcServer /
// rpc::RpcWorker), producing bitwise-identical results to the in-process
// DistributedTrainer for the same seed, codec, and step count.
//
// Modes:
//   --spawn N            fork N worker processes, run the server in this
//                        process over loopback (the default, N=3)
//   --role server        run only the parameter server (then start workers
//                        elsewhere with --role worker --port <port>)
//   --role worker        run one worker; needs --worker-id and --port
//
// Common knobs: --steps, --workers, --batch-size, --codec none|3lc, --s,
// --block-codec store|lz|rans|lz+rans (second-stage lossless byte codec
// over the wire payloads and checkpoint files; default store = off),
// --seed, --host, --port. Outputs: --checkpoint-out writes the final global
// model (CRC32C-protected checkpoint); --compare re-runs the same training
// in-process and verifies the parameters match bit for bit; --linger-ms
// keeps the process (and the --metrics-port HTTP endpoints) alive after
// training so a scraper can read final counters.
//
// Fault-tolerance / chaos knobs:
//   --grace-ms N         server holds a dead worker's barrier slot open N ms
//                        for a REJOIN before evicting it (0 = strict)
//   --replay-steps N     pull-replay ring depth for rejoiners (default 8)
//   --kill-step K --kill-worker W
//                        worker W simulates a crash after completing step K:
//                        writes a v3 checkpoint (model + EA buffers +
//                        sampler cursor + step counter) and drops the socket
//   --restart-killed     (default true) the parent restarts the killed
//                        worker from its checkpoint; it REJOINs and the run
//                        finishes bitwise identical to a fault-free one
//   --state-dir DIR      where crash checkpoints are written (default ".")
//   --inject SPEC        worker-side fault-injection spec, e.g.
//                        "corrupt:push@3" or "delay100:push@any#*"
//   --inject-worker W    apply --inject to worker W only (default -1 =
//                        every worker) — e.g. delay one worker's pushes to
//                        make it the fleet's straggler on /clusterz
//   --inject-server SPEC same, attached to the server's connections
//   --inject-seed N      seed for the deterministic fault schedules
//   --max-reconnects N   per-worker mid-run reconnect budget (default 5)
//   --lease-ms N         liveness lease (protocol v6): a peer silent for N ms
//                        is declared hung — the server routes the expiry
//                        through the grace/evict path, a worker force-closes
//                        and reconnects. Both sides beacon HEARTBEAT frames
//                        when idle so a healthy-but-quiet peer never trips
//                        it. 0 (default) disables leases entirely
//   --heartbeat-ms N     idle beacon cadence (default 0 = lease-ms / 4)
//   --sigstop-worker W@STEP
//                        spawn mode: freeze worker W with SIGSTOP once the
//                        server has completed STEP steps — a real hung
//                        process, socket open but nothing flowing, which
//                        only the lease layer can detect
//   --sigcont-after-ms N thaw the SIGSTOP'd worker N ms later (default
//                        3000); depending on --grace-ms it then REJOINs
//                        (grace still open) or exits evicted
//
// Server crash recovery:
//   --server-checkpoint PATH
//                        enable the write-ahead server checkpoint (model +
//                        aggregation/EA state + replay ring + membership +
//                        epoch), written atomically every
//                        --server-checkpoint-every steps (default 1)
//   --kill-server-step K server simulates a crash after completing step K
//                        (checkpoint already on disk); in --spawn mode the
//                        supervisor resumes a fresh incarnation from the
//                        checkpoint on the same port and the workers REJOIN
//                        against the bumped epoch — the run still finishes
//                        bitwise identical to a fault-free one
//   --restart-server     (default true) whether --spawn resumes the killed
//                        server; --role server instead takes --resume to
//                        restart manually from --server-checkpoint
//
// Storage-fault drills (checkpoint generations live at
// "<server-checkpoint>.g<N>"; resume falls back past bad ones):
//   --server-checkpoint-retain N
//                        checkpoint generations kept on disk (default 2)
//   --fs-fault SPEC      server-side filesystem fault spec, e.g.
//                        "enospc:write@any#*" (disk full from the first
//                        write on), "eio:fsync@2", "torn:rename@1" (the
//                        rename is swallowed and the server dies at the
//                        torn-write point); grammar in util/fs.h. Seeded
//                        by --inject-seed; one injector instance spans
//                        server incarnations so call counters keep
//                        advancing across restarts
//   --kill-server-at-checkpoint K
//                        server dies between step K's checkpoint write
//                        and its fan-out (the window where generation
//                        fallback is bitwise-safe); the supervisor
//                        resumes it like --kill-server-step. Shorthand
//                        for a "killserver:pull@K" --inject-server rule
//                        on the first incarnation
//   --corrupt-newest-on-resume
//                        (spawn mode) flip one byte in the newest
//                        checkpoint generation before the first resume,
//                        forcing the last-good fallback path
//
// SIGTERM/SIGINT: every role stops gracefully — the in-flight step is
// abandoned cleanly, a resumable checkpoint is written (server: the server
// checkpoint; worker: its v3 crash checkpoint in --state-dir), telemetry
// and the flight recorder are flushed, and the process exits 0.
//
// Examples:
//   ./build/examples/distributed_training --spawn 3 --steps 20 --codec 3lc
//       --compare --metrics-port 9109 --linger-ms 2000
//   ./build/examples/distributed_training --spawn 3 --steps 20 --codec 3lc
//       --grace-ms 10000 --kill-step 7 --kill-worker 1 --compare
//   ./build/examples/distributed_training --role server --port 7171 &
//   ./build/examples/distributed_training --role worker --worker-id 0
//       --port 7171
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "blockcodec/block_codec.h"
#include "compress/factory.h"
#include "nn/checkpoint.h"
#include "obs/http_server.h"
#include "obs/telemetry.h"
#include "rpc/fault.h"
#include "rpc/runtime.h"
#include "util/fs.h"
#include "rpc/transport.h"
#include "train/experiment.h"
#include "train/model_zoo.h"
#include "train/trainer.h"
#include "util/crc32.h"
#include "util/flags.h"
#include "util/logging.h"

using namespace threelc;

namespace {

// A worker that exits with this code crashed on purpose (--kill-step); the
// parent treats it as restartable, every other nonzero status as a failure.
constexpr int kSimulatedCrashExit = 42;

// Flipped by the SIGTERM/SIGINT handler; polled by both runtime roles
// (RpcServer/RpcWorker stop_flag) and by the spawn-mode supervisor.
std::atomic<bool> g_stop{false};

extern "C" void HandleStopSignal(int) {
  g_stop.store(true, std::memory_order_release);
}

void InstallStopHandlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleStopSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: blocking poll() must wake with EINTR
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
}

// Everything both roles must agree on, derived from the same flags in
// every process.
struct Setup {
  train::ExperimentConfig config;
  data::SyntheticData data;
  // Second-stage lossless block codec, negotiated in the handshake; both
  // roles derive it from the same --block-codec flag.
  std::string block_codec = "store";
};

Setup MakeSetup(const util::Flags& flags, int num_workers) {
  Setup setup;
  setup.config = train::SmallExperiment();
  train::TrainerConfig& tc = setup.config.trainer;
  tc.num_workers = num_workers;
  tc.total_steps = flags.GetInt("steps", 20);
  tc.batch_size = flags.GetInt("batch-size", tc.batch_size);
  tc.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 7));
  tc.eval_every = 0;
  const std::string codec = flags.GetString("codec", "3lc");
  if (codec == "none") {
    tc.codec = compress::CodecConfig::Float32();
  } else if (codec == "3lc") {
    tc.codec = compress::CodecConfig::ThreeLC(
        static_cast<float>(flags.GetDouble("s", 1.0)));
  } else {
    THREELC_CHECK_MSG(false, "unknown --codec '" << codec
                                                 << "' (want none|3lc)");
  }
  setup.block_codec = flags.GetString("block-codec", "store");
  THREELC_CHECK_MSG(blockcodec::Find(setup.block_codec) != nullptr,
                    "unknown --block-codec '"
                        << setup.block_codec << "' (want "
                        << blockcodec::KnownNames() << ")");
  setup.data = data::MakeTeacherDataset(setup.config.data);
  return setup;
}

std::uint32_t ModelHash(nn::Model& model) {
  std::uint32_t crc = util::Crc32c(nullptr, 0);
  for (const nn::ParamRef& param : model.Params()) {
    crc = util::Crc32cExtend(crc, param.value->data(),
                             param.value->byte_size());
  }
  for (const tensor::Tensor* buffer : model.Buffers()) {
    crc = util::Crc32cExtend(crc, buffer->data(), buffer->byte_size());
  }
  return crc;
}

bool ModelsBitwiseEqual(nn::Model& a, nn::Model& b) {
  auto pa = a.Params(), pb = b.Params();
  if (pa.size() != pb.size()) return false;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if (pa[i].value->byte_size() != pb[i].value->byte_size() ||
        std::memcmp(pa[i].value->data(), pb[i].value->data(),
                    pa[i].value->byte_size()) != 0) {
      return false;
    }
  }
  auto ba = a.Buffers(), bb = b.Buffers();
  if (ba.size() != bb.size()) return false;
  for (std::size_t i = 0; i < ba.size(); ++i) {
    if (ba[i]->byte_size() != bb[i]->byte_size() ||
        std::memcmp(ba[i]->data(), bb[i]->data(), ba[i]->byte_size()) != 0) {
      return false;
    }
  }
  return true;
}

// Per-worker fault-tolerance knobs, all defaulting to "behave like PR 3".
struct WorkerChaos {
  std::int64_t exit_after_step = -1;  // simulate a crash after this step
  // Written at a crash or on SIGTERM/SIGINT; read on rejoin.
  std::string checkpoint_path;
  bool rejoin = false;  // resume via REJOIN from checkpoint_path
  int max_reconnects = 5;
  std::string inject_spec;
  std::uint64_t inject_seed = 0;
  int lease_ms = 0;
  int heartbeat_ms = 0;
};

int RunWorker(const Setup& setup, int worker_id, const std::string& host,
              int port, obs::Telemetry* telemetry,
              const WorkerChaos& chaos) {
  const train::TrainerConfig& tc = setup.config.trainer;
  nn::Model model =
      train::BuildMlp(setup.config.model, setup.config.model_seed);

  // A restarted worker resumes from the v3 checkpoint its previous life
  // wrote at the simulated crash: model tensors first (before the
  // ps::Worker caches parameter pointers), then the codec EA buffers and
  // the sampler cursor once those objects exist.
  nn::TrainState resume;
  if (chaos.rejoin) {
    nn::LoadCheckpointState(model, &resume, chaos.checkpoint_path);
  }

  const ps::TensorPlan plan =
      ps::TensorPlan::FromParams(model.Params(), tc.min_compress_elems);
  auto codec = std::shared_ptr<const compress::Compressor>(
      compress::MakeCompressor(tc.codec));
  ps::Worker ps_worker(worker_id, model, plan, codec);

  // Reproduce DistributedTrainer's sampler seeding exactly: worker w uses
  // the (w+1)-th Fork of one seeder — this is what makes the TCP run
  // bitwise identical to the in-process run.
  util::Rng seeder(tc.seed);
  util::Rng rng = seeder.Fork();
  for (int i = 0; i < worker_id; ++i) rng = seeder.Fork();
  data::Sampler sampler(setup.data.train, rng, tc.augment_noise);

  if (chaos.rejoin) {
    try {
      util::ByteReader codec_reader(util::ByteSpan(
          resume.codec_state.data(), resume.codec_state.size()));
      ps_worker.LoadCodecState(codec_reader);
      util::ByteReader sampler_reader(util::ByteSpan(
          resume.sampler_state.data(), resume.sampler_state.size()));
      sampler.LoadState(sampler_reader);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "worker %d: cannot resume from %s: %s\n",
                   worker_id, chaos.checkpoint_path.c_str(), e.what());
      return 1;
    }
    std::printf("worker %d: resuming from %s at step %llu\n", worker_id,
                chaos.checkpoint_path.c_str(),
                static_cast<unsigned long long>(resume.next_step));
    std::fflush(stdout);
  }

  rpc::FaultInjector injector(chaos.inject_seed);
  rpc::FaultInjector* fault = nullptr;
  if (!chaos.inject_spec.empty()) {
    std::string spec_error;
    if (!injector.AddRulesFromSpec(chaos.inject_spec, &spec_error)) {
      std::fprintf(stderr, "worker %d: bad --inject spec: %s\n", worker_id,
                   spec_error.c_str());
      return 1;
    }
    fault = &injector;
  }

  rpc::RpcWorkerConfig wc;
  wc.host = host;
  wc.port = port;
  wc.worker_id = worker_id;
  wc.batch_size = tc.batch_size;
  wc.telemetry = telemetry;
  wc.start_step = chaos.rejoin ? static_cast<std::int64_t>(resume.next_step) : 0;
  wc.rejoin = chaos.rejoin;
  wc.max_reconnects = chaos.max_reconnects;
  wc.exit_after_step = chaos.exit_after_step;
  wc.checkpoint_path = chaos.checkpoint_path;
  wc.stop_flag = &g_stop;
  wc.fault = fault;
  wc.block_codec = setup.block_codec;
  wc.lease_ms = chaos.lease_ms;
  wc.heartbeat_ms = chaos.heartbeat_ms;
  rpc::RpcWorker worker(wc, ps_worker, plan, codec->name(),
                        std::move(sampler));
  if (!worker.Run()) {
    if (worker.simulated_exit()) {
      std::printf("worker %d: %s\n", worker_id, worker.error().c_str());
      std::fflush(stdout);
      return kSimulatedCrashExit;
    }
    if (worker.interrupted()) {
      // SIGTERM/SIGINT: the resumable checkpoint (if any) is on disk and
      // the step was abandoned cleanly — a graceful stop, not a failure.
      std::printf("worker %d: %s\n", worker_id, worker.error().c_str());
      std::fflush(stdout);
      return 0;
    }
    std::fprintf(stderr, "worker %d failed: %s\n", worker_id,
                 worker.error().c_str());
    return 1;
  }
  return 0;
}

// The server plus everything it borrows, so callers (the spawn-mode reaper
// thread needs a stable RpcServer* for RequestStop) control the lifetime.
struct ServerParts {
  std::unique_ptr<nn::Model> model;
  std::unique_ptr<ps::TensorPlan> plan;
  std::shared_ptr<const compress::Compressor> codec;
  std::unique_ptr<ps::ParameterServer> ps;
  std::unique_ptr<rpc::FaultInjector> fault;
  std::unique_ptr<rpc::RpcServer> server;
};

// --server-checkpoint wins; killing the server without one would make the
// crash unrecoverable, so --kill-server-step (and the storage-drill kill,
// --kill-server-at-checkpoint) implies a default path under --state-dir.
std::string ServerCheckpointPath(const util::Flags& flags) {
  const std::string explicit_path = flags.GetString("server-checkpoint", "");
  if (!explicit_path.empty()) return explicit_path;
  if (flags.GetInt("kill-server-step", -1) >= 0 ||
      flags.GetInt("kill-server-at-checkpoint", -1) >= 0) {
    return flags.GetString("state-dir", ".") + "/dt_server.sckpt";
  }
  return "";
}

// --fs-fault: a deterministic storage-fault injector for the server's
// checkpoint writes. Built once per process (not per incarnation) so the
// per-op call counters, occurrence latches, and the seeded short-write
// stream span server restarts — a persistent "disk" whose behavior does
// not reset because the process recovered.
std::unique_ptr<util::FaultFs> MakeServerFs(const util::Flags& flags) {
  const std::string spec = flags.GetString("fs-fault", "");
  if (spec.empty()) return nullptr;
  // Distinct stream from the frame injectors under a shared --inject-seed.
  auto fs = std::make_unique<util::FaultFs>(
      nullptr,
      static_cast<std::uint64_t>(flags.GetInt("inject-seed", 1)) ^ 0xd15cull);
  std::string spec_error;
  THREELC_CHECK_MSG(fs->AddRulesFromSpec(spec, &spec_error),
                    "bad --fs-fault spec: " << spec_error);
  return fs;
}

// --corrupt-newest-on-resume: flip one byte in the middle of the newest
// checkpoint generation, simulating at-rest corruption discovered at
// resume time; the server must fall back to the previous good generation.
bool CorruptNewestGeneration(const std::string& ckpt_path) {
  const std::size_t slash = ckpt_path.rfind('/');
  const std::string dir =
      slash == std::string::npos ? "." : ckpt_path.substr(0, slash);
  const std::string prefix =
      (slash == std::string::npos ? ckpt_path : ckpt_path.substr(slash + 1)) +
      ".g";
  std::vector<std::string> names;
  if (!util::Fs::Real()->List(dir, &names)) return false;
  long long newest = -1;
  for (const std::string& name : names) {
    if (name.rfind(prefix, 0) != 0) continue;
    const std::string digits = name.substr(prefix.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    newest = std::max(newest, std::atoll(digits.c_str()));
  }
  if (newest < 0) return false;
  const std::string path = ckpt_path + ".g" + std::to_string(newest);
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  if (f == nullptr) return false;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  if (size <= 0) {
    std::fclose(f);
    return false;
  }
  std::fseek(f, size / 2, SEEK_SET);
  const int byte = std::fgetc(f);
  if (byte == EOF) {
    std::fclose(f);
    return false;
  }
  std::fseek(f, size / 2, SEEK_SET);
  std::fputc(byte ^ 0x40, f);
  std::fclose(f);
  std::printf("corrupting newest generation %s (byte %ld)\n", path.c_str(),
              size / 2);
  std::fflush(stdout);
  return true;
}

// `first_incarnation` is false for a server resumed from its checkpoint.
ServerParts MakeServerParts(const Setup& setup, const util::Flags& flags,
                            obs::Telemetry* telemetry, util::Fs* fs,
                            bool first_incarnation) {
  const train::TrainerConfig& tc = setup.config.trainer;
  ServerParts parts;
  parts.model = std::make_unique<nn::Model>(
      train::BuildMlp(setup.config.model, setup.config.model_seed));
  parts.plan = std::make_unique<ps::TensorPlan>(
      ps::TensorPlan::FromParams(parts.model->Params(),
                                 tc.min_compress_elems));
  parts.codec = std::shared_ptr<const compress::Compressor>(
      compress::MakeCompressor(tc.codec));
  parts.ps = std::make_unique<ps::ParameterServer>(
      *parts.model, *parts.plan, parts.codec, tc.optimizer);

  rpc::RpcServerConfig sc;
  sc.host = flags.GetString("host", "127.0.0.1");
  sc.port = static_cast<int>(flags.GetInt("port", 0));
  sc.num_workers = tc.num_workers;
  sc.total_steps = tc.total_steps;
  sc.lr_max = tc.lr_max;
  sc.lr_min = tc.lr_min;
  sc.grace_ms = static_cast<int>(flags.GetInt("grace-ms", 0));
  sc.replay_steps = static_cast<int>(flags.GetInt("replay-steps", 8));
  sc.lease_ms = static_cast<int>(flags.GetInt("lease-ms", 0));
  sc.heartbeat_ms = static_cast<int>(flags.GetInt("heartbeat-ms", 0));
  sc.checkpoint_path = ServerCheckpointPath(flags);
  sc.checkpoint_every =
      static_cast<int>(flags.GetInt("server-checkpoint-every", 1));
  sc.checkpoint_retain =
      static_cast<int>(flags.GetInt("server-checkpoint-retain", 2));
  sc.fs = fs;
  sc.exit_after_step = flags.GetInt("kill-server-step", -1);
  sc.stop_flag = &g_stop;
  sc.telemetry = telemetry;
  sc.block_codec = setup.block_codec;
  std::string inject = flags.GetString("inject-server", "");
  // --kill-server-at-checkpoint K: step K's first PULL frame goes out
  // right after its write-ahead checkpoint, before any other fan-out byte.
  // The rule leads the spec so no other rule can claim that frame, and
  // rides only the first incarnation: replaying step K to rejoiners sends
  // pull@K frames again.
  const std::int64_t kill_at = flags.GetInt("kill-server-at-checkpoint", -1);
  if (first_incarnation && kill_at >= 0) {
    inject = "killserver:pull@" + std::to_string(kill_at) +
             (inject.empty() ? "" : ";" + inject);
  }
  if (!inject.empty()) {
    // Distinct stream from the workers' injectors so schedules don't
    // accidentally mirror each other under a shared --inject-seed.
    parts.fault = std::make_unique<rpc::FaultInjector>(
        static_cast<std::uint64_t>(flags.GetInt("inject-seed", 1)) ^
        0x5e4full);
    std::string spec_error;
    THREELC_CHECK_MSG(parts.fault->AddRulesFromSpec(inject, &spec_error),
                      "bad --inject-server spec: " << spec_error);
    sc.fault = parts.fault.get();
  }
  parts.server =
      std::make_unique<rpc::RpcServer>(sc, *parts.ps, parts.codec->name());
  return parts;
}

void MaybeLinger(const util::Flags& flags) {
  const std::int64_t linger_ms = flags.GetInt("linger-ms", 0);
  if (linger_ms <= 0) return;
  std::printf("lingering %lld ms for metric scrapes...\n",
              static_cast<long long>(linger_ms));
  std::fflush(stdout);
  std::this_thread::sleep_for(std::chrono::milliseconds(linger_ms));
}

int RunSpawn(const util::Flags& flags) {
  const int num_workers =
      static_cast<int>(flags.GetInt("spawn", flags.GetInt("workers", 3)));
  Setup setup = MakeSetup(flags, num_workers);
  const std::string host = flags.GetString("host", "127.0.0.1");

  const std::int64_t kill_step = flags.GetInt("kill-step", -1);
  const int kill_worker = static_cast<int>(flags.GetInt("kill-worker", 0));
  const bool restart_killed = flags.GetBool("restart-killed", true);
  const std::string state_dir = flags.GetString("state-dir", ".");
  const std::string inject = flags.GetString("inject", "");
  const int inject_worker = static_cast<int>(flags.GetInt("inject-worker", -1));
  const auto inject_seed =
      static_cast<std::uint64_t>(flags.GetInt("inject-seed", 1));
  const int max_reconnects =
      static_cast<int>(flags.GetInt("max-reconnects", 5));
  const int lease_ms = static_cast<int>(flags.GetInt("lease-ms", 0));
  const int heartbeat_ms = static_cast<int>(flags.GetInt("heartbeat-ms", 0));

  // --sigstop-worker W@STEP: a real hung-process drill. The worker keeps
  // its socket open but stops making progress, which nothing below the
  // lease layer can distinguish from "just slow".
  const std::string sigstop_spec = flags.GetString("sigstop-worker", "");
  int sigstop_worker = -1;
  std::int64_t sigstop_step = -1;
  if (!sigstop_spec.empty()) {
    const std::size_t at = sigstop_spec.find('@');
    bool spec_ok = at != std::string::npos;
    if (spec_ok) {
      try {
        sigstop_worker = std::stoi(sigstop_spec.substr(0, at));
        sigstop_step = std::stoll(sigstop_spec.substr(at + 1));
      } catch (const std::exception&) {
        spec_ok = false;
      }
    }
    if (!spec_ok || sigstop_worker < 0 || sigstop_worker >= num_workers ||
        sigstop_step < 0) {
      std::fprintf(stderr, "bad --sigstop-worker '%s' (want W@STEP)\n",
                   sigstop_spec.c_str());
      return 1;
    }
  }
  const std::int64_t sigcont_after_ms =
      flags.GetInt("sigcont-after-ms", 3000);

  // Bind before forking so children learn the ephemeral port, and fork
  // before the parent creates telemetry threads (HTTP server, watchdog).
  std::string error;
  int bound_port = 0;
  const int listen_fd = rpc::ListenOn(
      host, static_cast<int>(flags.GetInt("port", 0)), &error, &bound_port);
  if (listen_fd < 0) {
    std::fprintf(stderr, "listen failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("spawning %d workers against %s:%d\n", num_workers,
              host.c_str(), bound_port);
  std::fflush(stdout);

  auto spawn_child = [&](int w, bool rejoin) -> pid_t {
    const pid_t pid = fork();
    if (pid != 0) return pid;
    close(listen_fd);
    WorkerChaos chaos;
    chaos.max_reconnects = max_reconnects;
    if (inject_worker < 0 || inject_worker == w) chaos.inject_spec = inject;
    // Per-worker stream: the combined schedule is still a pure function of
    // --inject-seed, but workers don't mirror each other's faults.
    chaos.inject_seed = inject_seed + static_cast<std::uint64_t>(w);
    // A SIGTERM'd child leaves the same resumable v3 checkpoint a
    // simulated crash would.
    chaos.checkpoint_path =
        state_dir + "/dt_worker" + std::to_string(w) + ".ckpt";
    if (kill_step >= 0 && w == kill_worker && !rejoin) {
      chaos.exit_after_step = kill_step;  // crash only once
    }
    chaos.rejoin = rejoin;
    chaos.lease_ms = lease_ms;
    chaos.heartbeat_ms = heartbeat_ms;
    _exit(RunWorker(setup, w, host, bound_port, /*telemetry=*/nullptr,
                    chaos));
  };

  struct ChildSlot {
    pid_t pid = -1;
    bool running = false;
    bool restarted = false;
  };
  std::vector<ChildSlot> slots(static_cast<std::size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    const pid_t pid = spawn_child(w, /*rejoin=*/false);
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    slots[static_cast<std::size_t>(w)] = {pid, true, false};
  }

  std::unique_ptr<obs::Telemetry> telemetry;
  try {
    obs::TelemetryOptions opts = obs::TelemetryOptionsFromFlags(flags);
    if (opts.trace_path.empty() && opts.metrics_path.empty() &&
        !opts.monitoring_enabled()) {
      // No telemetry requested.
    } else {
      telemetry = std::make_unique<obs::Telemetry>(opts);
      if (telemetry->http_server() != nullptr) {
        std::printf("live monitoring on port %d\n",
                    telemetry->http_server()->port());
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "telemetry setup failed: %s\n", e.what());
    close(listen_fd);
    return 1;
  }

  // One storage-fault injector for the whole supervised run: its call
  // counters and latches persist across server incarnations.
  std::unique_ptr<util::FaultFs> server_fs = MakeServerFs(flags);
  ServerParts parts = MakeServerParts(setup, flags, telemetry.get(),
                                      server_fs.get(),
                                      /*first_incarnation=*/true);
  parts.server->AdoptListener(listen_fd, bound_port);

  // Reap children continuously while the server runs: a worker that dies
  // unexpectedly stops the run immediately (instead of leaving the server
  // to hit a timeout and the child a zombie), and the designated
  // --kill-step worker is restarted from its crash checkpoint to REJOIN.
  // slots_mu also guards `parts`: the supervisor swaps in a resumed server
  // incarnation under the same lock the reaper takes to RequestStop.
  std::mutex slots_mu;
  std::atomic<bool> reaper_stop{false};
  std::atomic<int> child_failures{0};
  std::thread reaper([&] {
    bool forwarded_stop = false;
    while (!reaper_stop.load(std::memory_order_acquire)) {
      {
        std::lock_guard<std::mutex> lock(slots_mu);
        if (g_stop.load(std::memory_order_acquire) && !forwarded_stop) {
          // Propagate the operator's SIGTERM/SIGINT so every child writes
          // its resumable checkpoint and exits 0 on its own.
          forwarded_stop = true;
          for (int w = 0; w < num_workers; ++w) {
            const ChildSlot& slot = slots[static_cast<std::size_t>(w)];
            if (slot.running) kill(slot.pid, SIGTERM);
          }
        }
        for (int w = 0; w < num_workers; ++w) {
          ChildSlot& slot = slots[static_cast<std::size_t>(w)];
          if (!slot.running) continue;
          int status = 0;
          const pid_t r = waitpid(slot.pid, &status, WNOHANG);
          if (r <= 0) continue;
          slot.running = false;
          if (WIFEXITED(status) && WEXITSTATUS(status) == 0) continue;
          if (g_stop.load(std::memory_order_acquire)) {
            // Shutdown races (a child seeing the server's interruption
            // notice before its own signal) are not failures.
            continue;
          }
          if (w == sigstop_worker) {
            // The drilled worker can exit nonzero after its lease expired
            // and the server evicted it — the drill working as intended.
            std::printf("drilled worker %d exited (status %d)\n", w, status);
            std::fflush(stdout);
            continue;
          }
          const bool simulated = WIFEXITED(status) &&
                                 WEXITSTATUS(status) == kSimulatedCrashExit;
          if (simulated && kill_step >= 0 && w == kill_worker &&
              !slot.restarted) {
            if (restart_killed) {
              std::printf("restarting killed worker %d from checkpoint\n",
                          w);
              std::fflush(stdout);
              const pid_t pid = spawn_child(w, /*rejoin=*/true);
              if (pid < 0) {
                std::perror("fork (restart)");
                child_failures.fetch_add(1);
                parts.server->RequestStop("restarting worker failed");
              } else {
                slot.pid = pid;
                slot.running = true;
                slot.restarted = true;
              }
            }
            continue;  // the crash itself was requested, not a failure
          }
          std::fprintf(stderr, "worker %d exited abnormally (status %d)\n",
                       w, status);
          child_failures.fetch_add(1);
          parts.server->RequestStop("worker " + std::to_string(w) +
                                    " exited abnormally");
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  // The SIGSTOP drill: wait for the trigger step, freeze the victim, thaw
  // it later. SIGCONT is always sent — even on early shutdown — so the
  // final reap never waits on a stopped process.
  std::atomic<bool> drill_stop{false};
  std::thread drill;
  if (sigstop_worker >= 0) {
    drill = std::thread([&] {
      while (!drill_stop.load(std::memory_order_acquire)) {
        {
          std::lock_guard<std::mutex> lock(slots_mu);
          if (parts.server->steps_completed() >= sigstop_step) break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      if (drill_stop.load(std::memory_order_acquire)) return;
      pid_t victim = -1;
      {
        std::lock_guard<std::mutex> lock(slots_mu);
        const ChildSlot& slot =
            slots[static_cast<std::size_t>(sigstop_worker)];
        if (slot.running) victim = slot.pid;
      }
      if (victim < 0) return;
      std::printf("drill: SIGSTOP worker %d (pid %d) at step %lld\n",
                  sigstop_worker, static_cast<int>(victim),
                  static_cast<long long>(sigstop_step));
      std::fflush(stdout);
      kill(victim, SIGSTOP);
      const auto resume_at = std::chrono::steady_clock::now() +
                             std::chrono::milliseconds(sigcont_after_ms);
      while (!drill_stop.load(std::memory_order_acquire) &&
             std::chrono::steady_clock::now() < resume_at) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      kill(victim, SIGCONT);
      std::printf("drill: SIGCONT worker %d\n", sigstop_worker);
      std::fflush(stdout);
    });
  }

  // Run the server, resuming a fresh incarnation from its write-ahead
  // checkpoint whenever a (simulated) crash takes it down; the workers ride
  // out the gap on their reconnect budget and REJOIN against the bumped
  // epoch. Bounded so a checkpoint that crashes every incarnation cannot
  // loop forever.
  const bool restart_server = flags.GetBool("restart-server", true);
  const std::string server_ckpt = ServerCheckpointPath(flags);
  bool server_ok = false;
  bool server_interrupted = false;
  bool corrupted_newest = false;
  for (int incarnation = 1;; ++incarnation) {
    server_ok = parts.server->Run();
    server_interrupted = parts.server->interrupted();
    if (server_ok || !parts.server->simulated_exit()) break;
    if (!restart_server || server_ckpt.empty() || incarnation >= 4) {
      std::fprintf(stderr, "server down after %lld steps: %s\n",
                   static_cast<long long>(parts.server->steps_completed()),
                   parts.server->error().c_str());
      break;
    }
    std::printf("server crashed (%s); resuming from %s\n",
                parts.server->error().c_str(), server_ckpt.c_str());
    std::fflush(stdout);
    if (flags.GetBool("corrupt-newest-on-resume", false) &&
        !corrupted_newest) {
      corrupted_newest = true;
      if (!CorruptNewestGeneration(server_ckpt)) {
        std::fprintf(stderr,
                     "corrupt-newest-on-resume: no generation file found\n");
      }
    }
    ServerParts next = MakeServerParts(setup, flags, telemetry.get(),
                                       server_fs.get(),
                                       /*first_incarnation=*/false);
    std::string resume_error;
    if (!next.server->ResumeFromCheckpoint(server_ckpt, &resume_error)) {
      std::fprintf(stderr, "cannot resume server: %s\n",
                   resume_error.c_str());
      break;
    }
    // SO_REUSEADDR on the listener lets the new incarnation rebind the
    // exact port the workers are still retrying.
    const int fd = rpc::ListenOn(host, bound_port, &error, nullptr);
    if (fd < 0) {
      std::fprintf(stderr, "cannot rebind %s:%d: %s\n", host.c_str(),
                   bound_port, error.c_str());
      break;
    }
    next.server->AdoptListener(fd, bound_port);
    {
      std::lock_guard<std::mutex> lock(slots_mu);
      parts = std::move(next);
    }
  }
  if (!server_ok) {
    if (server_interrupted) {
      std::printf("server: %s\n", parts.server->error().c_str());
    } else {
      std::fprintf(stderr, "server failed after %lld steps: %s\n",
                   static_cast<long long>(parts.server->steps_completed()),
                   parts.server->error().c_str());
    }
  } else {
    std::printf("server: %lld steps (epoch %llu), model hash %08x\n",
                static_cast<long long>(parts.server->steps_completed()),
                static_cast<unsigned long long>(parts.server->epoch()),
                ModelHash(*parts.model));
  }
  drill_stop.store(true, std::memory_order_release);
  if (drill.joinable()) drill.join();
  reaper_stop.store(true, std::memory_order_release);
  reaper.join();

  // Final reap with a deadline: a clean server leaves children exiting on
  // their own; after a failure, stragglers are killed rather than letting
  // the parent hang and the children zombify.
  int failures = child_failures.load();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  for (int w = 0; w < num_workers; ++w) {
    ChildSlot& slot = slots[static_cast<std::size_t>(w)];
    while (slot.running) {
      int status = 0;
      const pid_t r = waitpid(slot.pid, &status, WNOHANG);
      if (r > 0) {
        slot.running = false;
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
          const bool simulated = WIFEXITED(status) &&
                                 WEXITSTATUS(status) == kSimulatedCrashExit;
          const bool expected_crash = simulated && kill_step >= 0 &&
                                      w == kill_worker && !restart_killed;
          if (!expected_crash && w != sigstop_worker &&
              !g_stop.load(std::memory_order_acquire)) {
            std::fprintf(stderr,
                         "worker %d exited abnormally (status %d)\n", w,
                         status);
            ++failures;
          }
        }
        break;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        std::fprintf(stderr, "worker %d did not exit; killing pid %d\n", w,
                     static_cast<int>(slot.pid));
        kill(slot.pid, SIGKILL);
        waitpid(slot.pid, &status, 0);
        slot.running = false;
        ++failures;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  if (server_interrupted && failures == 0) {
    // Graceful SIGTERM/SIGINT shutdown: checkpoint on disk, children
    // stopped cleanly — a successful interruption, not a failure.
    if (telemetry != nullptr) telemetry->Flush();
    MaybeLinger(flags);
    return 0;
  }
  if (!server_ok || failures != 0) {
    if (telemetry != nullptr) telemetry->Flush();
    MaybeLinger(flags);
    return 1;
  }

  const std::string checkpoint_path = flags.GetString("checkpoint-out", "");
  if (!checkpoint_path.empty()) {
    nn::SaveCheckpoint(*parts.model, checkpoint_path, setup.block_codec);
    std::printf("checkpoint written to %s\n", checkpoint_path.c_str());
  }

  int rc = 0;
  if (flags.GetBool("compare", false)) {
    std::printf("re-running in-process for bitwise comparison...\n");
    std::fflush(stdout);
    train::TrainerConfig tc = setup.config.trainer;
    const train::MlpSpec spec = setup.config.model;
    const std::uint64_t model_seed = setup.config.model_seed;
    train::DistributedTrainer trainer(
        tc, [spec, model_seed] { return train::BuildMlp(spec, model_seed); },
        setup.data.train, setup.data.test);
    trainer.Run();
    const bool identical =
        ModelsBitwiseEqual(*parts.model, trainer.global_model());
    std::printf("in-process model hash %08x — %s\n",
                ModelHash(trainer.global_model()),
                identical ? "BITWISE IDENTICAL" : "MISMATCH");
    if (!identical) rc = 1;
  }

  if (telemetry != nullptr) telemetry->Flush();
  MaybeLinger(flags);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  obs::ApplyLogLevelFlag(flags);
  InstallStopHandlers();  // before fork: children inherit the disposition
  const std::string role = flags.GetString("role", "");

  // Every crash checkpoint lands in --state-dir; refuse a bad one now, in
  // every role, rather than at the first kill or write-ahead checkpoint.
  const std::string state_dir = flags.GetString("state-dir", ".");
  std::error_code ec;
  if (!std::filesystem::is_directory(state_dir, ec)) {
    std::fprintf(stderr, "--state-dir %s is not an existing directory\n",
                 state_dir.c_str());
    return 1;
  }

  try {
    if (role.empty()) return RunSpawn(flags);

    if (role == "worker") {
      const int worker_id = static_cast<int>(flags.GetInt("worker-id", 0));
      const int num_workers = static_cast<int>(flags.GetInt("workers", 3));
      const int port = static_cast<int>(flags.GetInt("port", 0));
      if (port <= 0) {
        std::fprintf(stderr, "--role worker needs --port\n");
        return 1;
      }
      Setup setup = MakeSetup(flags, num_workers);
      std::unique_ptr<obs::Telemetry> telemetry;
      obs::TelemetryOptions opts = obs::TelemetryOptionsFromFlags(flags);
      if (!opts.trace_path.empty() || !opts.metrics_path.empty() ||
          opts.monitoring_enabled()) {
        telemetry = std::make_unique<obs::Telemetry>(opts);
      }
      WorkerChaos chaos;
      chaos.max_reconnects =
          static_cast<int>(flags.GetInt("max-reconnects", 5));
      const int inject_worker =
          static_cast<int>(flags.GetInt("inject-worker", -1));
      if (inject_worker < 0 || inject_worker == worker_id) {
        chaos.inject_spec = flags.GetString("inject", "");
      }
      chaos.inject_seed = static_cast<std::uint64_t>(
                              flags.GetInt("inject-seed", 1)) +
                          static_cast<std::uint64_t>(worker_id);
      chaos.rejoin = flags.GetBool("rejoin", false);
      chaos.checkpoint_path = flags.GetString("state-dir", ".") +
                              "/dt_worker" + std::to_string(worker_id) +
                              ".ckpt";
      if (!chaos.rejoin) chaos.exit_after_step = flags.GetInt("kill-step", -1);
      chaos.lease_ms = static_cast<int>(flags.GetInt("lease-ms", 0));
      chaos.heartbeat_ms =
          static_cast<int>(flags.GetInt("heartbeat-ms", 0));
      const int rc = RunWorker(setup, worker_id,
                               flags.GetString("host", "127.0.0.1"), port,
                               telemetry.get(), chaos);
      if (telemetry != nullptr) telemetry->Flush();
      return rc;
    }

    if (role == "server") {
      const int num_workers = static_cast<int>(flags.GetInt("workers", 3));
      Setup setup = MakeSetup(flags, num_workers);
      std::unique_ptr<obs::Telemetry> telemetry;
      obs::TelemetryOptions opts = obs::TelemetryOptionsFromFlags(flags);
      if (!opts.trace_path.empty() || !opts.metrics_path.empty() ||
          opts.monitoring_enabled()) {
        telemetry = std::make_unique<obs::Telemetry>(opts);
      }
      std::unique_ptr<util::FaultFs> server_fs = MakeServerFs(flags);
      const bool resume = flags.GetBool("resume", false);
      ServerParts parts = MakeServerParts(setup, flags, telemetry.get(),
                                          server_fs.get(),
                                          /*first_incarnation=*/!resume);
      std::string error;
      int rc = 0;
      bool completed = false;
      if (resume &&
          !parts.server->ResumeFromCheckpoint(ServerCheckpointPath(flags),
                                              &error)) {
        std::fprintf(stderr, "cannot resume server: %s\n", error.c_str());
        rc = 1;
      } else if (!parts.server->Listen(&error)) {
        std::fprintf(stderr, "listen failed: %s\n", error.c_str());
        rc = 1;
      } else {
        std::printf("server listening on %s:%d (%d workers, %lld steps, "
                    "codec %s, epoch %llu)\n",
                    flags.GetString("host", "127.0.0.1").c_str(),
                    parts.server->port(), num_workers,
                    static_cast<long long>(
                        setup.config.trainer.total_steps),
                    parts.codec->name().c_str(),
                    static_cast<unsigned long long>(parts.server->epoch()));
        std::fflush(stdout);
        if (!parts.server->Run()) {
          if (parts.server->interrupted()) {
            // SIGTERM/SIGINT: checkpoint written, clean exit. Restart with
            // --resume to continue the run.
            std::printf("server: %s\n", parts.server->error().c_str());
          } else {
            std::fprintf(stderr, "server failed after %lld steps: %s\n",
                         static_cast<long long>(
                             parts.server->steps_completed()),
                         parts.server->error().c_str());
            rc = 1;
          }
        } else {
          completed = true;
          std::printf("server: %lld steps (epoch %llu), model hash %08x\n",
                      static_cast<long long>(
                          parts.server->steps_completed()),
                      static_cast<unsigned long long>(
                          parts.server->epoch()),
                      ModelHash(*parts.model));
        }
      }
      const std::string checkpoint_path =
          flags.GetString("checkpoint-out", "");
      if (completed && !checkpoint_path.empty()) {
        nn::SaveCheckpoint(*parts.model, checkpoint_path, setup.block_codec);
        std::printf("checkpoint written to %s\n", checkpoint_path.c_str());
      }
      if (telemetry != nullptr) telemetry->Flush();
      MaybeLinger(flags);
      return rc;
    }

    std::fprintf(stderr, "unknown --role '%s' (want server|worker)\n",
                 role.c_str());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fatal: %s\n", e.what());
    return 1;
  }
}
