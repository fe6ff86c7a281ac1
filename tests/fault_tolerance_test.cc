// Fault-tolerance tests for the TCP distributed runtime: a worker killed
// at an arbitrary step and restarted from its crash checkpoint (model +
// error-accumulation buffers + sampler cursor + step counter) must REJOIN
// and leave the final model bitwise identical to a fault-free run, for
// both the float32 and 3LC codecs; injected connection faults must be
// survived via reconnect + pull replay; grace-window expiry must evict the
// dead worker and finish degraded on the survivors.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "compress/factory.h"
#include "data/synthetic.h"
#include "nn/checkpoint.h"
#include "nn/checkpoint_manager.h"
#include "obs/telemetry.h"
#include "ps/plan.h"
#include "ps/server.h"
#include "ps/worker.h"
#include "rpc/fault.h"
#include "rpc/runtime.h"
#include "rpc/transport.h"
#include "train/experiment.h"
#include "train/model_zoo.h"
#include "train/trainer.h"
#include "util/byte_buffer.h"
#include "util/rng.h"

namespace threelc::rpc {
namespace {

struct TestSetup {
  train::ExperimentConfig config;
  data::SyntheticData data;
  // Second-stage lossless block codec; also wraps crash checkpoints so
  // resume paths exercise the compressed container.
  std::string block_codec = "store";
};

TestSetup MakeTestSetup(int num_workers, std::int64_t steps,
                        const compress::CodecConfig& codec) {
  TestSetup setup;
  setup.config = train::SmallExperiment();
  train::TrainerConfig& tc = setup.config.trainer;
  tc.num_workers = num_workers;
  tc.total_steps = steps;
  tc.batch_size = 16;
  tc.eval_every = 0;
  tc.codec = codec;
  setup.data = data::MakeTeacherDataset(setup.config.data);
  return setup;
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

struct WorkerChaos {
  std::int64_t exit_after_step = -1;
  std::string checkpoint_path;
  bool rejoin = false;
  int max_reconnects = 0;
  FaultInjector* fault = nullptr;
  int lease_ms = 0;
  int heartbeat_ms = 0;
  obs::Telemetry* telemetry = nullptr;
  const std::atomic<bool>* stop_flag = nullptr;
};

struct WorkerResult {
  bool ok = false;
  bool simulated_exit = false;
  bool interrupted = false;
  std::size_t reconnects = 0;
  std::string error;
};

// One worker lifetime on the calling thread, mirroring
// examples/distributed_training.cpp: with chaos.rejoin it restores the
// full training state from the crash checkpoint before reconnecting.
WorkerResult RunOneWorker(const TestSetup& setup, int worker_id, int port,
                          const WorkerChaos& chaos) {
  WorkerResult result;
  const train::TrainerConfig& tc = setup.config.trainer;
  nn::Model model =
      train::BuildMlp(setup.config.model, setup.config.model_seed);

  nn::TrainState resume;
  if (chaos.rejoin) {
    nn::LoadCheckpointState(model, &resume, chaos.checkpoint_path);
  }

  const ps::TensorPlan plan =
      ps::TensorPlan::FromParams(model.Params(), tc.min_compress_elems);
  auto codec = std::shared_ptr<const compress::Compressor>(
      compress::MakeCompressor(tc.codec));
  ps::Worker ps_worker(worker_id, model, plan, codec);

  util::Rng seeder(tc.seed);
  util::Rng rng = seeder.Fork();
  for (int i = 0; i < worker_id; ++i) rng = seeder.Fork();
  data::Sampler sampler(setup.data.train, rng, tc.augment_noise);

  if (chaos.rejoin) {
    util::ByteReader codec_reader(util::ByteSpan(resume.codec_state.data(),
                                                 resume.codec_state.size()));
    ps_worker.LoadCodecState(codec_reader);
    util::ByteReader sampler_reader(util::ByteSpan(
        resume.sampler_state.data(), resume.sampler_state.size()));
    sampler.LoadState(sampler_reader);
  }

  RpcWorkerConfig wc;
  wc.port = port;
  wc.worker_id = worker_id;
  wc.batch_size = tc.batch_size;
  wc.handshake_timeout_ms = 10000;
  wc.pull_timeout_ms = 20000;
  wc.io_timeout_ms = 10000;
  wc.retry.max_attempts = 5;
  wc.retry.initial_backoff_ms = 10;
  wc.start_step =
      chaos.rejoin ? static_cast<std::int64_t>(resume.next_step) : 0;
  wc.rejoin = chaos.rejoin;
  wc.max_reconnects = chaos.max_reconnects;
  wc.exit_after_step = chaos.exit_after_step;
  wc.checkpoint_path = chaos.checkpoint_path;
  wc.fault = chaos.fault;
  wc.block_codec = setup.block_codec;
  wc.lease_ms = chaos.lease_ms;
  wc.heartbeat_ms = chaos.heartbeat_ms;
  wc.telemetry = chaos.telemetry;
  wc.stop_flag = chaos.stop_flag;
  RpcWorker worker(wc, ps_worker, plan, codec->name(), std::move(sampler));
  result.ok = worker.Run();
  result.simulated_exit = worker.simulated_exit();
  result.interrupted = worker.interrupted();
  result.reconnects = worker.reconnects();
  result.error = worker.error();
  return result;
}

struct ServerHarness {
  std::unique_ptr<nn::Model> model;
  std::unique_ptr<ps::TensorPlan> plan;
  std::shared_ptr<const compress::Compressor> codec;
  std::unique_ptr<ps::ParameterServer> ps;
  std::unique_ptr<RpcServer> server;
};

// Server-side chaos/recovery knobs for MakeServer (mirrors WorkerChaos).
struct ServerChaos {
  int port = 0;  // a resumed server must rebind the port workers retry
  std::string checkpoint_path;
  int checkpoint_every = 1;
  std::int64_t exit_after_step = -1;
  int lease_ms = 0;
  int heartbeat_ms = 0;
  const std::atomic<bool>* stop_flag = nullptr;
};

ServerHarness MakeServer(const TestSetup& setup, int grace_ms,
                         int replay_steps, FaultInjector* fault = nullptr,
                         const ServerChaos& chaos = ServerChaos{}) {
  const train::TrainerConfig& tc = setup.config.trainer;
  ServerHarness h;
  h.model = std::make_unique<nn::Model>(
      train::BuildMlp(setup.config.model, setup.config.model_seed));
  h.plan = std::make_unique<ps::TensorPlan>(
      ps::TensorPlan::FromParams(h.model->Params(), tc.min_compress_elems));
  h.codec = std::shared_ptr<const compress::Compressor>(
      compress::MakeCompressor(tc.codec));
  h.ps = std::make_unique<ps::ParameterServer>(*h.model, *h.plan, h.codec,
                                               tc.optimizer);
  RpcServerConfig sc;
  sc.port = chaos.port;
  sc.num_workers = tc.num_workers;
  sc.total_steps = tc.total_steps;
  sc.lr_max = tc.lr_max;
  sc.lr_min = tc.lr_min;
  sc.handshake_timeout_ms = 10000;
  sc.step_timeout_ms = 20000;
  sc.shutdown_timeout_ms = 10000;
  sc.grace_ms = grace_ms;
  sc.replay_steps = replay_steps;
  sc.checkpoint_path = chaos.checkpoint_path;
  sc.checkpoint_every = chaos.checkpoint_every;
  sc.exit_after_step = chaos.exit_after_step;
  sc.stop_flag = chaos.stop_flag;
  sc.fault = fault;
  sc.block_codec = setup.block_codec;
  sc.lease_ms = chaos.lease_ms;
  sc.heartbeat_ms = chaos.heartbeat_ms;
  h.server = std::make_unique<RpcServer>(sc, *h.ps, h.codec->name());
  return h;
}

std::unique_ptr<nn::Model> RunInProcessReference(const TestSetup& setup) {
  const train::MlpSpec spec = setup.config.model;
  const std::uint64_t model_seed = setup.config.model_seed;
  train::DistributedTrainer trainer(
      setup.config.trainer,
      [spec, model_seed] { return train::BuildMlp(spec, model_seed); },
      setup.data.train, setup.data.test);
  trainer.Run();
  auto model = std::make_unique<nn::Model>(train::BuildMlp(spec, model_seed));
  // Copy the trained parameters/buffers out of the trainer.
  auto src = trainer.global_model().Params();
  auto dst = model->Params();
  for (std::size_t i = 0; i < src.size(); ++i) {
    std::memcpy(dst[i].value->data(), src[i].value->data(),
                src[i].value->byte_size());
  }
  auto sb = trainer.global_model().Buffers();
  auto db = model->Buffers();
  for (std::size_t i = 0; i < sb.size(); ++i) {
    std::memcpy(db[i]->data(), sb[i]->data(), sb[i]->byte_size());
  }
  return model;
}

// Kill worker `kill_worker` right after it completes step `kill_step`,
// restart it from its crash checkpoint, and require the final global model
// to be bitwise identical to a fault-free in-process run.
void ExpectKillRejoinParity(const compress::CodecConfig& codec,
                            std::int64_t kill_step,
                            const std::string& block_codec = "store") {
  SCOPED_TRACE("kill_step=" + std::to_string(kill_step));
  constexpr int kWorkers = 2;
  constexpr int kKillWorker = 1;
  TestSetup setup = MakeTestSetup(kWorkers, /*steps=*/6, codec);
  setup.block_codec = block_codec;
  const std::string ckpt =
      ::testing::TempDir() + "/ft_rejoin_" + std::to_string(kill_step) +
      ".ckpt";

  ServerHarness h = MakeServer(setup, /*grace_ms=*/20000,
                               /*replay_steps=*/8);
  std::string error;
  ASSERT_TRUE(h.server->Listen(&error)) << error;

  bool server_ok = false;
  std::thread server_thread([&] { server_ok = h.server->Run(); });

  WorkerResult results[kWorkers];
  std::thread survivor([&] {
    results[0] = RunOneWorker(setup, 0, h.server->port(), WorkerChaos{});
  });
  std::thread victim([&] {
    WorkerChaos first;
    first.exit_after_step = kill_step;
    first.checkpoint_path = ckpt;
    WorkerResult life1 =
        RunOneWorker(setup, kKillWorker, h.server->port(), first);
    ASSERT_TRUE(life1.simulated_exit) << life1.error;
    WorkerChaos second;
    second.rejoin = true;
    second.checkpoint_path = ckpt;
    results[kKillWorker] =
        RunOneWorker(setup, kKillWorker, h.server->port(), second);
  });
  survivor.join();
  victim.join();
  server_thread.join();

  ASSERT_TRUE(server_ok) << h.server->error();
  for (int w = 0; w < kWorkers; ++w) {
    EXPECT_TRUE(results[w].ok) << "worker " << w << ": " << results[w].error;
  }
  EXPECT_EQ(h.server->rejoins(), 1u);
  EXPECT_EQ(h.server->evictions(), 0u);
  EXPECT_EQ(h.server->steps_completed(), setup.config.trainer.total_steps);

  std::unique_ptr<nn::Model> reference = RunInProcessReference(setup);
  EXPECT_TRUE(ModelsBitwiseEqual(*h.model, *reference))
      << "model diverged after kill@" << kill_step << " + rejoin";
  std::remove(ckpt.c_str());
}

TEST(FaultTolerance, KillRejoinBitwiseParityFloat32) {
  for (const std::int64_t kill_step : {0, 2, 4}) {
    ExpectKillRejoinParity(compress::CodecConfig::Float32(), kill_step);
  }
}

TEST(FaultTolerance, KillRejoinBitwiseParity3lc) {
  for (const std::int64_t kill_step : {0, 2, 4}) {
    ExpectKillRejoinParity(compress::CodecConfig::ThreeLC(1.0f), kill_step);
  }
}

// With lz+rans negotiated, the crash checkpoint is a 3LCZ compressed
// container and every replayed frame carries a block envelope; the
// kill+rejoin trajectory must still land bitwise on the reference model.
TEST(FaultTolerance, KillRejoinBitwiseParity3lcWithBlockCodec) {
  ExpectKillRejoinParity(compress::CodecConfig::ThreeLC(1.0f),
                         /*kill_step=*/2, "lz+rans");
}

// A connection the worker loses mid-run (injected close while queueing a
// PUSH) is survived in place: reconnect, REJOIN, recompute nothing — the
// stored encoded pushes are resent so the EA trajectory is unchanged.
TEST(FaultTolerance, InjectedCloseSurvivedByLiveReconnect) {
  TestSetup setup =
      MakeTestSetup(2, /*steps=*/6, compress::CodecConfig::ThreeLC(1.0f));
  ServerHarness h = MakeServer(setup, /*grace_ms=*/20000, /*replay_steps=*/8);
  std::string error;
  ASSERT_TRUE(h.server->Listen(&error)) << error;

  FaultInjector injector(/*seed=*/7);
  std::string spec_error;
  ASSERT_TRUE(injector.AddRulesFromSpec("close:push@2", &spec_error))
      << spec_error;

  bool server_ok = false;
  std::thread server_thread([&] { server_ok = h.server->Run(); });
  WorkerResult results[2];
  std::thread w0([&] {
    WorkerChaos chaos;
    chaos.fault = &injector;
    chaos.max_reconnects = 3;
    results[0] = RunOneWorker(setup, 0, h.server->port(), chaos);
  });
  std::thread w1([&] {
    results[1] = RunOneWorker(setup, 1, h.server->port(), WorkerChaos{});
  });
  w0.join();
  w1.join();
  server_thread.join();

  ASSERT_TRUE(server_ok) << h.server->error();
  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_TRUE(results[1].ok) << results[1].error;
  EXPECT_GE(results[0].reconnects, 1u);
  EXPECT_EQ(injector.faults_injected(), 1u);
  EXPECT_GE(h.server->rejoins(), 1u);

  std::unique_ptr<nn::Model> reference = RunInProcessReference(setup);
  EXPECT_TRUE(ModelsBitwiseEqual(*h.model, *reference));
}

// Server-side injected close on a PULL send: the step has already been
// aggregated, so the rejoining worker is caught up from the bounded
// replay buffer (verbatim retained frames), and parity still holds.
TEST(FaultTolerance, ReplayBufferResyncsAfterServerSideDrop) {
  TestSetup setup =
      MakeTestSetup(2, /*steps=*/6, compress::CodecConfig::ThreeLC(1.0f));
  FaultInjector injector(/*seed=*/11);
  std::string spec_error;
  ASSERT_TRUE(injector.AddRulesFromSpec("close:pull@2", &spec_error))
      << spec_error;
  ServerHarness h =
      MakeServer(setup, /*grace_ms=*/20000, /*replay_steps=*/8, &injector);
  std::string error;
  ASSERT_TRUE(h.server->Listen(&error)) << error;

  bool server_ok = false;
  std::thread server_thread([&] { server_ok = h.server->Run(); });
  WorkerResult results[2];
  std::vector<std::thread> workers;
  for (int w = 0; w < 2; ++w) {
    workers.emplace_back([&, w] {
      WorkerChaos chaos;
      chaos.max_reconnects = 3;
      results[w] = RunOneWorker(setup, w, h.server->port(), chaos);
    });
  }
  for (auto& t : workers) t.join();
  server_thread.join();

  ASSERT_TRUE(server_ok) << h.server->error();
  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_TRUE(results[1].ok) << results[1].error;
  EXPECT_GE(h.server->rejoins(), 1u);
  EXPECT_GE(h.server->replayed_frames(), 1u);

  std::unique_ptr<nn::Model> reference = RunInProcessReference(setup);
  EXPECT_TRUE(ModelsBitwiseEqual(*h.model, *reference));
}

// A worker that dies and never comes back is evicted once the grace
// window expires; the run completes on the survivors (aggregation
// rescaled) instead of failing.
TEST(FaultTolerance, GraceExpiryEvictsAndFinishesDegraded) {
  TestSetup setup =
      MakeTestSetup(2, /*steps=*/6, compress::CodecConfig::ThreeLC(1.0f));
  ServerHarness h = MakeServer(setup, /*grace_ms=*/300, /*replay_steps=*/8);
  std::string error;
  ASSERT_TRUE(h.server->Listen(&error)) << error;

  bool server_ok = false;
  std::thread server_thread([&] { server_ok = h.server->Run(); });
  WorkerResult results[2];
  std::thread w0([&] {
    results[0] = RunOneWorker(setup, 0, h.server->port(), WorkerChaos{});
  });
  std::thread w1([&] {
    WorkerChaos chaos;
    chaos.exit_after_step = 2;  // no checkpoint, no restart
    results[1] = RunOneWorker(setup, 1, h.server->port(), chaos);
  });
  w0.join();
  w1.join();
  server_thread.join();

  ASSERT_TRUE(server_ok) << h.server->error();
  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_TRUE(results[1].simulated_exit);
  EXPECT_EQ(h.server->evictions(), 1u);
  EXPECT_EQ(h.server->rejoins(), 0u);
  EXPECT_EQ(h.server->steps_completed(), setup.config.trainer.total_steps);
}

// With grace_ms = 0 (the default) a mid-run disconnect is still fatal —
// the strict PR-3 failure model is preserved exactly.
TEST(FaultTolerance, StrictModeStillFailsFastOnDisconnect) {
  TestSetup setup =
      MakeTestSetup(2, /*steps=*/6, compress::CodecConfig::Float32());
  ServerHarness h = MakeServer(setup, /*grace_ms=*/0, /*replay_steps=*/8);
  std::string error;
  ASSERT_TRUE(h.server->Listen(&error)) << error;

  bool server_ok = true;
  std::thread server_thread([&] { server_ok = h.server->Run(); });
  WorkerResult results[2];
  std::thread w0([&] {
    results[0] = RunOneWorker(setup, 0, h.server->port(), WorkerChaos{});
  });
  std::thread w1([&] {
    WorkerChaos chaos;
    chaos.exit_after_step = 1;
    results[1] = RunOneWorker(setup, 1, h.server->port(), chaos);
  });
  w0.join();
  w1.join();
  server_thread.join();

  EXPECT_FALSE(server_ok);
  EXPECT_NE(h.server->error().find("disconnected"), std::string::npos)
      << h.server->error();
  EXPECT_EQ(h.server->evictions(), 0u);
}

// A REJOIN asking to resume from a step older than the bounded replay
// buffer is rejected with an ERROR frame (the worker cannot be caught up
// exactly), without failing the run for everyone else.
TEST(FaultTolerance, StaleRejoinRejectedWithoutKillingRun) {
  TestSetup setup =
      MakeTestSetup(2, /*steps=*/8, compress::CodecConfig::ThreeLC(1.0f));
  const std::string ckpt = ::testing::TempDir() + "/ft_stale.ckpt";
  ServerHarness h = MakeServer(setup, /*grace_ms=*/20000, /*replay_steps=*/1);
  std::string error;
  ASSERT_TRUE(h.server->Listen(&error)) << error;

  bool server_ok = false;
  std::thread server_thread([&] { server_ok = h.server->Run(); });

  WorkerResult results[2];
  std::thread w0([&] {
    results[0] = RunOneWorker(setup, 0, h.server->port(), WorkerChaos{});
  });
  std::thread w1([&] {
    // Life 1: crash after step 5 so the replay buffer (depth 1) has
    // advanced far beyond step 0.
    WorkerChaos first;
    first.exit_after_step = 5;
    first.checkpoint_path = ckpt;
    WorkerResult life1 = RunOneWorker(setup, 1, h.server->port(), first);
    ASSERT_TRUE(life1.simulated_exit) << life1.error;

    // A rogue REJOIN claiming next_step=0: too old to replay -> ERROR.
    {
      nn::Model model =
          train::BuildMlp(setup.config.model, setup.config.model_seed);
      const ps::TensorPlan plan = ps::TensorPlan::FromParams(
          model.Params(), setup.config.trainer.min_compress_elems);
      auto codec = std::shared_ptr<const compress::Compressor>(
          compress::MakeCompressor(setup.config.trainer.codec));
      RetryOptions retry;
      std::string connect_error;
      const int fd = ConnectWithRetry("127.0.0.1", h.server->port(), retry,
                                      nullptr, &connect_error);
      ASSERT_GE(fd, 0) << connect_error;
      Connection stale(fd);
      HandshakePayload payload;
      payload.worker_id = 1;
      payload.plan_hash = PlanHash(plan, codec->name());
      payload.codec = codec->name();
      payload.epoch = 1;
      payload.next_step = 0;  // far behind the replay window
      util::ByteBuffer req;
      EncodeHandshake(payload, /*rejoin=*/true, req);
      ASSERT_TRUE(stale.SendFrame(MsgType::kRejoin, 0, 0, req.span()));
      ASSERT_EQ(stale.FlushOutput(2000), Connection::IoResult::kOk);
      Frame reply;
      const Connection::IoResult got = stale.WaitFrame(&reply, 5000);
      if (got == Connection::IoResult::kOk) {
        EXPECT_EQ(reply.header.type, MsgType::kError);
      } else {
        EXPECT_EQ(got, Connection::IoResult::kClosed);
      }
      stale.Close();
    }

    // Life 2: the legitimate rejoin from the checkpoint still works and
    // the run completes.
    WorkerChaos second;
    second.rejoin = true;
    second.checkpoint_path = ckpt;
    results[1] = RunOneWorker(setup, 1, h.server->port(), second);
  });
  w0.join();
  w1.join();
  server_thread.join();

  ASSERT_TRUE(server_ok) << h.server->error();
  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_TRUE(results[1].ok) << results[1].error;
  EXPECT_EQ(h.server->rejoins(), 1u);  // the stale attempt doesn't count
  EXPECT_EQ(h.server->steps_completed(), setup.config.trainer.total_steps);
  std::remove(ckpt.c_str());
}

// ---------- join rules ----------

// A raw client connection for handcrafted protocol frames.
std::unique_ptr<Connection> Dial(int port) {
  RetryOptions retry;
  std::string error;
  const int fd = ConnectWithRetry("127.0.0.1", port, retry, nullptr, &error);
  EXPECT_GE(fd, 0) << error;
  return fd >= 0 ? std::make_unique<Connection>(fd) : nullptr;
}

bool SendHandshake(Connection& conn, const HandshakePayload& payload,
                   bool rejoin) {
  util::ByteBuffer bytes;
  EncodeHandshake(payload, rejoin, bytes);
  return conn.SendFrame(rejoin ? MsgType::kRejoin : MsgType::kHello, 0, 0,
                        bytes.span()) &&
         conn.FlushOutput(2000) == Connection::IoResult::kOk;
}

// The server's answer on `conn`: the first ERROR frame's text, or "" once
// the connection closes or stays silent for 5 s.
std::string AwaitErrorFrame(Connection& conn) {
  Frame frame;
  while (conn.WaitFrame(&frame, 5000) == Connection::IoResult::kOk) {
    if (frame.header.type == MsgType::kError) {
      return std::string(reinterpret_cast<const char*>(frame.payload.data()),
                         frame.payload.size());
    }
  }
  return "";
}

// Every HELLO/REJOIN rule, pinned with handcrafted frames: a malformed or
// impossible claim fails the whole run, while a rejoiner that is merely
// too late (evicted, or behind the replay window) is turned away with an
// ERROR frame and the run goes on. "Resumed" cases probe a server restored
// from a checkpoint at step 5 that marks workers 0-2 greeted, worker 2
// evicted, and keeps only step 4 in its replay ring.
TEST(FaultTolerance, JoinRulesFailRunOrRejectPeer) {
  TestSetup setup =
      MakeTestSetup(3, /*steps=*/10, compress::CodecConfig::Float32());
  const std::string ckpt = ::testing::TempDir() + "/ft_join_rules.sckpt";
  const std::string generation = ckpt + ".g0";
  std::remove(generation.c_str());
  {
    ServerHarness source = MakeServer(setup, /*grace_ms=*/20000,
                                      /*replay_steps=*/1);
    nn::ServerState state;
    state.epoch = 1;
    state.next_step = 5;
    util::ByteBuffer ps_blob;
    source.ps->SaveState(ps_blob);
    state.ps_state.assign(ps_blob.data(), ps_blob.data() + ps_blob.size());
    state.greeted = {1, 1, 1};
    state.evicted = {0, 0, 1};
    state.replay.push_back({4, {{0x00}}});
    nn::CheckpointManager::Options options;
    options.path = ckpt;
    nn::CheckpointManager(options).Save(*source.model, state);
  }

  enum class Prelude { kNone, kHelloSameConn, kHelloOtherConn };
  struct JoinCase {
    const char* name;
    bool resumed;
    Prelude prelude;  // a valid HELLO for worker 0 sent before the probe
    bool rejoin;
    std::function<void(HandshakePayload&)> edit;
    bool fails_run;
    const char* want;  // in the run's error, or else in the ERROR reply
  };
  auto id = [](std::uint32_t w) {
    return [w](HandshakePayload& p) { p.worker_id = w; };
  };
  auto epoch = [](std::uint64_t e) {
    return [e](HandshakePayload& p) { p.epoch = e; };
  };
  auto next_step = [](std::uint64_t s) {
    return [s](HandshakePayload& p) { p.next_step = s; };
  };
  auto bad_plan = [](HandshakePayload& p) { p.plan_hash ^= 1; };
  auto bad_codec = [](HandshakePayload& p) { p.codec = "not-a-codec"; };
  auto bad_block = [](HandshakePayload& p) { p.block_codec = 0x7f; };
  const std::vector<JoinCase> cases = {
      {"HELLO out-of-range id", false, Prelude::kNone, false, id(3), true,
       "out-of-range"},
      {"REJOIN out-of-range id", false, Prelude::kNone, true, id(3), true,
       "out-of-range"},
      {"HELLO with nonzero epoch", false, Prelude::kNone, false, epoch(1),
       true, "epoch"},
      {"duplicate HELLO on one connection", false, Prelude::kHelloSameConn,
       false, nullptr, true, "duplicate HELLO"},
      {"REJOIN on an identified connection", false, Prelude::kHelloSameConn,
       true, nullptr, true, "already-identified"},
      {"second connection claiming a live id", false,
       Prelude::kHelloOtherConn, false, nullptr, true, "second connection"},
      {"HELLO from an already-greeted id", true, Prelude::kNone, false,
       nullptr, true, "already-greeted"},
      {"HELLO plan mismatch", false, Prelude::kNone, false, bad_plan, true,
       "plan"},
      {"HELLO codec mismatch", false, Prelude::kNone, false, bad_codec, true,
       "plan"},
      {"REJOIN plan mismatch", false, Prelude::kNone, true, bad_plan, true,
       "plan"},
      {"HELLO block-codec mismatch", false, Prelude::kNone, false, bad_block,
       true, "block-codec"},
      {"REJOIN block-codec mismatch", false, Prelude::kNone, true, bad_block,
       true, "block-codec"},
      {"REJOIN epoch ahead of the server", false, Prelude::kNone, true,
       epoch(9), true, "ahead"},
      {"REJOIN claiming a future step", false, Prelude::kNone, true,
       next_step(3), true, "future step"},
      {"REJOIN past the replay window", true, Prelude::kNone, true,
       next_step(0), false, "replay window"},
      {"REJOIN from an evicted id", true, Prelude::kNone, true, id(2), false,
       "evicted"},
  };

  nn::Model model =
      train::BuildMlp(setup.config.model, setup.config.model_seed);
  const ps::TensorPlan plan = ps::TensorPlan::FromParams(
      model.Params(), setup.config.trainer.min_compress_elems);
  auto codec = std::shared_ptr<const compress::Compressor>(
      compress::MakeCompressor(setup.config.trainer.codec));
  for (const JoinCase& c : cases) {
    SCOPED_TRACE(c.name);
    ServerHarness h = MakeServer(setup, /*grace_ms=*/20000,
                                 /*replay_steps=*/1);
    std::string error;
    if (c.resumed) {
      ASSERT_TRUE(h.server->ResumeFromCheckpoint(ckpt, &error)) << error;
    }
    ASSERT_TRUE(h.server->Listen(&error)) << error;
    bool server_ok = true;
    std::thread server_thread([&] { server_ok = h.server->Run(); });

    HandshakePayload payload;
    payload.worker_id = 0;
    payload.plan_hash = PlanHash(plan, codec->name());
    payload.codec = codec->name();
    payload.next_step = c.resumed ? 5 : 0;
    std::unique_ptr<Connection> first;
    if (c.prelude != Prelude::kNone) {
      first = Dial(h.server->port());
      Frame ack;
      EXPECT_TRUE(first != nullptr &&
                  SendHandshake(*first, payload, /*rejoin=*/false) &&
                  first->WaitFrame(&ack, 5000) == Connection::IoResult::kOk &&
                  ack.header.type == MsgType::kHelloAck);
    }
    std::unique_ptr<Connection> second;
    Connection* probe = first.get();
    if (c.prelude != Prelude::kHelloSameConn) {
      second = Dial(h.server->port());
      probe = second.get();
    }
    if (c.edit) c.edit(payload);
    std::string reply;
    if (probe != nullptr && SendHandshake(*probe, payload, c.rejoin)) {
      reply = AwaitErrorFrame(*probe);
    }
    h.server->RequestStop("probe answered");
    server_thread.join();

    EXPECT_FALSE(server_ok);
    if (c.fails_run) {
      EXPECT_NE(h.server->error().find(c.want), std::string::npos)
          << h.server->error();
    } else {
      EXPECT_EQ(h.server->error().rfind("stop requested", 0), 0u)
          << "the run died: " << h.server->error();
      EXPECT_NE(reply.find(c.want), std::string::npos) << reply;
    }
  }
  std::remove(generation.c_str());
}

// A worker blocked on a slow peer waits in heartbeat-cadence slices; a
// slice ending is the lease clock ticking, not a timeout. rpc/timeouts
// counts only waits whose own deadline ended, so the punctual worker of a
// run with one slow pusher records none.
TEST(FaultTolerance, LeaseSlicedWaitsAreNotCountedAsTimeouts) {
  TestSetup setup =
      MakeTestSetup(2, /*steps=*/3, compress::CodecConfig::Float32());
  ServerChaos server_chaos;
  server_chaos.lease_ms = 10000;
  server_chaos.heartbeat_ms = 50;
  ServerHarness h = MakeServer(setup, /*grace_ms=*/0, /*replay_steps=*/8,
                               /*fault=*/nullptr, server_chaos);
  std::string error;
  ASSERT_TRUE(h.server->Listen(&error)) << error;
  bool server_ok = false;
  std::thread server_thread([&] { server_ok = h.server->Run(); });

  FaultInjector slow(/*seed=*/11);
  std::string spec_error;
  ASSERT_TRUE(slow.AddRulesFromSpec("delay100:push@any#*", &spec_error))
      << spec_error;
  obs::Telemetry punctual_tel{obs::TelemetryOptions{}};
  punctual_tel.metrics().set_enabled(true);
  WorkerResult results[2];
  std::vector<std::thread> workers;
  for (int w = 0; w < 2; ++w) {
    workers.emplace_back([&, w] {
      WorkerChaos chaos;
      chaos.lease_ms = 10000;
      chaos.heartbeat_ms = 50;
      if (w == 0) chaos.telemetry = &punctual_tel;
      if (w == 1) chaos.fault = &slow;
      results[w] = RunOneWorker(setup, w, h.server->port(), chaos);
    });
  }
  for (auto& t : workers) t.join();
  server_thread.join();

  ASSERT_TRUE(server_ok) << h.server->error();
  for (int w = 0; w < 2; ++w) {
    EXPECT_TRUE(results[w].ok) << "worker " << w << ": " << results[w].error;
  }
  obs::MetricsRegistry& metrics = punctual_tel.metrics();
  EXPECT_GT(metrics.counter("rpc/heartbeats_sent")->value(), 0.0);
  EXPECT_EQ(metrics.counter("rpc/timeouts")->value(), 0.0);
}

// RequestStop from another thread (the process supervisor's path when a
// child dies unrecoverably) fails the run promptly with the given reason.
TEST(FaultTolerance, RequestStopFailsRunWithReason) {
  TestSetup setup =
      MakeTestSetup(1, /*steps=*/1, compress::CodecConfig::Float32());
  ServerHarness h = MakeServer(setup, /*grace_ms=*/0, /*replay_steps=*/8);
  std::string error;
  ASSERT_TRUE(h.server->Listen(&error)) << error;
  bool server_ok = true;
  std::thread server_thread([&] { server_ok = h.server->Run(); });
  h.server->RequestStop("supervisor says a child died");
  server_thread.join();
  EXPECT_FALSE(server_ok);
  EXPECT_NE(h.server->error().find("supervisor says a child died"),
            std::string::npos)
      << h.server->error();
}

// ---------- server crash recovery ----------

// Kill the *server* right after it completes step `kill_step` (its
// write-ahead checkpoint already on disk), resume a fresh server process
// from that checkpoint on the same port, and require the final global
// model to be bitwise identical to a fault-free in-process run. Both
// workers must survive the outage via their reconnect budget and REJOIN
// against the bumped incarnation epoch. A non-empty `kill_rule` (a
// killserver fault spec) crashes the first incarnation instead; the
// resumed one carries no rule.
void ExpectServerKillResumeParity(const compress::CodecConfig& codec,
                                  std::int64_t kill_step,
                                  const std::string& block_codec = "store",
                                  const std::string& kill_rule = "") {
  SCOPED_TRACE("kill_step=" + std::to_string(kill_step) + " " + kill_rule);
  constexpr int kWorkers = 2;
  TestSetup setup = MakeTestSetup(kWorkers, /*steps=*/6, codec);
  setup.block_codec = block_codec;
  const std::string ckpt = ::testing::TempDir() + "/ft_server_kill_" +
                           std::to_string(kill_step) + ".sckpt";
  std::remove(ckpt.c_str());

  ServerChaos crashy;
  crashy.checkpoint_path = ckpt;
  crashy.checkpoint_every = 1;
  FaultInjector killer(/*seed=*/5);
  if (kill_rule.empty()) {
    crashy.exit_after_step = kill_step;
  } else {
    std::string spec_error;
    ASSERT_TRUE(killer.AddRulesFromSpec(kill_rule, &spec_error))
        << spec_error;
  }
  ServerHarness h1 =
      MakeServer(setup, /*grace_ms=*/20000, /*replay_steps=*/8,
                 kill_rule.empty() ? nullptr : &killer, crashy);
  std::string error;
  ASSERT_TRUE(h1.server->Listen(&error)) << error;
  const int port = h1.server->port();

  bool server1_ok = true;
  std::thread server1_thread([&] { server1_ok = h1.server->Run(); });

  WorkerResult results[kWorkers];
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      WorkerChaos chaos;
      chaos.max_reconnects = 20;  // budget must span the restart gap
      results[w] = RunOneWorker(setup, w, port, chaos);
    });
  }

  server1_thread.join();
  EXPECT_FALSE(server1_ok);
  ASSERT_TRUE(h1.server->simulated_exit()) << h1.server->error();

  // Second incarnation: restore everything from the checkpoint and rebind
  // the same port (SO_REUSEADDR) while the workers are still retrying.
  ServerChaos resumed;
  resumed.port = port;
  resumed.checkpoint_path = ckpt;
  resumed.checkpoint_every = 1;
  ServerHarness h2 = MakeServer(setup, /*grace_ms=*/20000,
                                /*replay_steps=*/8, /*fault=*/nullptr,
                                resumed);
  ASSERT_TRUE(h2.server->ResumeFromCheckpoint(ckpt, &error)) << error;
  ASSERT_TRUE(h2.server->Listen(&error)) << error;
  bool server2_ok = false;
  std::thread server2_thread([&] { server2_ok = h2.server->Run(); });

  for (auto& t : workers) t.join();
  server2_thread.join();

  ASSERT_TRUE(server2_ok) << h2.server->error();
  EXPECT_EQ(h2.server->epoch(), 2u);
  EXPECT_EQ(h2.server->rejoins(), 2u);
  EXPECT_EQ(h2.server->evictions(), 0u);
  EXPECT_EQ(h2.server->steps_completed(), setup.config.trainer.total_steps);
  for (int w = 0; w < kWorkers; ++w) {
    EXPECT_TRUE(results[w].ok) << "worker " << w << ": " << results[w].error;
    EXPECT_GE(results[w].reconnects, 1u) << "worker " << w;
  }
  if (!kill_rule.empty()) {
    // No worker applied step kill_step: both are replayed it from the ring.
    EXPECT_EQ(h2.server->replayed_frames(), kWorkers * h2.plan->size());
  }

  std::unique_ptr<nn::Model> reference = RunInProcessReference(setup);
  EXPECT_TRUE(ModelsBitwiseEqual(*h2.model, *reference))
      << "model diverged after server kill@" << kill_step << " + resume";
  std::remove(ckpt.c_str());
}

TEST(FaultTolerance, KillServerResumeBitwiseParityFloat32) {
  for (const std::int64_t kill_step : {0, 2, 4}) {
    ExpectServerKillResumeParity(compress::CodecConfig::Float32(), kill_step);
  }
}

TEST(FaultTolerance, KillServerResumeBitwiseParity3lc) {
  for (const std::int64_t kill_step : {0, 2, 4}) {
    ExpectServerKillResumeParity(compress::CodecConfig::ThreeLC(1.0f),
                                 kill_step);
  }
}

// The write-ahead server checkpoint is a 3LCZ compressed container when
// lz+rans is negotiated; the resumed incarnation must restore from it —
// including the replay ring's already-enveloped frames — bitwise exactly.
TEST(FaultTolerance, KillServerResumeBitwiseParity3lcWithBlockCodec) {
  ExpectServerKillResumeParity(compress::CodecConfig::ThreeLC(1.0f),
                               /*kill_step=*/2, "lz+rans");
}

// killserver:pull@K crashes the server on step K's first PULL frame: after
// the step's write-ahead checkpoint, before any fan-out byte — the window
// where a generation fallback on resume is bitwise-safe.
TEST(FaultTolerance, KillServerAtCheckpointResumeBitwiseParity) {
  for (const std::int64_t kill_step : {0, 3}) {
    ExpectServerKillResumeParity(compress::CodecConfig::ThreeLC(1.0f),
                                 kill_step, "store",
                                 "killserver:pull@" +
                                     std::to_string(kill_step));
  }
}

// One frame later: worker 0 already holds part of step K's pulls when the
// server dies, and deferred apply keeps it from half-applying the step.
TEST(FaultTolerance, KillServerMidFanOutResumeBitwiseParity) {
  ExpectServerKillResumeParity(compress::CodecConfig::ThreeLC(1.0f),
                               /*kill_step=*/3, "store",
                               "killserver:pull@3#1");
}

// Worst case: the server crashes at the same step a worker does, so the
// resumed incarnation comes up while that worker is itself rejoining from
// its crash checkpoint. Both the survivor's live reconnect and the
// victim's cold rejoin must land on epoch 2, and parity must still hold.
TEST(FaultTolerance, ServerRestartWhileWorkerRejoining) {
  constexpr std::int64_t kCrashStep = 2;
  TestSetup setup =
      MakeTestSetup(2, /*steps=*/6, compress::CodecConfig::ThreeLC(1.0f));
  const std::string server_ckpt =
      ::testing::TempDir() + "/ft_race_server.sckpt";
  const std::string worker_ckpt =
      ::testing::TempDir() + "/ft_race_worker.ckpt";
  std::remove(server_ckpt.c_str());

  ServerChaos crashy;
  crashy.checkpoint_path = server_ckpt;
  crashy.checkpoint_every = 1;
  crashy.exit_after_step = kCrashStep;
  ServerHarness h1 =
      MakeServer(setup, /*grace_ms=*/20000, /*replay_steps=*/8,
                 /*fault=*/nullptr, crashy);
  std::string error;
  ASSERT_TRUE(h1.server->Listen(&error)) << error;
  const int port = h1.server->port();

  bool server1_ok = true;
  std::thread server1_thread([&] { server1_ok = h1.server->Run(); });

  WorkerResult results[2];
  std::thread survivor([&] {
    WorkerChaos chaos;
    chaos.max_reconnects = 20;
    results[0] = RunOneWorker(setup, 0, port, chaos);
  });
  std::thread victim([&] {
    WorkerChaos first;
    first.exit_after_step = kCrashStep;
    first.checkpoint_path = worker_ckpt;
    first.max_reconnects = 20;
    WorkerResult life1 = RunOneWorker(setup, 1, port, first);
    ASSERT_TRUE(life1.simulated_exit) << life1.error;
    // Life 2 starts while the server may still be down: the initial
    // rejoin connect spends the same reconnect budget as mid-run drops.
    WorkerChaos second;
    second.rejoin = true;
    second.checkpoint_path = worker_ckpt;
    second.max_reconnects = 20;
    results[1] = RunOneWorker(setup, 1, port, second);
  });

  server1_thread.join();
  EXPECT_FALSE(server1_ok);
  ASSERT_TRUE(h1.server->simulated_exit()) << h1.server->error();

  ServerChaos resumed;
  resumed.port = port;
  resumed.checkpoint_path = server_ckpt;
  resumed.checkpoint_every = 1;
  ServerHarness h2 = MakeServer(setup, /*grace_ms=*/20000,
                                /*replay_steps=*/8, /*fault=*/nullptr,
                                resumed);
  ASSERT_TRUE(h2.server->ResumeFromCheckpoint(server_ckpt, &error)) << error;
  ASSERT_TRUE(h2.server->Listen(&error)) << error;
  bool server2_ok = false;
  std::thread server2_thread([&] { server2_ok = h2.server->Run(); });

  survivor.join();
  victim.join();
  server2_thread.join();

  ASSERT_TRUE(server2_ok) << h2.server->error();
  EXPECT_EQ(h2.server->epoch(), 2u);
  EXPECT_EQ(h2.server->rejoins(), 2u);
  EXPECT_EQ(h2.server->evictions(), 0u);
  EXPECT_EQ(h2.server->steps_completed(), setup.config.trainer.total_steps);
  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_TRUE(results[1].ok) << results[1].error;

  std::unique_ptr<nn::Model> reference = RunInProcessReference(setup);
  EXPECT_TRUE(ModelsBitwiseEqual(*h2.model, *reference))
      << "model diverged after simultaneous server+worker crash";
  std::remove(server_ckpt.c_str());
  std::remove(worker_ckpt.c_str());
}

// A torn newest checkpoint generation (crash mid-write would be caught
// by the atomic rename; this simulates post-rename disk corruption) must
// never be half-loaded. With an older intact generation on disk, resume
// falls back to it; with every generation corrupted, resume is rejected
// with a "no usable checkpoint" diagnostic.
TEST(FaultTolerance, TornServerCheckpointFallsBackOrIsRejected) {
  TestSetup setup =
      MakeTestSetup(1, /*steps=*/2, compress::CodecConfig::Float32());
  const std::string ckpt = ::testing::TempDir() + "/ft_torn_server.sckpt";
  std::remove(ckpt.c_str());
  for (int g = 0; g < 16; ++g) {
    std::remove((ckpt + ".g" + std::to_string(g)).c_str());
  }

  // Produce valid generations via a clean run. checkpoint_every=1 over
  // two steps with the default retention of 2 leaves exactly g0 and g1.
  ServerChaos chaos;
  chaos.checkpoint_path = ckpt;
  chaos.checkpoint_every = 1;
  ServerHarness h = MakeServer(setup, /*grace_ms=*/0, /*replay_steps=*/8,
                               /*fault=*/nullptr, chaos);
  std::string error;
  ASSERT_TRUE(h.server->Listen(&error)) << error;
  bool server_ok = false;
  std::thread server_thread([&] { server_ok = h.server->Run(); });
  WorkerResult result =
      RunOneWorker(setup, 0, h.server->port(), WorkerChaos{});
  server_thread.join();
  ASSERT_TRUE(server_ok) << h.server->error();
  ASSERT_TRUE(result.ok) << result.error;

  // Retention keeps the two newest generations; their numbers depend on
  // how many forced writes the run performed, so discover them.
  std::vector<std::string> gens;
  for (int g = 0; g < 32; ++g) {
    const std::string path = ckpt + ".g" + std::to_string(g);
    std::FILE* probe = std::fopen(path.c_str(), "rb");
    if (probe != nullptr) {
      std::fclose(probe);
      gens.push_back(path);
    }
  }
  ASSERT_EQ(gens.size(), 2u) << "expected retention to keep 2 generations";
  const std::string gen0 = gens[0];  // older
  const std::string gen1 = gens[1];  // newest
  const auto read_bytes = [](const std::string& path) {
    std::vector<unsigned char> bytes;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return bytes;
    std::fseek(f, 0, SEEK_END);
    bytes.resize(static_cast<std::size_t>(std::ftell(f)));
    std::fseek(f, 0, SEEK_SET);
    if (std::fread(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
      bytes.clear();
    }
    std::fclose(f);
    return bytes;
  };
  const auto write_bytes = [&](const std::string& path,
                               const std::vector<unsigned char>& data) {
    std::FILE* out = std::fopen(path.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), out), data.size());
    std::fclose(out);
  };
  const std::vector<unsigned char> bytes0 = read_bytes(gen0);
  const std::vector<unsigned char> bytes1 = read_bytes(gen1);
  ASSERT_GT(bytes0.size(), 16u);
  ASSERT_GT(bytes1.size(), 16u);

  // Truncate the newest generation to half: resume must skip it and fall
  // back to the older intact one.
  write_bytes(gen1, std::vector<unsigned char>(
                        bytes1.begin(), bytes1.begin() + bytes1.size() / 2));
  {
    ServerHarness fresh =
        MakeServer(setup, /*grace_ms=*/0, /*replay_steps=*/8);
    std::string resume_error;
    EXPECT_TRUE(fresh.server->ResumeFromCheckpoint(ckpt, &resume_error))
        << resume_error;
    EXPECT_EQ(fresh.server->checkpoint_fallbacks(), 1u);
    EXPECT_GE(fresh.server->epoch(), 1u);
  }

  // Flip a byte mid-file in the older generation too: with every
  // generation bad, resume must be rejected, never half-loaded.
  std::vector<unsigned char> flipped = bytes0;
  flipped[flipped.size() / 2] ^= 0x40;
  write_bytes(gen0, flipped);
  {
    ServerHarness fresh =
        MakeServer(setup, /*grace_ms=*/0, /*replay_steps=*/8);
    std::string resume_error;
    EXPECT_FALSE(fresh.server->ResumeFromCheckpoint(ckpt, &resume_error))
        << "all-corrupt checkpoint set accepted";
    EXPECT_NE(resume_error.find("no usable checkpoint"), std::string::npos)
        << resume_error;
  }

  // Pristine bytes restore both generations: the newest loads with no
  // fallback, proving the harness itself is sound.
  write_bytes(gen0, bytes0);
  write_bytes(gen1, bytes1);
  ServerHarness fresh = MakeServer(setup, /*grace_ms=*/0, /*replay_steps=*/8);
  std::string resume_error;
  EXPECT_TRUE(fresh.server->ResumeFromCheckpoint(ckpt, &resume_error))
      << resume_error;
  EXPECT_EQ(fresh.server->checkpoint_fallbacks(), 0u);
  EXPECT_EQ(fresh.server->epoch(), 2u);
  std::remove(gen0.c_str());
  std::remove(gen1.c_str());
}

// ---------- graceful stop ----------

// A worker whose stop_flag flips mid-run returns interrupted with its
// resume checkpoint at checkpoint_path; restarted from it with rejoin=true
// inside the grace window, it finishes the run bitwise identical to a
// fault-free one. Its pushes are slowed so the flag lands before its
// last step.
TEST(FaultTolerance, WorkerGracefulStopResumesWithParity) {
  constexpr int kWorkers = 2;
  TestSetup setup = MakeTestSetup(kWorkers, /*steps=*/12,
                                  compress::CodecConfig::ThreeLC(1.0f));
  const std::string ckpt = ::testing::TempDir() + "/ft_worker_stop.ckpt";
  ServerHarness h = MakeServer(setup, /*grace_ms=*/20000,
                               /*replay_steps=*/12);
  std::string error;
  ASSERT_TRUE(h.server->Listen(&error)) << error;
  bool server_ok = false;
  std::thread server_thread([&] { server_ok = h.server->Run(); });

  FaultInjector slow(/*seed=*/13);
  std::string spec_error;
  ASSERT_TRUE(slow.AddRulesFromSpec("delay50:push@any#*", &spec_error))
      << spec_error;
  std::atomic<bool> stop{false};
  WorkerResult results[kWorkers];
  WorkerResult life1;
  std::thread survivor([&] {
    results[0] = RunOneWorker(setup, 0, h.server->port(), WorkerChaos{});
  });
  std::thread stopped([&] {
    WorkerChaos first;
    first.checkpoint_path = ckpt;
    first.stop_flag = &stop;
    first.fault = &slow;
    life1 = RunOneWorker(setup, 1, h.server->port(), first);
    WorkerChaos second;
    second.rejoin = true;
    second.checkpoint_path = ckpt;
    results[1] = RunOneWorker(setup, 1, h.server->port(), second);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  survivor.join();
  stopped.join();
  server_thread.join();

  EXPECT_FALSE(life1.ok);
  EXPECT_TRUE(life1.interrupted) << life1.error;
  ASSERT_TRUE(server_ok) << h.server->error();
  for (int w = 0; w < kWorkers; ++w) {
    EXPECT_TRUE(results[w].ok) << "worker " << w << ": " << results[w].error;
  }
  EXPECT_EQ(h.server->rejoins(), 1u);
  EXPECT_EQ(h.server->evictions(), 0u);
  std::unique_ptr<nn::Model> reference = RunInProcessReference(setup);
  EXPECT_TRUE(ModelsBitwiseEqual(*h.model, *reference))
      << "model diverged after a graceful stop + rejoin";
  std::remove(ckpt.c_str());
}

// A server whose stop_flag flips mid-run returns interrupted after forcing
// a checkpoint generation at the step it was collecting, and that
// generation restores a fresh server. The cadence is set past the run so
// only the start-of-run and forced generations exist.
TEST(FaultTolerance, ServerGracefulStopForcesLoadableCheckpoint) {
  TestSetup setup =
      MakeTestSetup(2, /*steps=*/12, compress::CodecConfig::Float32());
  const std::string ckpt = ::testing::TempDir() + "/ft_server_stop.sckpt";
  nn::CheckpointManager::Options options;
  options.path = ckpt;
  auto remove_generations = [&] {
    for (std::uint64_t g = 0; g < 4; ++g) {
      std::remove(nn::CheckpointManager(options).GenerationPath(g).c_str());
    }
  };
  remove_generations();
  std::atomic<bool> stop{false};
  ServerChaos chaos;
  chaos.checkpoint_path = ckpt;
  chaos.checkpoint_every = 1000;
  chaos.stop_flag = &stop;
  ServerHarness h = MakeServer(setup, /*grace_ms=*/0, /*replay_steps=*/8,
                               /*fault=*/nullptr, chaos);
  std::string error;
  ASSERT_TRUE(h.server->Listen(&error)) << error;
  bool server_ok = true;
  std::thread server_thread([&] { server_ok = h.server->Run(); });

  FaultInjector slow(/*seed=*/17);
  std::string spec_error;
  ASSERT_TRUE(slow.AddRulesFromSpec("delay50:push@any#*", &spec_error))
      << spec_error;
  std::vector<std::thread> workers;
  for (int w = 0; w < 2; ++w) {
    workers.emplace_back([&, w] {
      WorkerChaos worker_chaos;
      if (w == 1) worker_chaos.fault = &slow;
      RunOneWorker(setup, w, h.server->port(), worker_chaos);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  for (auto& t : workers) t.join();
  server_thread.join();

  EXPECT_FALSE(server_ok);
  EXPECT_TRUE(h.server->interrupted()) << h.server->error();
  const std::int64_t stopped_at = h.server->steps_completed();
  EXPECT_LT(stopped_at, setup.config.trainer.total_steps);

  ServerHarness fresh = MakeServer(setup, /*grace_ms=*/20000,
                                   /*replay_steps=*/8);
  nn::CheckpointManager manager(options);
  nn::ServerState state;
  ASSERT_TRUE(manager.Load(*fresh.model, &state, &error)) << error;
  EXPECT_EQ(manager.loaded_path(), manager.GenerationPath(1));
  EXPECT_EQ(state.next_step, static_cast<std::uint64_t>(stopped_at));
  EXPECT_TRUE(fresh.server->ResumeFromCheckpoint(ckpt, &error)) << error;
  remove_generations();
}

// ---------- liveness: leases, hangs, one-way partitions ----------

// A worker whose endpoint freezes mid-run (injected `stall`: stops
// reading and flushing without closing, like a SIGSTOP'd process) is
// detected by BOTH leases: the server's lease expires (no frames in) and
// routes through the grace path, force-closing the half-open socket; the
// worker's own lease expires (no frames out of its blocked inbox) and it
// reconnects. The REJOIN resends the stored encoded push, so the final
// model is still bitwise identical to a fault-free run.
TEST(FaultTolerance, StalledWorkerLeaseEvictsThenRejoinsWithParity) {
  TestSetup setup =
      MakeTestSetup(2, /*steps=*/6, compress::CodecConfig::ThreeLC(1.0f));
  ServerChaos leases;
  leases.lease_ms = 400;
  leases.heartbeat_ms = 100;
  ServerHarness h = MakeServer(setup, /*grace_ms=*/20000, /*replay_steps=*/8,
                               /*fault=*/nullptr, leases);
  std::string error;
  ASSERT_TRUE(h.server->Listen(&error)) << error;

  FaultInjector injector(/*seed=*/21);
  std::string spec_error;
  ASSERT_TRUE(injector.AddRulesFromSpec("stall:push@2", &spec_error))
      << spec_error;

  bool server_ok = false;
  std::thread server_thread([&] { server_ok = h.server->Run(); });
  WorkerResult results[2];
  std::thread w0([&] {
    WorkerChaos chaos;
    chaos.lease_ms = 400;
    chaos.heartbeat_ms = 100;
    results[0] = RunOneWorker(setup, 0, h.server->port(), chaos);
  });
  std::thread w1([&] {
    WorkerChaos chaos;
    chaos.fault = &injector;
    chaos.max_reconnects = 3;
    // Longer than the server's lease so the server detects the hang
    // first; the worker's own clock is the (slower) self-recovery path —
    // its blocked rx never sees the server's force-close.
    chaos.lease_ms = 1500;
    chaos.heartbeat_ms = 100;
    results[1] = RunOneWorker(setup, 1, h.server->port(), chaos);
  });
  w0.join();
  w1.join();
  server_thread.join();

  ASSERT_TRUE(server_ok) << h.server->error();
  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_TRUE(results[1].ok) << results[1].error;
  EXPECT_GE(results[1].reconnects, 1u);
  EXPECT_GE(h.server->lease_expiries(), 1u);
  EXPECT_GE(h.server->rejoins(), 1u);
  EXPECT_EQ(h.server->evictions(), 0u);  // grace held for the rejoin

  std::unique_ptr<nn::Model> reference = RunInProcessReference(setup);
  EXPECT_TRUE(ModelsBitwiseEqual(*h.model, *reference));
}

// A hung worker that never comes back (stall + zero reconnect budget)
// must converge to exactly the same survivors' model as a worker that
// died cleanly at the same point: lease expiry -> grace -> eviction is
// just a slower route to the rescaled aggregation.
TEST(FaultTolerance, HungWorkerEvictionMatchesCleanDeathRescaledParity) {
  TestSetup setup =
      MakeTestSetup(2, /*steps=*/6, compress::CodecConfig::ThreeLC(1.0f));

  // Run 1: worker 1 freezes while sending its step-2 push (contributed
  // steps 0..1), detected only by the server's lease.
  ServerChaos leases;
  leases.lease_ms = 400;
  leases.heartbeat_ms = 100;
  ServerHarness hung = MakeServer(setup, /*grace_ms=*/300, /*replay_steps=*/8,
                                  /*fault=*/nullptr, leases);
  std::string error;
  ASSERT_TRUE(hung.server->Listen(&error)) << error;
  FaultInjector injector(/*seed=*/22);
  std::string spec_error;
  ASSERT_TRUE(injector.AddRulesFromSpec("stall:push@2", &spec_error))
      << spec_error;
  {
    bool ok = false;
    std::thread server_thread([&] { ok = hung.server->Run(); });
    WorkerResult results[2];
    std::thread w0([&] {
      // Healthy survivor: beacons on (leases imply heartbeats), its own
      // lease generous enough to never self-trip while the server holds
      // the barrier for the hung peer.
      WorkerChaos chaos;
      chaos.lease_ms = 5000;
      chaos.heartbeat_ms = 100;
      results[0] = RunOneWorker(setup, 0, hung.server->port(), chaos);
    });
    std::thread w1([&] {
      WorkerChaos chaos;
      chaos.fault = &injector;
      chaos.max_reconnects = 0;  // the hung worker never returns
      chaos.lease_ms = 2000;     // server's (400 ms) lease detects first
      chaos.heartbeat_ms = 100;
      results[1] = RunOneWorker(setup, 1, hung.server->port(), chaos);
    });
    w0.join();
    w1.join();
    server_thread.join();
    ASSERT_TRUE(ok) << hung.server->error();
    EXPECT_TRUE(results[0].ok) << results[0].error;
    EXPECT_FALSE(results[1].ok);  // its reconnect budget was zero
    EXPECT_GE(hung.server->lease_expiries(), 1u);
    EXPECT_EQ(hung.server->evictions(), 1u);
    EXPECT_EQ(hung.server->steps_completed(),
              setup.config.trainer.total_steps);
  }

  // Run 2: worker 1 exits cleanly after completing step 1 — the same
  // contribution cut-off, detected by the disconnect instead of a lease.
  ServerHarness dead = MakeServer(setup, /*grace_ms=*/300, /*replay_steps=*/8);
  ASSERT_TRUE(dead.server->Listen(&error)) << error;
  {
    bool ok = false;
    std::thread server_thread([&] { ok = dead.server->Run(); });
    WorkerResult results[2];
    std::thread w0([&] {
      results[0] = RunOneWorker(setup, 0, dead.server->port(), WorkerChaos{});
    });
    std::thread w1([&] {
      WorkerChaos chaos;
      chaos.exit_after_step = 1;  // no checkpoint, no restart
      results[1] = RunOneWorker(setup, 1, dead.server->port(), chaos);
    });
    w0.join();
    w1.join();
    server_thread.join();
    ASSERT_TRUE(ok) << dead.server->error();
    EXPECT_EQ(dead.server->evictions(), 1u);
  }

  EXPECT_TRUE(ModelsBitwiseEqual(*hung.model, *dead.model))
      << "lease eviction and clean death diverged at the same cut-off";
}

// Satellite regression: a one-way (tx) partition leaves the worker
// blocked in pull-wait — its pushes vanish, but its rx side still sees
// the server, so its own lease never trips. The SERVER's lease must bound
// the hang: expiry force-closes the socket, the worker sees EOF and
// reconnects within lease + backoff, not pull_timeout_ms (20 s here, 60 s
// in production configs).
TEST(FaultTolerance, TxPartitionedWorkerReconnectsWithinLeaseBudget) {
  TestSetup setup =
      MakeTestSetup(2, /*steps=*/6, compress::CodecConfig::ThreeLC(1.0f));
  ServerChaos leases;
  leases.lease_ms = 500;
  leases.heartbeat_ms = 100;
  ServerHarness h = MakeServer(setup, /*grace_ms=*/20000, /*replay_steps=*/8,
                               /*fault=*/nullptr, leases);
  std::string error;
  ASSERT_TRUE(h.server->Listen(&error)) << error;

  FaultInjector injector(/*seed=*/23);
  std::string spec_error;
  ASSERT_TRUE(injector.AddRulesFromSpec("partition:tx@2", &spec_error))
      << spec_error;

  const auto start = std::chrono::steady_clock::now();
  bool server_ok = false;
  std::thread server_thread([&] { server_ok = h.server->Run(); });
  WorkerResult results[2];
  std::thread w0([&] {
    WorkerChaos chaos;  // healthy survivor: beacons on, lease generous
    chaos.lease_ms = 5000;
    chaos.heartbeat_ms = 100;
    results[0] = RunOneWorker(setup, 0, h.server->port(), chaos);
  });
  std::thread w1([&] {
    WorkerChaos chaos;
    chaos.fault = &injector;
    chaos.max_reconnects = 3;
    chaos.lease_ms = 2000;  // must NOT be what saves it: rx stays live
    chaos.heartbeat_ms = 100;
    results[1] = RunOneWorker(setup, 1, h.server->port(), chaos);
  });
  w0.join();
  w1.join();
  server_thread.join();
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();

  ASSERT_TRUE(server_ok) << h.server->error();
  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_TRUE(results[1].ok) << results[1].error;
  EXPECT_GE(results[1].reconnects, 1u);
  EXPECT_GE(h.server->lease_expiries(), 1u);
  EXPECT_GE(h.server->rejoins(), 1u);
  // Bounded by the server lease (500 ms) + backoff, nowhere near the
  // 20 s pull timeout the worker would otherwise ride out.
  EXPECT_LT(elapsed_ms, 10000.0);

  std::unique_ptr<nn::Model> reference = RunInProcessReference(setup);
  EXPECT_TRUE(ModelsBitwiseEqual(*h.model, *reference));
}

// Seeded chaos sweep, in-process edition: each seed derives a random
// recoverable fault schedule (mixed corruption, close, delay, stall, and
// one-way partitions) for worker 1, and every seed must terminate
// cleanly with the survivors' — here, everyone's — final model bitwise
// identical to a fault-free run. tools/chaos_sweep.py runs the same idea
// against the real multi-process example.
TEST(FaultTolerance, ChaosSweepSeededSchedulesTerminateCleanly) {
  const char* const kMenu[] = {
      "corrupt:push@", "close:push@",      "delay50:pull@",
      "stall:push@",   "partition:tx@",    "partition:rx@",
  };
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    util::Rng rng(seed);
    const char* const action = kMenu[rng.Next() % 6];
    const std::int64_t at = 1 + static_cast<std::int64_t>(rng.Next() % 3);
    const std::string spec = std::string(action) + std::to_string(at);
    SCOPED_TRACE("spec=" + spec);

    TestSetup setup =
        MakeTestSetup(2, /*steps=*/6, compress::CodecConfig::ThreeLC(1.0f));
    ServerChaos leases;
    leases.lease_ms = 400;
    leases.heartbeat_ms = 100;
    ServerHarness h = MakeServer(setup, /*grace_ms=*/20000,
                                 /*replay_steps=*/8, /*fault=*/nullptr,
                                 leases);
    std::string error;
    ASSERT_TRUE(h.server->Listen(&error)) << error;

    FaultInjector injector(seed);
    std::string spec_error;
    ASSERT_TRUE(injector.AddRulesFromSpec(spec, &spec_error)) << spec_error;

    bool server_ok = false;
    std::thread server_thread([&] { server_ok = h.server->Run(); });
    WorkerResult results[2];
    std::thread w0([&] {
      WorkerChaos chaos;
      chaos.lease_ms = 400;
      chaos.heartbeat_ms = 100;
      results[0] = RunOneWorker(setup, 0, h.server->port(), chaos);
    });
    std::thread w1([&] {
      WorkerChaos chaos;
      chaos.fault = &injector;
      chaos.max_reconnects = 5;
      chaos.lease_ms = 400;
      chaos.heartbeat_ms = 100;
      results[1] = RunOneWorker(setup, 1, h.server->port(), chaos);
    });
    w0.join();
    w1.join();
    server_thread.join();

    ASSERT_TRUE(server_ok) << h.server->error();
    EXPECT_TRUE(results[0].ok) << results[0].error;
    EXPECT_TRUE(results[1].ok) << results[1].error;
    EXPECT_EQ(h.server->evictions(), 0u);
    EXPECT_EQ(h.server->steps_completed(),
              setup.config.trainer.total_steps);

    std::unique_ptr<nn::Model> reference = RunInProcessReference(setup);
    EXPECT_TRUE(ModelsBitwiseEqual(*h.model, *reference));
  }
}

}  // namespace
}  // namespace threelc::rpc
