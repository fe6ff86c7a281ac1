// End-to-end tests for the TCP distributed runtime: a threaded
// RpcServer + N RpcWorkers over loopback must produce bitwise-identical
// model parameters to the in-process DistributedTrainer for the same
// seed/codec/steps, and every injected fault (rogue disconnect, garbage
// bytes, plan-hash mismatch, absent peers, dead port) must fail cleanly
// with a descriptive error instead of hanging or crashing.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "compress/factory.h"
#include "data/synthetic.h"
#include "obs/stage_profiler.h"
#include "obs/telemetry.h"
#include "ps/plan.h"
#include "ps/server.h"
#include "ps/worker.h"
#include "rpc/runtime.h"
#include "rpc/transport.h"
#include "step_log.h"
#include "train/experiment.h"
#include "train/model_zoo.h"
#include "train/trainer.h"
#include "util/rng.h"

namespace threelc::rpc {
namespace {

struct TestSetup {
  train::ExperimentConfig config;
  data::SyntheticData data;
  // Second-stage lossless block codec both sides negotiate at handshake.
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

// One worker's full lifecycle on the calling thread, mirroring
// examples/distributed_training.cpp (including the exact sampler seeding
// that makes the run bitwise-reproducible).
bool RunOneWorker(const TestSetup& setup, int worker_id, int port,
                  std::string* error, obs::Telemetry* telemetry = nullptr) {
  const train::TrainerConfig& tc = setup.config.trainer;
  nn::Model model =
      train::BuildMlp(setup.config.model, setup.config.model_seed);
  const ps::TensorPlan plan =
      ps::TensorPlan::FromParams(model.Params(), tc.min_compress_elems);
  auto codec = std::shared_ptr<const compress::Compressor>(
      compress::MakeCompressor(tc.codec));
  ps::Worker ps_worker(worker_id, model, plan, codec);

  util::Rng seeder(tc.seed);
  util::Rng rng = seeder.Fork();
  for (int i = 0; i < worker_id; ++i) rng = seeder.Fork();
  data::Sampler sampler(setup.data.train, rng, tc.augment_noise);

  RpcWorkerConfig wc;
  wc.port = port;
  wc.worker_id = worker_id;
  wc.batch_size = tc.batch_size;
  wc.handshake_timeout_ms = 10000;
  wc.pull_timeout_ms = 20000;
  wc.io_timeout_ms = 10000;
  wc.retry.max_attempts = 5;
  wc.retry.initial_backoff_ms = 10;
  wc.block_codec = setup.block_codec;
  wc.telemetry = telemetry;
  RpcWorker worker(wc, ps_worker, plan, codec->name(), std::move(sampler));
  const bool ok = worker.Run();
  if (!ok && error != nullptr) *error = worker.error();
  return ok;
}

// Run server + N worker threads over loopback; on success returns the
// final global model.
std::unique_ptr<nn::Model> RunTcpTraining(
    const TestSetup& setup, obs::Telemetry* server_telemetry = nullptr,
    obs::Telemetry* worker_telemetry = nullptr) {
  const train::TrainerConfig& tc = setup.config.trainer;
  auto model = std::make_unique<nn::Model>(
      train::BuildMlp(setup.config.model, setup.config.model_seed));
  const ps::TensorPlan plan =
      ps::TensorPlan::FromParams(model->Params(), tc.min_compress_elems);
  auto codec = std::shared_ptr<const compress::Compressor>(
      compress::MakeCompressor(tc.codec));
  ps::ParameterServer ps(*model, plan, codec, tc.optimizer);

  RpcServerConfig sc;
  sc.num_workers = tc.num_workers;
  sc.total_steps = tc.total_steps;
  sc.lr_max = tc.lr_max;
  sc.lr_min = tc.lr_min;
  sc.handshake_timeout_ms = 10000;
  sc.step_timeout_ms = 20000;
  sc.shutdown_timeout_ms = 10000;
  sc.block_codec = setup.block_codec;
  sc.telemetry = server_telemetry;
  RpcServer server(sc, ps, codec->name());
  std::string error;
  EXPECT_TRUE(server.Listen(&error)) << error;

  bool server_ok = false;
  std::thread server_thread([&] { server_ok = server.Run(); });

  std::vector<std::thread> workers;
  std::vector<std::string> worker_errors(
      static_cast<std::size_t>(tc.num_workers));
  std::vector<char> worker_ok(static_cast<std::size_t>(tc.num_workers), 0);
  for (int w = 0; w < tc.num_workers; ++w) {
    workers.emplace_back([&, w] {
      worker_ok[static_cast<std::size_t>(w)] =
          RunOneWorker(setup, w, server.port(),
                       &worker_errors[static_cast<std::size_t>(w)],
                       worker_telemetry)
              ? 1
              : 0;
    });
  }
  for (auto& t : workers) t.join();
  server_thread.join();

  EXPECT_TRUE(server_ok) << server.error();
  for (int w = 0; w < tc.num_workers; ++w) {
    EXPECT_TRUE(worker_ok[static_cast<std::size_t>(w)])
        << "worker " << w << ": "
        << worker_errors[static_cast<std::size_t>(w)];
  }
  EXPECT_EQ(server.steps_completed(), tc.total_steps);
  if (!server_ok) return nullptr;
  return model;
}

void ExpectTcpMatchesInProcess(const compress::CodecConfig& codec,
                               const std::string& block_codec = "store") {
  TestSetup setup = MakeTestSetup(/*num_workers=*/2, /*steps=*/6, codec);
  setup.block_codec = block_codec;
  std::unique_ptr<nn::Model> tcp_model = RunTcpTraining(setup);
  ASSERT_NE(tcp_model, nullptr);

  const train::MlpSpec spec = setup.config.model;
  const std::uint64_t model_seed = setup.config.model_seed;
  train::DistributedTrainer trainer(
      setup.config.trainer,
      [spec, model_seed] { return train::BuildMlp(spec, model_seed); },
      setup.data.train, setup.data.test);
  trainer.Run();

  EXPECT_TRUE(ModelsBitwiseEqual(*tcp_model, trainer.global_model()));
}

TEST(RpcRuntime, BitwiseIdenticalToInProcessWithFloat32Codec) {
  ExpectTcpMatchesInProcess(compress::CodecConfig::Float32());
}

TEST(RpcRuntime, BitwiseIdenticalToInProcessWith3lcCodec) {
  ExpectTcpMatchesInProcess(compress::CodecConfig::ThreeLC(1.0f));
}

// Pins what downstream tools parse from a TCP run: each server step
// record's phases (names, order, and that they sum to step_wall_ms), the
// server and worker span names, the server's profiler stage paths, and
// the per-phase /metricsz histogram names.
TEST(RpcRuntime, StepRecordPhasesSpansAndStagesArePinned) {
  const TestSetup setup = MakeTestSetup(/*num_workers=*/2, /*steps=*/3,
                                        compress::CodecConfig::ThreeLC(1.0f));
  const std::string path = ::testing::TempDir() + "rpc_step_log.jsonl";
  obs::TelemetryOptions server_options;
  server_options.metrics_path = path;
  server_options.trace_path = ::testing::TempDir() + "rpc_server_trace.json";
  obs::Telemetry server_tel(server_options);
  obs::TelemetryOptions worker_options;
  worker_options.trace_path = ::testing::TempDir() + "rpc_worker_trace.json";
  obs::Telemetry worker_tel(worker_options);
  ASSERT_NE(RunTcpTraining(setup, &server_tel, &worker_tel), nullptr);
  server_tel.Flush();

  const std::vector<std::string> phases = {
      "step_barrier", "decode",     "aggregate", "optimize",
      "encode",       "checkpoint", "fan_out"};
  const std::vector<testutil::StepPhases> steps =
      testutil::ReadStepPhases(path);
  ASSERT_EQ(steps.size(), 3u);
  for (const testutil::StepPhases& s : steps) {
    EXPECT_EQ(s.names, phases);
    EXPECT_NEAR(s.sum_ms, s.step_wall_ms, 1e-6 * s.step_wall_ms + 1e-9);
  }

  EXPECT_EQ(testutil::SpanNames(server_tel.tracer(), 0, 0),
            (std::set<std::string>{"rpc/handshake", "rpc/step",
                                   "rpc/step_barrier", "rpc/decode_aggregate",
                                   "rpc/optimize", "rpc/encode",
                                   "rpc/checkpoint", "rpc/fan_out"}));
  EXPECT_EQ(testutil::SpanNames(worker_tel.tracer(), 1, 2),
            (std::set<std::string>{"rpc/handshake", "forward_backward",
                                   "rpc/push", "rpc/pull_wait"}));

  std::set<std::string> step_children;
  std::set<std::string> paths;
  for (const obs::StageSample& s :
       obs::StageProfiler::Global().Snapshot()) {
    paths.insert(s.path);
    const std::string prefix = "server_step/";
    if (s.path.rfind(prefix, 0) == 0 &&
        s.path.find('/', prefix.size()) == std::string::npos) {
      step_children.insert(s.path.substr(prefix.size()));
    }
  }
  EXPECT_EQ(step_children,
            (std::set<std::string>{"barrier", "decode_aggregate", "optimize",
                                   "encode", "checkpoint", "fan_out"}));
  EXPECT_EQ(paths.count("server_step/decode_aggregate/3lc_decode/expand"), 1u);
  EXPECT_EQ(paths.count("server_step/encode/3lc_encode/zre"), 1u);

  std::set<std::string> histograms;
  for (const auto& h : server_tel.metrics().Snapshot().histograms) {
    histograms.insert(h.name);
  }
  std::set<std::string> expected_histograms = {"step/total_ms"};
  for (const std::string& p : phases) {
    expected_histograms.insert("step/" + p + "_ms");
  }
  EXPECT_EQ(histograms, expected_histograms);
}

// Wire parity for the second-stage block codec: wrapping every payload in
// the lz+rans envelope must not change a single model bit relative to the
// in-process trainer (and hence relative to a --block-codec store run,
// which the two tests above pin to the same trainer). Covers both tensor
// codecs: raw float32 frames and 3LC-compressed frames.
TEST(RpcRuntime, BlockCodecLzRansWireParityWithFloat32Codec) {
  ExpectTcpMatchesInProcess(compress::CodecConfig::Float32(), "lz+rans");
}

TEST(RpcRuntime, BlockCodecLzRansWireParityWith3lcCodec) {
  ExpectTcpMatchesInProcess(compress::CodecConfig::ThreeLC(1.0f), "lz+rans");
}

// Every registered non-store codec must hold wire parity, not just the
// composed one (a bug in either stage alone must not hide behind the
// other).
TEST(RpcRuntime, BlockCodecLzAndRansAloneWireParity) {
  ExpectTcpMatchesInProcess(compress::CodecConfig::ThreeLC(1.0f), "lz");
  ExpectTcpMatchesInProcess(compress::CodecConfig::ThreeLC(1.0f), "rans");
}

// A worker negotiating a different block codec than the server is a
// configuration error the handshake must reject loudly — silently mixing
// framed and bare payloads would corrupt training.
TEST(RpcRuntime, BlockCodecMismatchRejectedAtHandshake) {
  TestSetup setup =
      MakeTestSetup(1, 1, compress::CodecConfig::Float32());
  setup.block_codec = "lz+rans";
  nn::Model model =
      train::BuildMlp(setup.config.model, setup.config.model_seed);
  const ps::TensorPlan plan = ps::TensorPlan::FromParams(
      model.Params(), setup.config.trainer.min_compress_elems);
  auto codec = std::shared_ptr<const compress::Compressor>(
      compress::MakeCompressor(setup.config.trainer.codec));
  ps::ParameterServer ps(model, plan, codec, setup.config.trainer.optimizer);

  RpcServerConfig sc;
  sc.num_workers = 1;
  sc.total_steps = 1;
  sc.handshake_timeout_ms = 5000;
  sc.block_codec = "store";  // disagrees with the worker's lz+rans
  RpcServer server(sc, ps, codec->name());
  std::string error;
  ASSERT_TRUE(server.Listen(&error)) << error;

  bool server_ok = true;
  std::thread server_thread([&] { server_ok = server.Run(); });
  std::string worker_error;
  TestSetup worker_setup = setup;  // worker keeps lz+rans
  const bool worker_ok =
      RunOneWorker(worker_setup, 0, server.port(), &worker_error);
  server_thread.join();

  EXPECT_FALSE(server_ok);
  EXPECT_FALSE(worker_ok);
  EXPECT_NE(server.error().find("block-codec"), std::string::npos)
      << server.error();
}

TEST(RpcRuntime, PlanHashIsOrderStableAndCodecSensitive) {
  TestSetup setup =
      MakeTestSetup(1, 1, compress::CodecConfig::Float32());
  nn::Model model =
      train::BuildMlp(setup.config.model, setup.config.model_seed);
  const ps::TensorPlan plan = ps::TensorPlan::FromParams(
      model.Params(), setup.config.trainer.min_compress_elems);
  EXPECT_EQ(PlanHash(plan, "float32"), PlanHash(plan, "float32"));
  EXPECT_NE(PlanHash(plan, "float32"), PlanHash(plan, "3lc"));
}

// A server whose expected workers never show up must give up at the
// handshake deadline with a descriptive error, not hang.
TEST(RpcRuntime, HandshakeTimeoutFailsCleanly) {
  TestSetup setup = MakeTestSetup(1, 1, compress::CodecConfig::Float32());
  nn::Model model =
      train::BuildMlp(setup.config.model, setup.config.model_seed);
  const ps::TensorPlan plan = ps::TensorPlan::FromParams(
      model.Params(), setup.config.trainer.min_compress_elems);
  auto codec = std::shared_ptr<const compress::Compressor>(
      compress::MakeCompressor(setup.config.trainer.codec));
  ps::ParameterServer ps(model, plan, codec, setup.config.trainer.optimizer);

  RpcServerConfig sc;
  sc.num_workers = 1;
  sc.total_steps = 1;
  sc.handshake_timeout_ms = 200;
  RpcServer server(sc, ps, codec->name());
  std::string error;
  ASSERT_TRUE(server.Listen(&error)) << error;
  EXPECT_FALSE(server.Run());
  EXPECT_FALSE(server.error().empty());
  EXPECT_NE(server.error().find("handshake"), std::string::npos)
      << server.error();
}

// A client that connects and vanishes mid-run is a fatal fault: the BSP
// barrier can never complete, so the server reports it immediately.
TEST(RpcRuntime, RogueDisconnectFailsServerCleanly) {
  TestSetup setup = MakeTestSetup(2, 100, compress::CodecConfig::Float32());
  nn::Model model =
      train::BuildMlp(setup.config.model, setup.config.model_seed);
  const ps::TensorPlan plan = ps::TensorPlan::FromParams(
      model.Params(), setup.config.trainer.min_compress_elems);
  auto codec = std::shared_ptr<const compress::Compressor>(
      compress::MakeCompressor(setup.config.trainer.codec));
  ps::ParameterServer ps(model, plan, codec, setup.config.trainer.optimizer);

  RpcServerConfig sc;
  sc.num_workers = 2;
  sc.total_steps = 100;
  sc.handshake_timeout_ms = 5000;
  RpcServer server(sc, ps, codec->name());
  std::string error;
  ASSERT_TRUE(server.Listen(&error)) << error;

  bool server_ok = true;
  std::thread server_thread([&] { server_ok = server.Run(); });

  {
    RetryOptions retry;
    std::string connect_error;
    const int fd = ConnectWithRetry("127.0.0.1", server.port(), retry,
                                    nullptr, &connect_error);
    ASSERT_GE(fd, 0) << connect_error;
    Connection rogue(fd);
    // Say a valid-looking HELLO so the server counts us, then vanish.
    HandshakePayload payload;
    payload.worker_id = 0;
    payload.plan_hash = PlanHash(plan, codec->name());
    payload.codec = codec->name();
    util::ByteBuffer hello;
    EncodeHandshake(payload, /*rejoin=*/false, hello);
    ASSERT_TRUE(rogue.SendFrame(MsgType::kHello, 0, 0, hello.span()));
    ASSERT_EQ(rogue.FlushOutput(2000), Connection::IoResult::kOk);
    // Destructor closes the socket mid-handshake.
  }

  server_thread.join();
  EXPECT_FALSE(server_ok);
  EXPECT_FALSE(server.error().empty());
  EXPECT_EQ(server.steps_completed(), 0);
}

// Garbage bytes on the wire must surface as a frame error -> clean
// failure, never an OOM, crash, or hang.
TEST(RpcRuntime, CorruptedBytesFailServerCleanly) {
  TestSetup setup = MakeTestSetup(1, 1, compress::CodecConfig::Float32());
  nn::Model model =
      train::BuildMlp(setup.config.model, setup.config.model_seed);
  const ps::TensorPlan plan = ps::TensorPlan::FromParams(
      model.Params(), setup.config.trainer.min_compress_elems);
  auto codec = std::shared_ptr<const compress::Compressor>(
      compress::MakeCompressor(setup.config.trainer.codec));
  ps::ParameterServer ps(model, plan, codec, setup.config.trainer.optimizer);

  RpcServerConfig sc;
  sc.num_workers = 1;
  sc.total_steps = 1;
  sc.handshake_timeout_ms = 5000;
  RpcServer server(sc, ps, codec->name());
  std::string error;
  ASSERT_TRUE(server.Listen(&error)) << error;

  bool server_ok = true;
  std::thread server_thread([&] { server_ok = server.Run(); });

  {
    RetryOptions retry;
    std::string connect_error;
    const int fd = ConnectWithRetry("127.0.0.1", server.port(), retry,
                                    nullptr, &connect_error);
    ASSERT_GE(fd, 0) << connect_error;
    Connection rogue(fd);
    const char garbage[] = "GET /metricsz HTTP/1.1\r\n\r\n";
    ASSERT_GT(::send(rogue.fd(), garbage, sizeof(garbage) - 1, 0), 0);
    // Give the server's poll loop a moment to read + reject the bytes
    // before the socket closes, so the failure path exercised is the
    // parse error rather than the disconnect.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }

  server_thread.join();
  EXPECT_FALSE(server_ok);
  EXPECT_FALSE(server.error().empty());
}

// A worker built against a different plan/codec must be rejected at the
// handshake with an ERROR frame, before any payload is interpreted.
TEST(RpcRuntime, PlanHashMismatchRejectedAtHandshake) {
  TestSetup setup = MakeTestSetup(1, 1, compress::CodecConfig::Float32());
  nn::Model model =
      train::BuildMlp(setup.config.model, setup.config.model_seed);
  const ps::TensorPlan plan = ps::TensorPlan::FromParams(
      model.Params(), setup.config.trainer.min_compress_elems);
  auto codec = std::shared_ptr<const compress::Compressor>(
      compress::MakeCompressor(setup.config.trainer.codec));
  ps::ParameterServer ps(model, plan, codec, setup.config.trainer.optimizer);

  RpcServerConfig sc;
  sc.num_workers = 1;
  sc.total_steps = 1;
  sc.handshake_timeout_ms = 5000;
  RpcServer server(sc, ps, codec->name());
  std::string error;
  ASSERT_TRUE(server.Listen(&error)) << error;

  bool server_ok = true;
  std::thread server_thread([&] { server_ok = server.Run(); });

  RetryOptions retry;
  std::string connect_error;
  const int fd = ConnectWithRetry("127.0.0.1", server.port(), retry, nullptr,
                                  &connect_error);
  ASSERT_GE(fd, 0) << connect_error;
  Connection impostor(fd);
  HandshakePayload payload;
  payload.worker_id = 0;
  payload.plan_hash = 0xDEADBEEFu;  // not the server's plan hash
  payload.codec = codec->name();
  util::ByteBuffer hello;
  EncodeHandshake(payload, /*rejoin=*/false, hello);
  ASSERT_TRUE(impostor.SendFrame(MsgType::kHello, 0, 0, hello.span()));
  ASSERT_EQ(impostor.FlushOutput(2000), Connection::IoResult::kOk);

  Frame reply;
  const Connection::IoResult got = impostor.WaitFrame(&reply, 5000);
  if (got == Connection::IoResult::kOk) {
    EXPECT_EQ(reply.header.type, MsgType::kError);
  } else {
    // The server may have torn the connection down before the ERROR frame
    // was readable; a close is also an acceptable rejection.
    EXPECT_EQ(got, Connection::IoResult::kClosed);
  }
  impostor.Close();
  server_thread.join();
  EXPECT_FALSE(server_ok);
  EXPECT_NE(server.error().find("plan"), std::string::npos)
      << server.error();
}

// Every payload is validated to its last byte: a STEP_STATS frame with
// bytes after its loss is a protocol fault, like a PUSH or BYE with them.
TEST(RpcRuntime, StepStatsWithTrailingBytesFailsServer) {
  TestSetup setup = MakeTestSetup(1, 1, compress::CodecConfig::Float32());
  nn::Model model =
      train::BuildMlp(setup.config.model, setup.config.model_seed);
  const ps::TensorPlan plan = ps::TensorPlan::FromParams(
      model.Params(), setup.config.trainer.min_compress_elems);
  auto codec = std::shared_ptr<const compress::Compressor>(
      compress::MakeCompressor(setup.config.trainer.codec));
  ps::ParameterServer ps(model, plan, codec, setup.config.trainer.optimizer);

  RpcServerConfig sc;
  sc.num_workers = 1;
  sc.total_steps = 1;
  sc.handshake_timeout_ms = 5000;
  RpcServer server(sc, ps, codec->name());
  std::string error;
  ASSERT_TRUE(server.Listen(&error)) << error;
  bool server_ok = true;
  std::thread server_thread([&] { server_ok = server.Run(); });

  RetryOptions retry;
  std::string connect_error;
  const int fd = ConnectWithRetry("127.0.0.1", server.port(), retry, nullptr,
                                  &connect_error);
  ASSERT_GE(fd, 0) << connect_error;
  Connection rogue(fd);
  HandshakePayload payload;
  payload.worker_id = 0;
  payload.plan_hash = PlanHash(plan, codec->name());
  payload.codec = codec->name();
  util::ByteBuffer hello;
  EncodeHandshake(payload, /*rejoin=*/false, hello);
  ASSERT_TRUE(rogue.SendFrame(MsgType::kHello, 0, 0, hello.span()));
  util::ByteBuffer stats;
  stats.AppendF32(1.0f);
  stats.AppendU8(0);  // one byte past the loss
  ASSERT_TRUE(rogue.SendFrame(MsgType::kStepStats, 0, 0, stats.span()));
  ASSERT_EQ(rogue.FlushOutput(2000), Connection::IoResult::kOk);

  Frame reply;
  while (rogue.WaitFrame(&reply, 3000) == Connection::IoResult::kOk &&
         reply.header.type != MsgType::kError) {
  }
  server.RequestStop("no verdict on the STEP_STATS frame");
  server_thread.join();
  EXPECT_FALSE(server_ok);
  EXPECT_NE(server.error().find("malformed STEP_STATS"), std::string::npos)
      << server.error();
}

// The worker validates the frames it only logs, too: a short or padded
// EVICT payload fails the worker instead of being skipped.
TEST(RpcRuntime, MalformedEvictFailsWorker) {
  TestSetup setup = MakeTestSetup(1, 1, compress::CodecConfig::Float32());
  nn::Model model =
      train::BuildMlp(setup.config.model, setup.config.model_seed);
  const ps::TensorPlan plan = ps::TensorPlan::FromParams(
      model.Params(), setup.config.trainer.min_compress_elems);
  auto codec = std::shared_ptr<const compress::Compressor>(
      compress::MakeCompressor(setup.config.trainer.codec));

  for (const std::size_t evict_bytes : {2u, 5u}) {
    SCOPED_TRACE("EVICT payload bytes " + std::to_string(evict_bytes));
    // A scripted server: acknowledge the HELLO, answer the step's
    // STEP_STATS with the malformed EVICT, then an ERROR frame.
    TcpServer fake;
    std::string error;
    ASSERT_TRUE(fake.Listen("127.0.0.1", 0, &error)) << error;
    fake.on_frame = [&](Connection& conn, Frame&& frame) {
      if (frame.header.type == MsgType::kHello) {
        HandshakeAckPayload ack;
        ack.num_workers = 1;
        ack.total_steps = 1;
        ack.plan_hash = PlanHash(plan, codec->name());
        ack.epoch = 1;
        util::ByteBuffer bytes;
        EncodeHandshakeAck(ack, /*rejoin=*/false, bytes);
        conn.SendFrame(MsgType::kHelloAck, 0, 0, bytes.span());
      } else if (frame.header.type == MsgType::kStepStats) {
        const std::vector<std::uint8_t> evict(evict_bytes, 0);
        conn.SendFrame(MsgType::kEvict, 0, 0,
                       util::ByteSpan(evict.data(), evict.size()));
        const std::string done = "scripted server done";
        conn.SendFrame(MsgType::kError, 0, 0,
                       util::ByteSpan(reinterpret_cast<const std::uint8_t*>(
                                          done.data()),
                                      done.size()));
      }
    };
    std::atomic<bool> worker_done{false};
    std::thread server_thread([&] {
      while (!worker_done.load()) fake.Poll(20);
    });
    std::string worker_error;
    EXPECT_FALSE(RunOneWorker(setup, 0, fake.port(), &worker_error));
    worker_done.store(true);
    server_thread.join();
    EXPECT_NE(worker_error.find("malformed EVICT"), std::string::npos)
        << worker_error;
  }
}

// Worker side: a dead port exhausts its bounded retries and reports the
// connect failure; no server required.
TEST(RpcRuntime, WorkerFailsCleanlyAgainstDeadPort) {
  TestSetup setup = MakeTestSetup(1, 1, compress::CodecConfig::Float32());
  const train::TrainerConfig& tc = setup.config.trainer;
  nn::Model model =
      train::BuildMlp(setup.config.model, setup.config.model_seed);
  const ps::TensorPlan plan =
      ps::TensorPlan::FromParams(model.Params(), tc.min_compress_elems);
  auto codec = std::shared_ptr<const compress::Compressor>(
      compress::MakeCompressor(tc.codec));
  ps::Worker ps_worker(0, model, plan, codec);
  util::Rng seeder(tc.seed);
  util::Rng rng = seeder.Fork();
  data::Sampler sampler(setup.data.train, rng, tc.augment_noise);

  RpcWorkerConfig wc;
  wc.port = 1;  // reserved port, nothing listens
  wc.retry.max_attempts = 3;
  wc.retry.initial_backoff_ms = 1;
  wc.retry.max_backoff_ms = 2;
  RpcWorker worker(wc, ps_worker, plan, codec->name(), std::move(sampler));
  EXPECT_FALSE(worker.Run());
  EXPECT_FALSE(worker.error().empty());
  EXPECT_EQ(worker.steps_run(), 0);
}

}  // namespace
}  // namespace threelc::rpc
