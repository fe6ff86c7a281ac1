// Workloads and the TCP training episode the benchmark times.
//
// An episode is one complete training run through the real runtime in
// this process: an rpc::RpcServer thread plus kWorkers rpc::RpcWorker
// threads over loopback, optionally through the shaped-link relay. Every
// episode of a run starts from the same seed-derived inputs, so each must
// end in the same model, bitwise equal to the in-process
// train::DistributedTrainer reference (the repository's master oracle).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "compress/factory.h"
#include "nn/model.h"
#include "obs/telemetry.h"
#include "relay.h"
#include "train/experiment.h"
#include "train/trainer.h"

namespace perfbench {

namespace tl = threelc;

// Sized for a 4-core host: three worker threads plus the server thread.
constexpr int kWorkers = 3;
constexpr std::int64_t kBatch = 4;  // per worker

struct Workload {
  std::string name;
  tl::compress::CodecConfig codec;
  std::string block_codec;  // second stage on every PUSH/PULL payload
  bool checkpoint;          // write-ahead server checkpoint every step
  bool relay;               // route each worker through the relay
  double link_bps;          // relay rate per link and direction; 0 unpaced
  std::int64_t episode_steps;
};

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);

// Model, data and trainer configuration for `workload`. The dataset and
// initial weights are fixed (DefaultExperiment's seeds); `seed` sets the
// training stream: each worker's batch order and augmentation noise.
tl::train::ExperimentConfig MakeConfig(const Workload& workload,
                                       std::uint64_t seed);

// Where the in-memory checkpoint filesystem places server generations.
inline constexpr char kCheckpointPath[] = "/perfbench-memfs/ckpt/server.sckpt";

struct EpisodeResult {
  bool ok = false;
  std::string error;
  double setup_s = 0.0;  // inputs, models, plans, codec contexts, listen
  double run_s = 0.0;    // first connect to last worker exit
  std::int64_t steps_completed = 0;
  std::vector<std::uint8_t> model_bytes;  // final global model, serialised
  std::vector<LinkCount> link_counts;     // relay workloads only
  double link_busy_s = 0.0;  // mean over links of paced transfer seconds
  double server_wire_bytes = 0.0;  // rpc/wire_bytes, traced episodes only
  double peak_rss_mb = 0.0;        // isolated episodes only
};

// One episode in this process; `telemetry` (optional) receives the
// server's metrics and step log.
EpisodeResult RunEpisode(const Workload& workload,
                         const tl::train::ExperimentConfig& config,
                         tl::obs::Telemetry* telemetry = nullptr);

// RunEpisode in a forked child process, so every episode starts from a
// fresh heap: its time and peak memory do not drift with fragmentation
// left by earlier episodes, and peak_rss_mb is the episode's own. With a
// non-empty `step_log_path` the server writes its telemetry step log there
// and server_wire_bytes is filled. Call only while this process runs no
// other threads.
EpisodeResult RunEpisodeIsolated(const Workload& workload,
                                 const tl::train::ExperimentConfig& config,
                                 const std::string& step_log_path);

// The in-process reference for the same configuration.
struct Reference {
  tl::train::TrainResult result;
  std::unique_ptr<tl::nn::Model> model;
  std::vector<std::uint8_t> model_bytes;
  tl::data::SyntheticData data;
};
Reference RunReference(const tl::train::ExperimentConfig& config);

// Every parameter and buffer, in order, as raw bytes (bitwise comparison).
std::vector<std::uint8_t> SerializeModel(tl::nn::Model& model);
bool AllFinite(tl::nn::Model& model);
// Mean cross-entropy on the first 256 held-out test examples.
double HeldOutLoss(tl::nn::Model& model, const tl::data::Dataset& test);

}  // namespace perfbench
