// Multi-process distributed runtime: the BSP step protocol of the paper's
// parameter-server architecture (Fig. 2) carried over real TCP sockets.
//
// Roles:
//  - RpcServer wraps an untouched ps::ParameterServer. It accepts N
//    workers, validates their handshake (worker id, tensor-plan hash,
//    codec id), then per step: collects every worker's per-tensor PUSH
//    frames, decodes + aggregates them in fixed worker order (bitwise
//    identical to the in-process DistributedTrainer), runs the optimizer,
//    encodes the shared pull deltas once, and fans the same frame bytes
//    out to every worker.
//  - RpcWorker wraps an untouched ps::Worker plus its local model and
//    sampler. Per step: forward/backward on a sampled batch, encode +
//    PUSH each tensor, send a STEP_STATS frame (training loss), then
//    block until the step's PULL frames arrive and apply them.
//
// Message flow (every box is one rpc::Frame):
//
//   worker                          server
//     | -- HELLO {id, plan#, codec} -> |   . handshake: validates plan
//     | <- HELLO_ACK {N, steps, plan#} |   ' hash + codec id, assigns id
//     |                                |
//     | -- PUSH t=0..T-1 {payload} --> |   .
//     | -- STEP_STATS {loss} --------> |   | repeated total_steps
//     |         (barrier: N workers)   |   | times; PULL is the
//     | <- PULL t=0..T-1 {payload} --- |   ' barrier release
//     |                                |
//     | -- BYE {BN buffers if id 0} -> |   . shutdown: worker 0 ships
//     | <- BYE_ACK ------------------- |   ' batch-norm running stats
//
// Lossy-codec state (error-accumulation buffers) lives exactly where it
// does in the simulated path: push contexts inside each worker process's
// ps::Worker, pull contexts inside the server's ps::ParameterServer.
//
// Fault model (strict, the default with grace_ms == 0): any disconnect,
// malformed frame, protocol violation, or deadline miss fails the run
// *cleanly* — logged, counted in rpc/* metrics, reported as a
// flight-recorder event through Telemetry, ERROR frames sent to surviving
// peers, every socket closed. No hangs: every blocking wait carries a
// timeout.
//
// Fault tolerance (grace_ms > 0): a worker disconnect no longer fails the
// run. The server discards the dead worker's partial contributions to the
// step being collected, keeps the step barrier open for the grace window,
// and accepts a REJOIN handshake (worker id + plan hash + codec + the
// first step the worker has not completed). Pull fan-out frames for the
// last `replay_steps` steps are retained verbatim, so a rejoiner is
// replayed exactly the shared bytes it missed; because every worker's
// training state is deterministic (checkpoint v3 carries the codec's
// error-accumulation buffers, the sampler cursor, and the step counter),
// the recomputed pushes are bitwise identical to the originals and the
// final model matches a fault-free run bit for bit. If the grace window
// expires the worker is evicted (EVICT broadcast to survivors), the
// aggregation rescales to the surviving worker set, and health flips to
// `degraded`. Every recovery action is counted: rpc/rejoins,
// rpc/evictions, rpc/replayed_frames on the server; rpc/reconnects on the
// worker; rpc/faults_injected wherever a FaultInjector is attached.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "nn/checkpoint.h"
#include "ps/plan.h"
#include "ps/server.h"
#include "ps/worker.h"
#include "rpc/transport.h"
#include "util/fs.h"
#include "util/timer.h"

namespace threelc::obs {
class Telemetry;
}

namespace threelc::nn {
class CheckpointManager;
}

namespace threelc::blockcodec {
class BlockCodec;
}

namespace threelc::rpc {

// Order-independent hash of the tensor plan + codec identity. Workers and
// server must agree on it before any payload is interpreted, so a worker
// built with a different model or codec fails at handshake, not with a
// garbage decode mid-run. (FNV-1a 64 over codec name and every entry's
// name, shape, and compressed flag.)
std::uint64_t PlanHash(const ps::TensorPlan& plan,
                       const std::string& codec_name);

struct RpcServerConfig {
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = ephemeral; port() reports the bound port
  int num_workers = 1;
  std::int64_t total_steps = 1;
  // Cosine-decay learning rate, matching TrainerConfig.
  float lr_max = 0.1f;
  float lr_min = 0.001f;
  int handshake_timeout_ms = 30000;
  // Max wall time for one step barrier (all pushes of a step).
  int step_timeout_ms = 60000;
  int shutdown_timeout_ms = 30000;
  // Fault tolerance. grace_ms > 0: after a worker disconnect, hold its
  // barrier slot open that long for a REJOIN before evicting it; 0 keeps
  // the strict fail-fast model. replay_steps bounds the per-step pull
  // replay buffer a rejoiner can be caught up from.
  int grace_ms = 0;
  int replay_steps = 8;
  // Liveness (protocol v6). lease_ms > 0: any frame from an identified
  // worker refreshes its lease; a worker silent past lease_ms is treated
  // as dead even though its socket is still open — how a SIGSTOP'd,
  // one-way-partitioned, or half-open worker is detected within
  // grace_ms + lease_ms instead of step_timeout_ms. Expiry routes through
  // the grace/evict machinery (grace_ms > 0) or fails the run (strict
  // mode). The server also broadcasts HEARTBEAT beacons every
  // heartbeat_ms (0 derives max(50, lease_ms / 4)) so workers can run
  // their own lease against it. Set lease_ms comfortably above the
  // longest worker compute+encode gap: a worker only beacons while
  // blocked on the server, not mid-compute. lease_ms == 0 disables both.
  int lease_ms = 0;
  int heartbeat_ms = 0;
  // Server crash recovery. A non-empty checkpoint_path enables the
  // write-ahead server checkpoint (nn::SaveServerCheckpoint: model +
  // aggregation/optimizer/EA state + replay ring + membership + epoch),
  // written atomically every checkpoint_every steps — after the step's
  // state is final but BEFORE its pulls are fanned out, so no worker can
  // ever have advanced past what a restarted server restored — plus once
  // at Run() start (persisting the incarnation epoch) and at clean
  // shutdown. With checkpoint_every > 1, a crash between cadence points
  // restores an older step and rejoining workers that got further are
  // rejected (documented clean failure, never silent divergence).
  std::string checkpoint_path;
  int checkpoint_every = 1;
  // Generations of the server checkpoint kept on disk
  // ("<checkpoint_path>.g<N>", see nn/checkpoint_manager.h). 2 gives
  // last-good fallback when the newest generation is torn or corrupt.
  int checkpoint_retain = 2;
  // Syscall seam for checkpoint writes (util/fs.h); nullptr = the real
  // filesystem. Chaos drills install a FaultFs here. Not owned.
  util::Fs* fs = nullptr;
  // Chaos testing: after completing this step (its checkpoint already on
  // disk), drop every socket abruptly — no ERROR broadcast, no flush —
  // and return from Run with simulated_exit() true. -1 disables.
  std::int64_t exit_after_step = -1;
  // Graceful stop (e.g. set by a SIGTERM handler): polled by the event
  // loop; when it flips true the server writes a forced checkpoint,
  // notifies workers, closes cleanly, and returns with interrupted()
  // true. Not owned; may be nullptr.
  const std::atomic<bool>* stop_flag = nullptr;
  // Injected into every accepted connection (chaos testing); not owned. A
  // "killserver:pull@K" rule crashes the server between step K's
  // checkpoint write and its fan-out (see rpc/fault.h).
  FaultInjector* fault = nullptr;
  // Optional; adds rpc metrics, per-step JSONL records, handshake /
  // step-barrier spans (track 0), and flight-recorder error events.
  obs::Telemetry* telemetry = nullptr;
  // Second-stage lossless block codec (blockcodec::KnownNames()) applied
  // to every PUSH/PULL payload after the tensor codec. Both sides must
  // configure the same codec; the negotiated id rides in every handshake
  // (protocol v5) and a mismatch fails the handshake. "store" keeps the
  // payload bytes identical to protocol v4 (no envelope).
  std::string block_codec = "store";
};

class RpcServer {
 public:
  // `ps` must outlive the server. `codec_name` is the handshake codec id
  // (Compressor::name()).
  RpcServer(RpcServerConfig config, ps::ParameterServer& ps,
            std::string codec_name);
  ~RpcServer();  // out of line: ckpt_ is incomplete here

  // Bind the configured host:port. Alternatively adopt a listener created
  // before fork (so children learn an ephemeral port from the parent).
  bool Listen(std::string* error);
  void AdoptListener(int listen_fd, int port);
  int port() const { return tcp_.port(); }

  // Restore a previous incarnation's checkpoint: model tensors, the
  // parameter server's recurrence (optimizer + prev_value + pull EA
  // contexts), the step counter, the membership/greeted tables, and the
  // verbatim pull-replay ring. This incarnation runs as the stored epoch
  // + 1; previously-greeted workers enter the grace window at Run() start
  // and must REJOIN (their stored pushes + the restored ring make the
  // continuation bitwise-identical to a fault-free run). Call before Run,
  // with grace_ms > 0. Returns false with *error on a missing, torn
  // (CRC-failing), or plan-mismatched checkpoint.
  bool ResumeFromCheckpoint(const std::string& path, std::string* error);

  // Handshake + total_steps BSP rounds + shutdown. Returns true on a
  // clean run; false after any fault, with error() describing it.
  bool Run();

  const std::string& error() const { return error_; }
  std::int64_t steps_completed() const { return steps_completed_; }
  const TransportMetrics& metrics() const { return metrics_; }
  std::size_t evictions() const { return evictions_; }
  std::size_t rejoins() const { return rejoins_; }
  std::size_t lease_expiries() const { return lease_expiries_; }
  std::size_t replayed_frames() const { return replayed_frames_; }
  // Server incarnation: 1 for a fresh run, stored epoch + 1 after
  // ResumeFromCheckpoint. Carried in every handshake (protocol v3).
  std::uint64_t epoch() const { return epoch_; }
  bool resumed() const { return resumed_; }
  // Storage health: failed checkpoint write attempts this incarnation,
  // and bad generations skipped by ResumeFromCheckpoint's last-good
  // fallback (0 = the newest generation was usable).
  std::size_t checkpoint_write_failures() const { return ckpt_write_failures_; }
  std::size_t checkpoint_fallbacks() const { return ckpt_fallbacks_; }
  // True when Run returned false because exit_after_step (or an injected
  // killserver fault) fired — an intentional simulated crash, not a fault.
  bool simulated_exit() const { return simulated_exit_; }
  // True when Run returned false because config_.stop_flag flipped — a
  // graceful, checkpointed stop, not a fault.
  bool interrupted() const { return interrupted_; }

  // Thread-safe: ask the (single-threaded) poll loop to fail the run at
  // its next iteration. Used by process supervisors (e.g. the example's
  // child reaper) when an external fault makes completion impossible.
  void RequestStop(const std::string& reason);

 private:
  struct Peer {
    int worker_id = -1;  // -1 until HELLO/REJOIN validates
    bool said_bye = false;
  };

  // Per-worker membership. kWaiting = disconnected, inside the grace
  // window, barrier held open; kEvicted = permanently out, aggregation
  // rescaled to the survivors.
  enum class Member { kActive, kWaiting, kEvicted };

  void OnFrame(Connection& conn, Frame&& frame);
  void OnDisconnect(Connection& conn, const std::string& reason);
  void HandleHello(Connection& conn, const Frame& frame);
  void HandleRejoin(Connection& conn, const Frame& frame);
  // The join checks HELLO and REJOIN share (identity, id range, plan hash,
  // codec, block codec); Fails the run and returns false on a mismatch.
  bool CheckJoinIdentity(Connection& conn, const Frame& frame,
                         HandshakePayload* claim);
  // Bind worker w to conn and send the HELLO_ACK / REJOIN_ACK.
  bool AdmitWorker(Connection& conn, std::size_t w, MsgType ack_type);
  // Poll until `done` returns true. False on fault or deadline. Also
  // drives grace-window expiry (evictions) between poll slices.
  bool PollUntil(const std::function<bool()>& done, int timeout_ms,
                 const char* phase);
  void Fail(const std::string& message);
  void BroadcastError(const std::string& message);
  // Reset per-step collection state so OnFrame accepts `step`'s pushes
  // (workers may push step s+1 the moment their step-s pulls land, so this
  // runs before the server blocks waiting for them).
  void BeginCollect(std::int64_t step);
  bool RunStep(std::int64_t step, float lr);
  bool ApplyWorkerBuffers();

  // Liveness plumbing (lease_ms > 0). StampLiveness records a frame —
  // any type — from worker w; CheckLeases sweeps for workers silent past
  // the lease and routes them through LoseWorker; SendHeartbeats
  // broadcasts the server's beacon on the heartbeat cadence. All driven
  // from PollUntil's slice loop.
  void StampLiveness(std::size_t w);
  void CheckLeases();
  void SendHeartbeats();

  // Fault-tolerance plumbing. LoseWorker is the one worker-loss policy:
  // grace mode holds worker w's barrier slot open for a REJOIN (w < 0, a
  // connection holding no slot, is only logged); strict mode Fails.
  void LoseWorker(int w, const std::string& why);
  void MarkWorkerDead(std::size_t w, const std::string& reason);
  // Forget worker w's contributions to the step being collected.
  void ResetContribution(std::size_t w);
  void EvictExpired();               // grace-window sweep
  void Evict(std::size_t w, const std::string& reason);
  void RecomputePending();           // barrier countdown from scratch
  std::size_t ActiveWorkers() const;
  std::size_t WaitingWorkers() const;
  bool BarrierDone() const;
  void RecordMembershipEvent(const std::string& message, bool error);
  // Stamp worker w's barrier arrival (collect-clock ms) once its last
  // frame of the current step landed; feeds straggler attribution.
  void StampBarrierArrival(std::size_t w);

  // Server-recovery plumbing. WriteCheckpoint persists the current state
  // under `next_step` when the cadence (or `force`) says so, writing the
  // next checkpoint generation through the CheckpointManager. An I/O
  // error is retried (twice, linear backoff), then training continues
  // DEGRADED on the last intact generation — recovery is at risk but the
  // run is not aborted — so the return value is only false when a crash
  // latch fired, never on write failure.
  // SimulatedCrash drops every socket with no goodbye. GracefulStop is
  // the stop_flag path: forced checkpoint, ERROR notice to workers,
  // interrupted() true.
  bool WriteCheckpoint(std::int64_t next_step, bool force);
  // Lazily build ckpt_ for config_.checkpoint_path (first call scans the
  // checkpoint directory and sweeps dead writers' temp files).
  nn::CheckpointManager& Checkpointer();
  // Degrade/restore the checkpoint-health latch (ckpt_degraded_) and its
  // /healthz + cluster-view reflection.
  void NoteCheckpointFailure(const std::string& why);
  void NoteCheckpointSuccess(double write_ms);
  // Refresh the ckpt/generations gauge and the /clusterz storage section.
  void PublishStorageHealth();
  void SimulatedCrash(const std::string& why);
  void GracefulStop(const std::string& reason);
  // After a successful rejoin: clear the degraded re-assembly state once
  // every surviving worker is back.
  void MaybeReassembled();

  RpcServerConfig config_;
  ps::ParameterServer* ps_;
  std::string codec_name_;
  std::uint64_t plan_hash_;
  // Resolved from config_.block_codec at construction; never null.
  const blockcodec::BlockCodec* block_codec_;
  TransportMetrics metrics_;
  TcpServer tcp_;
  std::map<Connection*, Peer> peers_;
  std::vector<Connection*> worker_conns_;  // by worker id once handshaken

  // Current-step collection state. push_payloads_ holds first-stage
  // (block-envelope-decoded) bytes; push_wire_bytes_ the as-received wire
  // sizes, so RunStep can report stage-1 and end-to-end traffic apart.
  std::int64_t current_step_ = -1;
  std::vector<std::vector<util::ByteBuffer>> push_payloads_;  // [w][t]
  std::vector<std::uint64_t> push_wire_bytes_;                // [w]
  std::vector<std::vector<bool>> push_seen_;                  // [w][t]
  std::vector<double> step_losses_;                           // [w]
  std::vector<bool> stats_seen_;                              // [w]
  std::size_t frames_pending_ = 0;  // barrier countdown
  // Straggler attribution: per-worker arrival instant (ms on the
  // collect clock, -1 = not yet complete) of the current step's last
  // contribution frame. Reset by BeginCollect.
  std::vector<double> barrier_arrival_ms_;
  util::WallTimer collect_timer_;

  // Membership + rejoin state.
  std::vector<Member> member_state_;
  // Disconnect instants, meaningful only while kWaiting.
  std::vector<std::chrono::steady_clock::time_point> dead_since_;
  std::vector<bool> greeted_;  // ever completed HELLO or REJOIN
  // The checkpoint's own state type. recovery_.replay is the pull-replay
  // ring: each completed step's per-tensor encoded frames, oldest first,
  // bounded to config_.replay_steps. Fan-out, rejoin replay and
  // WriteCheckpoint read it in place; WriteCheckpoint refreshes the other
  // fields before each save, and ResumeFromCheckpoint moves a loaded state
  // in.
  nn::ServerState recovery_;
  std::size_t rejoins_ = 0;
  std::size_t evictions_ = 0;
  std::size_t replayed_frames_ = 0;

  // Liveness state (lease_ms > 0): the last-frame instant per worker
  // (meaningful while kActive) and the server's own beacon clock.
  std::vector<std::chrono::steady_clock::time_point> last_rx_;
  std::chrono::steady_clock::time_point last_heartbeat_tx_;
  std::uint64_t heartbeat_seq_ = 0;
  std::size_t lease_expiries_ = 0;

  std::size_t handshakes_ = 0;
  std::size_t byes_ = 0;
  std::vector<util::ByteBuffer> bye_blobs_;  // per-worker BYE payloads
  bool failed_ = false;
  std::string error_;
  std::int64_t steps_completed_ = 0;

  // Server-recovery state.
  std::uint64_t epoch_ = 1;
  bool resumed_ = false;
  std::int64_t resume_step_ = 0;  // first step this incarnation collects
  bool simulated_exit_ = false;
  bool interrupted_ = false;

  // Storage-health state. ckpt_ owns the generation files under
  // config_.checkpoint_path; ckpt_degraded_ latches "writes are failing,
  // recovery at risk" so /healthz degradation from storage is not
  // cleared by unrelated recoveries (e.g. a rejoin completing).
  std::unique_ptr<nn::CheckpointManager> ckpt_;
  bool ckpt_degraded_ = false;
  std::size_t ckpt_writes_ = 0;
  std::size_t ckpt_write_failures_ = 0;
  std::size_t ckpt_fallbacks_ = 0;
  double last_ckpt_write_ms_ = 0.0;

  std::atomic<bool> stop_requested_{false};
  std::mutex stop_mutex_;
  std::string stop_reason_;
};

struct RpcWorkerConfig {
  std::string host = "127.0.0.1";
  int port = 0;
  int worker_id = 0;
  std::int64_t batch_size = 32;
  RetryOptions retry;
  int handshake_timeout_ms = 30000;
  // Max wall time waiting for one step's pulls (covers the other workers'
  // compute plus the server's aggregate/optimize/encode).
  int pull_timeout_ms = 120000;
  int io_timeout_ms = 30000;
  // Fault tolerance / recovery.
  //
  // start_step is the first step this worker has NOT yet applied; with
  // rejoin=true the initial handshake is REJOIN instead of HELLO, which is
  // how a process restarted from a checkpoint v3 (model + EA buffers +
  // sampler cursor + step counter) re-enters a live run.
  std::int64_t start_step = 0;
  bool rejoin = false;
  // How many times a lost connection may be re-established mid-run before
  // the worker gives up (0 keeps the strict fail-fast model).
  int max_reconnects = 0;
  // Liveness (protocol v6). lease_ms > 0: while blocked on the server
  // (pull wait, handshake, replay) the worker sends HEARTBEAT beacons
  // every heartbeat_ms (0 derives max(50, lease_ms / 4)) and requires
  // some frame — heartbeat or data — from the server within lease_ms.
  // Expiry closes the connection and surfaces as a soft failure feeding
  // the max_reconnects budget, so a hung or rx-partitioned server costs
  // lease_ms + backoff instead of the full pull_timeout_ms. 0 disables.
  int lease_ms = 0;
  int heartbeat_ms = 0;
  // Resume checkpoint v3 (model + EA buffers + sampler cursor + step
  // counter), written on a simulated crash or a graceful stop when set.
  std::string checkpoint_path;
  // Chaos testing: after completing this step, write checkpoint_path,
  // close the socket abruptly (no BYE), and return from Run with
  // simulated_exit() true. -1 disables.
  std::int64_t exit_after_step = -1;
  // Graceful stop (e.g. set by a SIGTERM handler): polled between steps;
  // when it flips true the worker writes checkpoint_path, closes, and
  // returns from Run with interrupted() true — restartable exactly where
  // it left off. Not owned; may be nullptr.
  const std::atomic<bool>* stop_flag = nullptr;
  // Injected into every connection this worker makes; not owned.
  FaultInjector* fault = nullptr;
  obs::Telemetry* telemetry = nullptr;  // optional rpc metrics + spans
  // Second-stage block codec; must match the server's (see
  // RpcServerConfig::block_codec).
  std::string block_codec = "store";
};

class RpcWorker {
 public:
  // `worker` (and the model it wraps) and `plan` must outlive this.
  // The sampler must be seeded exactly as DistributedTrainer seeds worker
  // `worker_id`'s sampler for bitwise-identical runs.
  RpcWorker(RpcWorkerConfig config, ps::Worker& worker,
            const ps::TensorPlan& plan, std::string codec_name,
            data::Sampler sampler);

  // Connect (with retry/backoff), handshake, run every step, shut down.
  // Returns false on any fault, with error() describing it.
  bool Run();

  const std::string& error() const { return error_; }
  std::int64_t steps_run() const { return steps_run_; }
  // Populated from HELLO_ACK / REJOIN_ACK.
  int num_workers() const { return num_workers_; }
  std::int64_t total_steps() const { return total_steps_; }
  const TransportMetrics& metrics() const { return metrics_; }
  std::size_t reconnects() const { return reconnects_; }
  // True when Run returned false because exit_after_step fired — an
  // intentional simulated crash, not a fault.
  bool simulated_exit() const { return simulated_exit_; }
  // True when Run returned false because config_.stop_flag flipped — a
  // graceful, checkpointed stop, not a fault.
  bool interrupted() const { return interrupted_; }
  // The server incarnation from the last HELLO_ACK / REJOIN_ACK (0 before
  // any handshake). An epoch bump mid-run means the server restarted from
  // its checkpoint and this worker re-handshook against it.
  std::uint64_t server_epoch() const { return server_epoch_; }

 private:
  // kRetry = the connection died without a protocol violation; the step can
  // be resumed on a fresh connection via REJOIN.
  enum class StepStatus { kOk, kRetry, kFailed };

  // Establish (or re-establish) conn_ and handshake. rejoin_mode sends
  // REJOIN + replays missed pulls instead of HELLO. Returns false with
  // failed_ unset on a soft failure (connection died again mid-replay).
  bool Connect(bool rejoin_mode);
  bool Reconnect();
  // HELLO or REJOIN handshake; *collect_step gets a REJOIN_ACK's step.
  bool Join(Connection& conn, bool rejoin, std::int64_t* collect_step);
  // Catch up to the server's collect step by recomputing each missed step
  // locally and applying the replayed pull bytes.
  StepStatus ReplayTo(std::int64_t collect_step);
  // Collect all of `step`'s PULLs before applying any (a connection lost
  // mid-collect leaves the model untouched and the step resumable), then
  // apply them; wait/decode times and byte counts go to `record`.
  StepStatus ReceivePulls(std::int64_t step, TelemetryPayload& record);
  // Forward/backward + encode every push into pending_push_, advancing the
  // codec's EA buffers and the sampler exactly once per step.
  void ComputeStep(std::int64_t step);
  // WaitFrame that skips EVICT broadcasts (membership news about other
  // workers) and HEARTBEAT beacons (they refresh the lease and are
  // dropped). With config_.lease_ms > 0 the wait is sliced: beacons go
  // out on the cadence and lease_ms of total server silence ends the
  // wait early (connection closed, kClosed returned).
  Connection::IoResult WaitDataFrame(Connection& conn, Frame* frame,
                                     int timeout_ms);
  // Unwrap the negotiated block envelope in place (no-op for store).
  // Returns false after Fail() on a malformed envelope.
  bool UnwrapPull(std::size_t t, util::ByteBuffer& payload);
  StepStatus RunStep(std::int64_t step);
  void SimulateCrash(std::int64_t step);
  // Writes config_.checkpoint_path for SimulateCrash and GracefulStop.
  void WriteResumeCheckpoint();
  void GracefulStop();
  bool SayBye(Connection& conn);
  bool Fail(const std::string& message);

  RpcWorkerConfig config_;
  ps::Worker* worker_;
  const ps::TensorPlan* plan_;
  std::string codec_name_;
  // Resolved from config_.block_codec at construction; never null.
  const blockcodec::BlockCodec* block_codec_;
  data::Sampler sampler_;
  TransportMetrics metrics_;
  std::unique_ptr<Connection> conn_;
  int num_workers_ = 0;
  std::int64_t total_steps_ = 0;
  std::int64_t steps_run_ = 0;

  // Step state machine. next_apply_ = first step whose pulls have not been
  // applied; computed_through_ = last step forward/backward + encode ran.
  // pending_push_ holds computed_through_'s encoded push payloads so a
  // resend after reconnect ships bitwise-identical bytes (re-encoding
  // would advance the EA buffers twice).
  std::int64_t next_apply_ = 0;
  std::int64_t computed_through_ = -1;
  std::vector<util::ByteBuffer> pending_push_;
  float pending_loss_ = 0.0f;
  // Per-step telemetry record under assembly: ComputeStep fills the
  // compute/encode half, RunStep the transport half, then ships it as one
  // best-effort TELEMETRY frame after the step's pulls are applied.
  TelemetryPayload pending_telemetry_;

  std::size_t reconnects_ = 0;
  std::uint64_t heartbeat_seq_ = 0;
  bool simulated_exit_ = false;
  bool interrupted_ = false;
  std::uint64_t server_epoch_ = 0;
  bool failed_ = false;
  std::string error_;
};

}  // namespace threelc::rpc
