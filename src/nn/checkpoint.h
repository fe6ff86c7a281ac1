// Model checkpointing: save/restore parameters and buffers to a binary
// file. The evaluation methodology reads snapshots of the global model on
// a dedicated node (paper §5.2); checkpoints are how such snapshots move
// between processes, and how long WAN training runs resume after failures.
//
// File format (little-endian):
//   magic "3LCK" | u32 version | u32 tensor_count
//   per tensor: u32 name_len | name bytes | u32 rank | i64 dims...
//               | f32 data...
//   version 3: training-state section after the tensors —
//              u64 next_step | u32 codec_state_len | codec state bytes
//              | u32 sampler_state_len | sampler state bytes
//   u32 CRC32C trailer over every byte after the version field
//   (tensor_count through the end of the body)
// Buffers (batch-norm running statistics) are stored after parameters
// under the synthetic names "__buffer_<i>".
//
// Version 2 carries the model alone; version 3 additionally carries the
// worker's mid-run training state — the codec's per-tensor
// error-accumulation buffers, the data-pipeline cursor, and the step
// counter — so a crashed worker restarts with a bitwise-identical
// trajectory instead of silently discarding accumulated quantization
// error. LoadCheckpoint accepts a v3 file (skipping the state section);
// LoadCheckpointState demands one. Any other version, including the
// trailer-less version 1, is refused.
//
// Server checkpoints use a distinct magic "3LCS" (same framing: version,
// CRC-protected body) and carry the parameter server's recurrence: model
// tensors, the incarnation epoch, the next collect step, the
// ParameterServer state blob (optimizer + prev_value + pull EA contexts),
// the membership/greeted tables, and the verbatim pull-replay ring. See
// ServerState below; rpc::RpcServer keeps its live replay ring in this
// same type, so a save serialises the ring in place and a resume moves
// it back.
//
// Compressed container (optional): when a save is handed a block codec
// other than "store" (blockcodec/block_codec.h), the complete "3LCK" /
// "3LCS" byte stream above becomes the payload of an outer container:
//   magic "3LCZ" | u32 container_version (2) | u8 codec_id
//   | u64 raw_size | u32 raw_crc32c | u32 comp_size | comp bytes
// Version 2 carries the compact rans table; any other version (1 had the
// 512-byte table) is rejected. A save whose compressed payload would not
// be smaller than the bare stream skips the container entirely.
//
// Read order: a load reads the file once; a "3LCZ" file is unwrapped
// first (rejecting unknown codec ids, truncation, trailing bytes, and any
// disagreement between raw_size/raw_crc32c and the decoded bytes — size
// and CRC are cross-checked independently). Then the magic and version
// are checked and the trailer CRC is verified over the whole body BEFORE
// any length field inside it is trusted; only then is the body parsed,
// through a bounds-checked util::ByteReader, so a lying length throws
// instead of allocating past the bytes present.
//
// All save paths write atomically (util::AtomicFileWriter: temp sibling +
// fsync + rename + parent-dir fsync), so a crash mid-write leaves either
// the previous complete checkpoint or the new one — never a torn file.
// Every save takes an optional util::Fs* syscall seam (nullptr = the real
// filesystem) so storage-fault drills can fail exactly one call; see
// util/fs.h. Loads read through plain streams — a corrupt file is the
// interesting failure there, and CheckpointManager (checkpoint_manager.h)
// layers generation fallback on top of these primitives.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/model.h"
#include "util/fs.h"

namespace threelc::nn {

// Everything beyond the model tensors a worker needs to resume mid-run
// exactly. The blobs are opaque here: codec_state is written/read by
// ps::Worker::{Save,Load}CodecState and sampler_state by
// data::Sampler::{Save,Load}State.
struct TrainState {
  std::uint64_t next_step = 0;  // first step the worker has NOT completed
  std::vector<std::uint8_t> codec_state;
  std::vector<std::uint8_t> sampler_state;
};

// Writes all parameters and buffers of `model` (format version 2).
// `block_codec` names the lossless block codec wrapping the file in the
// "3LCZ" container above ("store", the default, writes the bare stream).
// Throws std::runtime_error on I/O failure or an unknown codec name.
void SaveCheckpoint(Model& model, const std::string& path,
                    const std::string& block_codec = "store",
                    util::Fs* fs = nullptr);

// Restores a checkpoint written by SaveCheckpoint into an architecturally
// identical model, verifying the CRC32C trailer first. Throws
// std::runtime_error on I/O failure, format corruption, checksum mismatch,
// or architecture mismatch (name/shape disagreement). Accepts v3 files,
// validating but discarding the training-state section.
void LoadCheckpoint(Model& model, const std::string& path);

// Writes a version-3 checkpoint: model tensors plus `state`;
// `block_codec` as in SaveCheckpoint. Throws
// std::runtime_error on I/O failure or an unknown codec name.
void SaveCheckpointWithState(Model& model, const TrainState& state,
                             const std::string& path,
                             const std::string& block_codec = "store",
                             util::Fs* fs = nullptr);

// Restores a version-3 checkpoint into `model` and `*state`. Throws
// std::runtime_error if the file lacks a training-state section (version
// < 3) or on any LoadCheckpoint failure mode.
void LoadCheckpointState(Model& model, TrainState* state,
                         const std::string& path);

// Everything a parameter server needs to resume a run bitwise-exactly,
// beyond the model tensors. The blobs are opaque here: ps_state is
// written/read by ps::ParameterServer::{Save,Load}State; replay frames
// are retained wire bytes (rpc frames) stored and replayed verbatim.
struct ServerState {
  // Incarnation counter: the epoch this checkpoint was written under.
  // A server resuming from the checkpoint runs as epoch + 1.
  std::uint64_t epoch = 1;
  // The step the server will collect next (all steps below it are fully
  // applied to the model and ps_state).
  std::uint64_t next_step = 0;
  std::vector<std::uint8_t> ps_state;
  // Per-worker membership tables, indexed by worker id. evicted[w] != 0
  // marks a permanently removed worker; greeted[w] != 0 marks one that
  // completed a HELLO/REJOIN at some point (and must REJOIN, not HELLO,
  // against the resumed server). Both must have the same length.
  std::vector<std::uint8_t> evicted;
  std::vector<std::uint8_t> greeted;
  // Retained pull fan-out frames of recent steps, oldest first: each entry
  // is one completed step's per-tensor encoded frame bytes. This is the
  // server's live replay ring, not a copy of it.
  struct ReplayStep {
    std::uint64_t step = 0;
    std::vector<std::vector<std::uint8_t>> frames;
  };
  std::vector<ReplayStep> replay;
};

// Writes a server checkpoint ("3LCS", version 1, CRC32C trailer) —
// atomically, like every save here; `block_codec` as in SaveCheckpoint.
// Throws std::runtime_error on I/O failure or an unknown codec name.
void SaveServerCheckpoint(Model& model, const ServerState& state,
                          const std::string& path,
                          const std::string& block_codec = "store",
                          util::Fs* fs = nullptr);

// Restores a server checkpoint into `model` and `*state`. Throws
// std::runtime_error on I/O failure, bad magic/version, truncation, CRC
// mismatch, or architecture mismatch.
void LoadServerCheckpoint(Model& model, ServerState* state,
                          const std::string& path);

}  // namespace threelc::nn
