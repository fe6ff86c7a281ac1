// Generation-numbered server checkpoints with last-good fallback.
//
// One logical checkpoint path ("<dir>/dt_server.sckpt") fans out into
// generation files "<path>.g<N>" (N monotonically increasing, never
// reused within or across incarnations). Save() writes the next
// generation atomically and prunes the oldest beyond the retention
// bound; Load() verifies the newest generation (container/CRC checks in
// checkpoint.cc) and falls back to the previous good one when it is
// torn, truncated, or corrupt — ending at a clean "no usable checkpoint"
// error only when every generation is bad. A file at the bare path
// itself is not a generation and is never read.
//
// Why fallback is bitwise-safe: the server checkpoint is write-ahead —
// RpcServer::RunStep persists the post-step-s state (as generation g_s)
// BEFORE fanning out step s's pulls. A torn/corrupt g_s therefore means
// the crash hit before that fan-out, so no worker ever saw step s's
// result, and g_{s-1} — the previous retained generation — covers
// everything any worker observed. Resuming from it replays step s
// exactly (same contributions, same EA state), keeping the run bitwise
// identical. A fallback past more than one generation can only happen
// when disks corrupt data at rest; then workers may be ahead, and the
// server's existing worker-claims-future-step fatal check (REJOIN
// validation) catches it instead of silently diverging.
//
// The manager also owns directory hygiene: ScanAndSweep() removes stale
// "*.tmp.<pid>" siblings whose writer died mid-checkpoint (leaving live
// writers' temps alone — see util::SweepStaleTemps).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/checkpoint.h"
#include "util/fs.h"

namespace threelc::nn {

class CheckpointManager {
 public:
  struct Options {
    // Base checkpoint path; generations live at "<path>.g<N>" beside it.
    std::string path;
    // Generations kept on disk (minimum 1; 2 gives last-good fallback).
    int retain = 2;
    // Block codec for new generations (see checkpoint.h container docs).
    std::string block_codec = "store";
    // Syscall seam for the write path; nullptr = real filesystem.
    util::Fs* fs = nullptr;
  };

  explicit CheckpointManager(Options options);

  // Discover existing generations and sweep dead writers' temp files in
  // the checkpoint directory. Called lazily by Save/Load; call it
  // explicitly to get the sweep count. Idempotent.
  int ScanAndSweep();

  // Write the next generation atomically, then prune beyond retention.
  // Throws std::runtime_error on write failure; the generation number is
  // not consumed, so a retry overwrites the same temp sibling and lands
  // at the same "<path>.g<N>".
  void Save(Model& model, const ServerState& state);

  // Restore the newest usable generation into model/*state, falling back
  // generation by generation. Returns
  // false with *error set when nothing is usable; the number of skipped
  // generations is in fallbacks() and their reasons in fallback_log().
  bool Load(Model& model, ServerState* state, std::string* error);

  const std::string& path() const { return options_.path; }
  std::string GenerationPath(std::uint64_t gen) const;
  // Generations currently tracked on disk (after the last scan/save).
  int generation_count() const { return static_cast<int>(generations_.size()); }
  // Generation number the next Save() will write.
  std::uint64_t next_generation() const { return next_gen_; }
  // Bad generations skipped by the last Load (0 = newest was good).
  int fallbacks() const { return fallbacks_; }
  // The file the last successful Load read.
  const std::string& loaded_path() const { return loaded_path_; }
  // One line per skipped generation: "generation <N> unusable: <why>".
  const std::vector<std::string>& fallback_log() const { return fallback_log_; }

 private:
  Options options_;
  util::Fs& fs_;
  bool scanned_ = false;
  std::vector<std::uint64_t> generations_;  // sorted ascending
  std::uint64_t next_gen_ = 0;
  int fallbacks_ = 0;
  std::string loaded_path_;
  std::vector<std::string> fallback_log_;
};

}  // namespace threelc::nn
