// Injectable filesystem seam for the durable-write path.
//
// Every syscall AtomicFileWriter (and through it every checkpoint save)
// makes goes through a Fs*, so tests and chaos drills can interpose a
// deterministic FaultFs that fails exactly the call they aim at: ENOSPC
// on the third write, a failing fsync, a rename that "succeeds" without
// happening (the torn-write crash point: temp left behind, target
// untouched). Production code passes nullptr and gets Fs::Real(), a
// stateless singleton that forwards to the libc calls 1:1 — the seam
// costs one virtual dispatch per syscall on a path that is already
// dominated by the disk.
//
// FaultFs rules use the spec grammar of util/fault_rules.h, with a
// syscall's (operation, per-op call index) as the TARGET and INDEX:
//
//   ACTION:OP@CALL[#OCCURRENCE]
//
//   ACTION  enospc | eio | short | fsyncfail | torn
//           (short, fsyncfail and torn are pinned to write, fsync and
//           rename respectively)
//   OP      open | write | fsync | rename | unlink | any
//
// Examples: "enospc:write@any#*" (every write fails ENOSPC — a full
// disk), "eio:fsync@2" (the third fsync fails EIO), "short:write@0"
// (the first write consumes only part of its buffer — exercises the
// caller's retry loop), "torn:rename@1" (the second rename is swallowed:
// the temp file stays, the target is never replaced, and the injector
// latches a crash request so the host process can die at exactly the
// point a power loss would have torn the checkpoint).
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/fault_rules.h"

namespace threelc::util {

// Thin virtual wrapper over the POSIX file syscalls the atomic-write path
// needs. All methods mirror the libc contract: fds and byte counts on
// success, -1 with errno set on failure.
class Fs {
 public:
  virtual ~Fs() = default;

  virtual int Open(const std::string& path, int flags, mode_t mode) = 0;
  virtual ssize_t Write(int fd, const void* data, std::size_t n) = 0;
  virtual int Fsync(int fd) = 0;
  virtual int Close(int fd) = 0;
  virtual int Rename(const std::string& from, const std::string& to) = 0;
  virtual int Unlink(const std::string& path) = 0;
  // Names (not paths) of the entries in `dir`, excluding "." and "..".
  // Returns false with errno set when the directory cannot be read.
  virtual bool List(const std::string& dir, std::vector<std::string>* names) = 0;

  // A torn-rename fault latches a crash request: the injected process is
  // supposed to die here, as a power loss would have. Check-and-clear so
  // a restarted server (same process in spawn mode's supervisor, same
  // FaultFs instance) does not crash again on its next write. The real
  // filesystem never requests a crash.
  virtual bool TakeCrashRequest() { return false; }

  // The passthrough singleton (forwards to open/write/fsync/...).
  static Fs* Real();
};

// Resolve an optional injected Fs: nullptr means the real filesystem.
inline Fs& ResolveFs(Fs* fs) { return fs ? *fs : *Fs::Real(); }

enum class FsFaultAction : std::uint8_t {
  kNone = 0,
  kEnospc,     // fail the call with ENOSPC (disk full)
  kEio,        // fail the call with EIO (media error)
  kShort,      // write only: consume part of the buffer, return the count
  kFsyncFail,  // fsync only: fail with EIO *after* the data reached the
               // kernel — models a dying disk acking writes it later loses
  kTorn,       // rename only: report success without renaming; the temp
               // file survives, the target is untouched, and a crash
               // request is latched (the torn-write power-loss point)
};

enum class FsOp : std::uint8_t { kOpen = 0, kWrite, kFsync, kRename, kUnlink };
inline constexpr int kFsOpCount = 5;

// FaultFs's token tables.
extern const FaultGrammar kFsFaultGrammar;

// Deterministic fault-injecting Fs decorator, replayable from its seed
// like the rpc injector, with a schedule log to assert on. One instance
// per process; per-op call counters are not thread-safe by design (the
// checkpoint path is single-threaded).
class FaultFs : public Fs {
 public:
  explicit FaultFs(Fs* base = nullptr, std::uint64_t seed = 0);

  // Append the rules of a spec (see file comment). Returns false with
  // *error set on malformed input, adding none of them.
  bool AddRulesFromSpec(const std::string& spec, std::string* error) {
    return rules_.AddFromSpec(spec, error);
  }

  int Open(const std::string& path, int flags, mode_t mode) override;
  ssize_t Write(int fd, const void* data, std::size_t n) override;
  int Fsync(int fd) override;
  int Close(int fd) override;
  int Rename(const std::string& from, const std::string& to) override;
  int Unlink(const std::string& path) override;
  bool List(const std::string& dir, std::vector<std::string>* names) override;

  bool TakeCrashRequest() override { return rules_.TakeCrashRequest(); }

  // Faults actually injected (calls that did not pass through cleanly).
  std::size_t faults_injected() const { return rules_.faults_injected(); }
  // Calls seen per operation, fault-injected or not (test observability).
  std::uint64_t calls(FsOp op) const {
    return calls_[static_cast<int>(op)];
  }
  // One line per injected fault: "<action> <op> call=<n> path=<p>".
  const std::vector<std::string>& schedule_log() const {
    return rules_.schedule_log();
  }

 private:
  // The verdict for one call of `op` (also advances that op's counter).
  FsFaultAction Decide(FsOp op, const std::string& what);

  Fs* base_;
  FaultRules rules_;
  std::uint64_t calls_[kFsOpCount] = {0, 0, 0, 0, 0};
};

// Remove stale atomic-write temp files ("<name>.tmp.<pid>") in `dir`
// whose owning pid is gone (kill(pid, 0) => ESRCH). Temps belonging to
// live processes — including this one — are left alone, so a concurrent
// writer is never clobbered. Returns the number of files removed.
// Best-effort: unreadable directories or racing unlinks are not errors.
int SweepStaleTemps(Fs& fs, const std::string& dir);

}  // namespace threelc::util
