#include "util/fs.h"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <sstream>

namespace threelc::util {

namespace {

class RealFs : public Fs {
 public:
  int Open(const std::string& path, int flags, mode_t mode) override {
    return ::open(path.c_str(), flags, mode);
  }
  ssize_t Write(int fd, const void* data, std::size_t n) override {
    return ::write(fd, data, n);
  }
  int Fsync(int fd) override { return ::fsync(fd); }
  int Close(int fd) override { return ::close(fd); }
  int Rename(const std::string& from, const std::string& to) override {
    return ::rename(from.c_str(), to.c_str());
  }
  int Unlink(const std::string& path) override {
    return ::unlink(path.c_str());
  }
  bool List(const std::string& dir, std::vector<std::string>* names) override {
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) return false;
    errno = 0;
    while (struct dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      names->push_back(name);
    }
    ::closedir(d);
    return true;
  }
};

template <typename Enum>
constexpr int Code(Enum value) {
  return static_cast<int>(value);
}

constexpr FaultToken kOps[] = {
    {"open", Code(FsOp::kOpen)},     {"write", Code(FsOp::kWrite)},
    {"fsync", Code(FsOp::kFsync)},   {"rename", Code(FsOp::kRename)},
    {"unlink", Code(FsOp::kUnlink)},
};

// short/fsyncfail/torn only make sense against one operation; pinning
// them turns a silent no-op drill into a spec error.
constexpr FaultActionToken kActions[] = {
    {.name = "enospc", .code = Code(FsFaultAction::kEnospc)},
    {.name = "eio", .code = Code(FsFaultAction::kEio)},
    {.name = "short", .code = Code(FsFaultAction::kShort),
     .pinned_target = Code(FsOp::kWrite)},
    {.name = "fsyncfail", .code = Code(FsFaultAction::kFsyncFail),
     .pinned_target = Code(FsOp::kFsync)},
    {.name = "torn", .code = Code(FsFaultAction::kTorn), .crashes = true,
     .pinned_target = Code(FsOp::kRename)},
};

}  // namespace

Fs* Fs::Real() {
  static RealFs real;
  return &real;
}

constexpr FaultGrammar kFsFaultGrammar = {
    .form = "ACTION:OP@CALL",
    .target_noun = "fs op",
    .index_noun = "call index",
    .pinned_error =
        "requires its own op (short:write, fsyncfail:fsync, torn:rename)",
    .actions = kActions,
    .targets = kOps,
};

FaultFs::FaultFs(Fs* base, std::uint64_t seed)
    : base_(base != nullptr ? base : Fs::Real()),
      rules_(kFsFaultGrammar, seed) {}

FsFaultAction FaultFs::Decide(FsOp op, const std::string& what) {
  const std::uint64_t call = calls_[Code(op)]++;
  const FaultRule* rule = rules_.Match(Code(op), call);
  if (rule == nullptr) return FsFaultAction::kNone;
  std::ostringstream line;
  line << rule->action->name << ' ' << FaultTokenName(kOps, Code(op))
       << " call=" << call << " path=" << what;
  rules_.Log(line.str());
  return static_cast<FsFaultAction>(rule->action->code);
}

int FaultFs::Open(const std::string& path, int flags, mode_t mode) {
  switch (Decide(FsOp::kOpen, path)) {
    case FsFaultAction::kEnospc: errno = ENOSPC; return -1;
    case FsFaultAction::kEio: errno = EIO; return -1;
    default: return base_->Open(path, flags, mode);
  }
}

ssize_t FaultFs::Write(int fd, const void* data, std::size_t n) {
  switch (Decide(FsOp::kWrite, "fd" + std::to_string(fd))) {
    case FsFaultAction::kEnospc: errno = ENOSPC; return -1;
    case FsFaultAction::kEio: errno = EIO; return -1;
    case FsFaultAction::kShort: {
      // Consume a seeded partial prefix (at least one byte, never the
      // whole buffer when more than one was asked for): the caller's
      // write loop must come back for the rest.
      if (n <= 1) return base_->Write(fd, data, n);
      const std::size_t partial =
          1 + static_cast<std::size_t>(rules_.rng().Below(n - 1));
      return base_->Write(fd, data, partial);
    }
    default: return base_->Write(fd, data, n);
  }
}

int FaultFs::Fsync(int fd) {
  switch (Decide(FsOp::kFsync, "fd" + std::to_string(fd))) {
    case FsFaultAction::kEnospc: errno = ENOSPC; return -1;
    case FsFaultAction::kEio:
    case FsFaultAction::kFsyncFail: errno = EIO; return -1;
    default: return base_->Fsync(fd);
  }
}

int FaultFs::Close(int fd) { return base_->Close(fd); }

int FaultFs::Rename(const std::string& from, const std::string& to) {
  switch (Decide(FsOp::kRename, from + " -> " + to)) {
    case FsFaultAction::kEnospc: errno = ENOSPC; return -1;
    case FsFaultAction::kEio: errno = EIO; return -1;
    case FsFaultAction::kTorn:
      // The caller sees success, but the target was never replaced and
      // the temp survives — the on-disk state a power loss between the
      // data fsync and the directory update would leave. The rule engine
      // has latched a crash request so the host dies here and recovery
      // runs against it.
      return 0;
    default: return base_->Rename(from, to);
  }
}

int FaultFs::Unlink(const std::string& path) {
  switch (Decide(FsOp::kUnlink, path)) {
    case FsFaultAction::kEnospc: errno = ENOSPC; return -1;
    case FsFaultAction::kEio: errno = EIO; return -1;
    default: return base_->Unlink(path);
  }
}

bool FaultFs::List(const std::string& dir, std::vector<std::string>* names) {
  return base_->List(dir, names);
}

int SweepStaleTemps(Fs& fs, const std::string& dir) {
  std::vector<std::string> names;
  if (!fs.List(dir, &names)) return 0;
  int removed = 0;
  for (const std::string& name : names) {
    const std::size_t tag = name.rfind(".tmp.");
    if (tag == std::string::npos) continue;
    pid_t pid = 0;
    if (!ParseDecimal(name.substr(tag + 5), &pid) || pid <= 0) continue;
    // kill(pid, 0) probes existence without signalling. Only ESRCH — no
    // such process — proves the writer is gone; EPERM means it exists
    // under another uid, and success means it is alive, so both keep
    // the temp file (a live writer's rename must find it).
    if (::kill(pid, 0) == 0 || errno != ESRCH) continue;
    if (fs.Unlink(dir + "/" + name) == 0) ++removed;
  }
  return removed;
}

}  // namespace threelc::util
