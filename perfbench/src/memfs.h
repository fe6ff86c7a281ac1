// In-memory util::Fs for the checkpoint workload.
//
// The server checkpoint path writes every byte through the util::Fs seam,
// so installing this filesystem measures checkpoint serialisation, CRC and
// the copy into file pages (what a tmpfs write costs) without touching the
// host's shared disk, whose latency swings by seconds between runs. File
// contents are kept, so the generation files are real and sized exactly;
// buffers of unlinked files are recycled so steady-state writes do not
// page-fault fresh memory each step, as a tmpfs page cache would not.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/fs.h"

namespace perfbench {

class MemFs : public threelc::util::Fs {
 public:
  MemFs() = default;
  MemFs(const MemFs&) = delete;
  MemFs& operator=(const MemFs&) = delete;

  int Open(const std::string& path, int flags, mode_t mode) override;
  ssize_t Write(int fd, const void* data, std::size_t n) override;
  int Fsync(int fd) override;
  int Close(int fd) override;
  int Rename(const std::string& from, const std::string& to) override;
  int Unlink(const std::string& path) override;
  bool List(const std::string& dir, std::vector<std::string>* names) override;

  // Contents of `path` (empty when it does not exist).
  std::vector<std::uint8_t> ReadFile(const std::string& path) const;

 private:
  using File = std::shared_ptr<std::vector<std::uint8_t>>;
  File Recycled();

  mutable std::mutex mu_;  // guards every member below
  std::map<std::string, File> files_;
  std::map<int, File> open_;  // fd -> file being written (null: directory)
  std::vector<File> free_;    // buffers of unlinked files, for reuse
  int next_fd_ = 1000;
};

}  // namespace perfbench
