#include "memfs.h"

#include <fcntl.h>

#include <cerrno>
#include <cstring>

namespace perfbench {
namespace {

std::string DirOf(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? "." : path.substr(0, slash);
}

}  // namespace

MemFs::File MemFs::Recycled() {
  if (free_.empty()) return std::make_shared<std::vector<std::uint8_t>>();
  File file = std::move(free_.back());
  free_.pop_back();
  file->clear();  // keeps capacity
  return file;
}

int MemFs::Open(const std::string& path, int flags, mode_t /*mode*/) {
  std::lock_guard<std::mutex> lock(mu_);
  const int fd = next_fd_++;
  if ((flags & O_DIRECTORY) != 0) {
    open_[fd] = nullptr;  // directory handle: only fsync/close apply
    return fd;
  }
  if ((flags & (O_WRONLY | O_RDWR)) == 0) {
    errno = EACCES;  // the checkpoint write path never reads through Fs
    return -1;
  }
  File& slot = files_[path];
  if (!slot || (flags & O_TRUNC) != 0) {
    if (slot) free_.push_back(std::move(slot));
    slot = Recycled();
  }
  open_[fd] = slot;
  return fd;
}

ssize_t MemFs::Write(int fd, const void* data, std::size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = open_.find(fd);
  if (it == open_.end() || !it->second) {
    errno = EBADF;
    return -1;
  }
  const auto* p = static_cast<const std::uint8_t*>(data);
  it->second->insert(it->second->end(), p, p + n);
  return static_cast<ssize_t>(n);
}

int MemFs::Fsync(int fd) {
  std::lock_guard<std::mutex> lock(mu_);
  if (open_.count(fd) == 0) {
    errno = EBADF;
    return -1;
  }
  return 0;
}

int MemFs::Close(int fd) {
  std::lock_guard<std::mutex> lock(mu_);
  if (open_.erase(fd) == 0) {
    errno = EBADF;
    return -1;
  }
  return 0;
}

int MemFs::Rename(const std::string& from, const std::string& to) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(from);
  if (it == files_.end()) {
    errno = ENOENT;
    return -1;
  }
  File moved = std::move(it->second);
  files_.erase(it);
  File& target = files_[to];
  if (target) free_.push_back(std::move(target));
  target = std::move(moved);
  return 0;
}

int MemFs::Unlink(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) {
    errno = ENOENT;
    return -1;
  }
  free_.push_back(std::move(it->second));
  files_.erase(it);
  return 0;
}

bool MemFs::List(const std::string& dir, std::vector<std::string>* names) {
  std::lock_guard<std::mutex> lock(mu_);
  names->clear();
  for (const auto& [path, file] : files_) {
    if (DirOf(path) == dir) names->push_back(path.substr(dir.size() + 1));
  }
  return true;
}

std::vector<std::uint8_t> MemFs::ReadFile(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  return it == files_.end() ? std::vector<std::uint8_t>{} : *it->second;
}

}  // namespace perfbench
