#include "relay.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>

#include "rpc/transport.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Bytes read ahead of the pacer per direction. Larger than one step's
// traffic on a shaped link, so a sender never blocks on the relay; the
// link, not the buffer, sets the pace.
constexpr std::size_t kBufferBytes = 1u << 20;
// Smallest paced write: whole-segment sends, not a trickle of tiny ones.
constexpr std::size_t kQuantum = 1448;
// Upper bound on one poll sleep, so Stop() is seen promptly.
constexpr double kIdleWaitS = 0.02;

struct Direction {
  int src = -1;
  int dst = -1;
  std::vector<std::uint8_t> buf;  // kBufferBytes, allocated once
  std::size_t head = 0;  // buf[head, tail) is read but not yet forwarded
  std::size_t tail = 0;
  bool src_eof = false;
  bool dst_shut = false;
  bool want_write = false;  // last send hit EAGAIN
  double tokens = 0.0;
  Clock::time_point refilled;
  std::uint64_t* counter = nullptr;

  std::size_t pending() const { return tail - head; }
};

struct Link {
  int client = -1;
  int upstream = -1;
  Direction up;    // client -> upstream
  Direction down;  // upstream -> client
  bool open = false;
};

void CloseFd(int& fd) {
  if (fd >= 0) ::close(fd);
  fd = -1;
}

}  // namespace

Relay::Relay(double rate_bps, std::string upstream_host, int upstream_port,
             int num_links)
    : rate_bps_(rate_bps),
      upstream_host_(std::move(upstream_host)),
      upstream_port_(upstream_port),
      counts_(static_cast<std::size_t>(num_links)) {}

Relay::~Relay() { Stop(); }

bool Relay::Start(std::string* error) {
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    int port = 0;
    const int fd = threelc::rpc::ListenOn("127.0.0.1", 0, error, &port);
    if (fd < 0) {
      for (int& open_fd : listen_fds_) CloseFd(open_fd);
      listen_fds_.clear();
      ports_.clear();
      return false;
    }
    listen_fds_.push_back(fd);
    ports_.push_back(port);
  }
  thread_ = std::thread([this] { Loop(); });
  return true;
}

void Relay::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  for (int& fd : listen_fds_) CloseFd(fd);
}

std::vector<LinkCount> Relay::counts() const { return counts_; }

double Relay::BusySeconds(const LinkCount& count) const {
  if (rate_bps_ <= 0.0) return 0.0;
  return static_cast<double>(count.up_bytes + count.down_bytes) * 8.0 /
         rate_bps_;
}

void Relay::Loop() {
  const bool paced = rate_bps_ > 0.0;
  const double bytes_per_s = rate_bps_ / 8.0;
  const auto burst = static_cast<double>(kBurstBytes);
  std::vector<Link> links(counts_.size());
  std::vector<pollfd> fds;

  auto close_link = [](Link& link) {
    CloseFd(link.client);
    CloseFd(link.upstream);
    link.open = false;
  };

  while (!stop_.load()) {
    const Clock::time_point now = Clock::now();
    double wait_s = kIdleWaitS;
    fds.clear();
    // owners[k] maps fds[k] back to its link and role.
    enum class Role { kListener, kUpSource, kDownSource, kBlockedSink };
    struct Owner {
      std::size_t link;
      Role role;
    };
    std::vector<Owner> owners;

    for (std::size_t i = 0; i < links.size(); ++i) {
      Link& link = links[i];
      if (!link.open && listen_fds_[i] >= 0) {
        fds.push_back({listen_fds_[i], POLLIN, 0});
        owners.push_back({i, Role::kListener});
        continue;
      }
      if (!link.open) continue;
      bool failed = false;
      for (Direction* d : {&link.up, &link.down}) {
        if (paced) {
          const double dt =
              std::chrono::duration<double>(now - d->refilled).count();
          d->tokens = std::min(burst, d->tokens + dt * bytes_per_s);
          d->refilled = now;
        }
        std::size_t pending = d->pending();
        if (pending > 0) {
          std::size_t allowed = pending;
          if (paced) {
            const std::size_t need = std::min(pending, kQuantum);
            allowed = d->tokens >= static_cast<double>(need)
                          ? std::min(pending,
                                     static_cast<std::size_t>(d->tokens))
                          : 0;
          }
          if (allowed > 0) {
            const ssize_t n = ::send(d->dst, d->buf.data() + d->head, allowed,
                                     MSG_NOSIGNAL | MSG_DONTWAIT);
            if (n > 0) {
              d->head += static_cast<std::size_t>(n);
              *d->counter += static_cast<std::uint64_t>(n);
              if (paced) d->tokens -= static_cast<double>(n);
              d->want_write = false;
            } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
              d->want_write = true;
            } else {
              failed = true;  // peer reset: propagate by closing both ends
              break;
            }
          }
          pending = d->pending();
          if (pending == 0) {
            d->head = d->tail = 0;
          } else if (paced && !d->want_write) {
            const double need =
                static_cast<double>(std::min(pending, kQuantum)) - d->tokens;
            wait_s = std::min(wait_s, std::max(need, 0.0) / bytes_per_s);
          }
        }
        if (d->pending() == 0 && d->src_eof && !d->dst_shut) {
          ::shutdown(d->dst, SHUT_WR);
          d->dst_shut = true;
        }
      }
      if (failed || (link.up.dst_shut && link.down.dst_shut)) {
        close_link(link);
        continue;
      }
      if (!link.up.src_eof && link.up.pending() < kBufferBytes) {
        fds.push_back({link.up.src, POLLIN, 0});
        owners.push_back({i, Role::kUpSource});
      }
      if (!link.down.src_eof && link.down.pending() < kBufferBytes) {
        fds.push_back({link.down.src, POLLIN, 0});
        owners.push_back({i, Role::kDownSource});
      }
      for (Direction* d : {&link.up, &link.down}) {
        if (d->want_write) {
          fds.push_back({d->dst, POLLOUT, 0});
          owners.push_back({i, Role::kBlockedSink});
        }
      }
    }

    timespec ts;
    ts.tv_sec = static_cast<time_t>(wait_s);
    ts.tv_nsec = static_cast<long>((wait_s - std::floor(wait_s)) * 1e9);
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready < 0) {
      if (errno == EINTR) continue;
      error_ = std::string("relay: poll: ") + std::strerror(errno);
      break;
    }
    for (std::size_t k = 0; k < fds.size(); ++k) {
      if (fds[k].revents == 0) continue;
      const std::size_t at = owners[k].link;
      Link& link = links[at];
      const Role role = owners[k].role;
      if (role == Role::kListener) {
        const int client = ::accept(fds[k].fd, nullptr, nullptr);
        if (client < 0) continue;
        std::string err;
        threelc::rpc::RetryOptions retry;
        retry.max_attempts = 3;
        retry.initial_backoff_ms = 10;
        const int upstream = threelc::rpc::ConnectWithRetry(
            upstream_host_, upstream_port_, retry, nullptr, &err);
        if (upstream < 0) {
          ::close(client);
          if (error_.empty()) error_ = "relay: upstream connect: " + err;
          continue;
        }
        for (int fd : {client, upstream}) {
          threelc::rpc::SetNonBlocking(fd);
          threelc::rpc::SetNoDelay(fd);
        }
        link.client = client;
        link.upstream = upstream;
        link.up = Direction{};
        link.up.src = client;
        link.up.dst = upstream;
        link.up.counter = &counts_[at].up_bytes;
        link.down = Direction{};
        link.down.src = upstream;
        link.down.dst = client;
        link.down.counter = &counts_[at].down_bytes;
        for (Direction* d : {&link.up, &link.down}) {
          d->buf.resize(kBufferBytes);
          d->tokens = burst;
          d->refilled = Clock::now();
        }
        link.open = true;
        // One connection per link: a worker that reconnects is a fault
        // the benchmark reports, not something the relay hides.
        CloseFd(listen_fds_[at]);
      } else if (role != Role::kBlockedSink && link.open) {
        Direction& d = role == Role::kUpSource ? link.up : link.down;
        if (d.tail == kBufferBytes) {  // compact the unsent bytes to the front
          std::memmove(d.buf.data(), d.buf.data() + d.head, d.pending());
          d.tail -= d.head;
          d.head = 0;
        }
        const ssize_t n = ::recv(d.src, d.buf.data() + d.tail,
                                 kBufferBytes - d.tail, MSG_DONTWAIT);
        if (n > 0) {
          d.tail += static_cast<std::size_t>(n);
        } else if (n == 0) {
          d.src_eof = true;
        } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
          close_link(link);
        }
      }
      // A writable blocked sink needs nothing here: the next pass resends.
    }
  }
  for (Link& link : links) close_link(link);
}

}  // namespace perfbench
