// Shaped-link relay: one TCP hop between each worker and the server.
//
// Each link owns a listening port on loopback. The first connection a link
// accepts is bridged to the upstream server, and every byte in either
// direction is counted and, when a rate is set, paced by a per-direction
// token bucket — the role Linux traffic control plays on the paper's
// emulated 10 Mbps links (§5.2). One polling thread serves every link, so
// the relay adds no threads per worker. Bytes are forwarded unchanged and
// in order; the relay never parses the protocol.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

struct LinkCount {
  std::uint64_t up_bytes = 0;    // worker -> server
  std::uint64_t down_bytes = 0;  // server -> worker
};

class Relay {
 public:
  // Token-bucket depth: the largest burst a link sends after idling.
  static constexpr std::size_t kBurstBytes = 3000;

  // `rate_bps` paces each link in each direction; 0 forwards unpaced.
  Relay(double rate_bps, std::string upstream_host, int upstream_port,
        int num_links);
  ~Relay();
  Relay(const Relay&) = delete;
  Relay& operator=(const Relay&) = delete;

  // Bind one listener per link and start the polling thread.
  bool Start(std::string* error);
  // Local port a worker dials for link `link`.
  int port(int link) const { return ports_[static_cast<std::size_t>(link)]; }
  // Stop the polling thread and close every socket. Idempotent.
  void Stop();
  // Bytes forwarded so far; exact, read after Stop().
  std::vector<LinkCount> counts() const;
  // Seconds the bytes so far occupied the link at the configured rate,
  // summed over both directions of one link (0 when unpaced).
  double BusySeconds(const LinkCount& count) const;
  // First error the polling thread hit (empty when none).
  const std::string& error() const { return error_; }

 private:
  void Loop();

  double rate_bps_;
  std::string upstream_host_;
  int upstream_port_;
  std::vector<int> listen_fds_;
  std::vector<int> ports_;
  std::vector<LinkCount> counts_;  // written by the loop, read after Stop
  std::string error_;              // likewise
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace perfbench
