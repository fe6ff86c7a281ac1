// Relay self-test: the relay forwards bytes unchanged and in order, counts
// them exactly, holds its configured rate within its own bound, and a
// training run through an unpaced relay ends in a model bitwise equal to
// the in-process reference.
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "relay.h"
#include "rpc/transport.h"
#include "util/rng.h"
#include "util/timer.h"
#include "workload.h"

using namespace perfbench;
using namespace threelc;

namespace {

struct Pair {
  int client = -1;  // dialled the relay
  int sink = -1;    // accepted by the upstream listener
};

std::vector<std::uint8_t> RandomBytes(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.Next());
  return out;
}

bool SendAll(int fd, const std::vector<std::uint8_t>& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

// Receive exactly n bytes; *last_s gets the last byte's arrival on `clock`.
bool RecvAll(int fd, std::size_t n, std::vector<std::uint8_t>* out,
             const util::WallTimer& clock, double* last_s) {
  out->resize(n);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, out->data() + got, n - got, 0);
    if (r <= 0) return false;
    got += static_cast<std::size_t>(r);
  }
  *last_s = clock.ElapsedSeconds();
  return true;
}

// A relay with one link in front of a fresh listener, and both ends of a
// connection through it; nullptr on failure.
std::unique_ptr<Relay> Connect(double rate_bps, Pair* pair,
                               std::string* error) {
  int port = 0;
  const int listener = rpc::ListenOn("127.0.0.1", 0, error, &port);
  if (listener < 0) return nullptr;
  auto relay = std::make_unique<Relay>(rate_bps, "127.0.0.1", port, 1);
  if (!relay->Start(error)) {
    ::close(listener);
    return nullptr;
  }
  rpc::RetryOptions retry;
  retry.max_attempts = 3;
  pair->client = rpc::ConnectWithRetry("127.0.0.1", relay->port(0), retry,
                                       nullptr, error);
  pair->sink = pair->client < 0 ? -1 : ::accept(listener, nullptr, nullptr);
  ::close(listener);
  if (pair->client < 0 || pair->sink < 0) {
    if (pair->client >= 0) ::close(pair->client);
    return nullptr;
  }
  return relay;
}

bool Check(bool ok, const std::string& what, int* failures) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++*failures;
  return ok;
}

// Bytes both ways through one link: unchanged, in order, counted exactly.
void CheckForwarding(double rate_bps, const std::string& label,
                     int* failures) {
  Pair pair;
  std::string error;
  const std::unique_ptr<Relay> relay = Connect(rate_bps, &pair, &error);
  if (!Check(relay != nullptr, label + ": connect through relay " + error,
             failures)) {
    return;
  }
  const auto up = RandomBytes(300000, 11);
  const auto down = RandomBytes(200000, 12);
  util::WallTimer clock;
  std::vector<std::uint8_t> up_rx, down_rx;
  double up_s = 0.0, down_s = 0.0;
  bool up_ok = false;
  std::thread sink([&] {
    up_ok = RecvAll(pair.sink, up.size(), &up_rx, clock, &up_s) &&
            SendAll(pair.sink, down);
  });
  const bool down_ok =
      SendAll(pair.client, up) &&
      RecvAll(pair.client, down.size(), &down_rx, clock, &down_s);
  sink.join();
  ::close(pair.client);
  ::close(pair.sink);
  relay->Stop();
  const LinkCount count = relay->counts()[0];
  Check(up_ok && up_rx == up, label + ": worker->server bytes unchanged",
        failures);
  Check(down_ok && down_rx == down, label + ": server->worker bytes unchanged",
        failures);
  Check(count.up_bytes == up.size() && count.down_bytes == down.size(),
        label + ": counted " + std::to_string(count.up_bytes) + "/" +
            std::to_string(count.down_bytes) + " of " +
            std::to_string(up.size()) + "/" + std::to_string(down.size()),
        failures);
}

// A paced link delivers a long transfer at its rate: after the initial
// burst, (bytes - burst) take (bytes - burst) * 8 / rate seconds, within
// 2% plus one poll slack.
void CheckRate(int* failures) {
  constexpr double kRateBps = 10e6;
  Pair pair;
  std::string error;
  const std::unique_ptr<Relay> relay = Connect(kRateBps, &pair, &error);
  if (!Check(relay != nullptr, "rate: connect through relay " + error,
             failures)) {
    return;
  }
  const auto data = RandomBytes(500000, 13);
  util::WallTimer clock;
  std::vector<std::uint8_t> rx;
  double last = 0.0;
  bool ok = false;
  std::thread sink(
      [&] { ok = RecvAll(pair.sink, data.size(), &rx, clock, &last); });
  const bool sent = SendAll(pair.client, data);
  sink.join();
  ::close(pair.client);
  ::close(pair.sink);
  relay->Stop();
  const double paced_bytes =
      static_cast<double>(data.size() - Relay::kBurstBytes);
  const double expected_s = paced_bytes * 8.0 / kRateBps;
  const double measured_s = last;  // the burst leaves at t ~ 0
  const double bound_s = 0.02 * expected_s + 0.002;
  Check(sent && ok && rx == data &&
            std::fabs(measured_s - expected_s) <= bound_s,
        "rate: 10 Mbps link moved " + std::to_string(data.size()) +
            " bytes in " + std::to_string(measured_s) + " s, expected " +
            std::to_string(expected_s) + " +- " + std::to_string(bound_s),
        failures);
}

// A wan-3lc run through an unpaced relay ends in the reference model.
void CheckTrainingParity(int* failures) {
  Workload unpaced = *FindWorkload("wan-3lc");
  unpaced.link_bps = 0.0;
  unpaced.episode_steps = 6;
  const auto config = MakeConfig(unpaced, 1);
  const EpisodeResult ep = RunEpisode(unpaced, config);
  const Reference ref = RunReference(config);
  Check(ep.ok && ep.model_bytes == ref.model_bytes,
        "parity: unpaced relay run bitwise equal to the in-process reference" +
            (ep.ok ? std::string() : " (" + ep.error + ")"),
        failures);
}

}  // namespace

int RunSelftest() {
  int failures = 0;
  CheckForwarding(0.0, "unpaced", &failures);
  CheckForwarding(50e6, "paced", &failures);
  CheckRate(&failures);
  CheckTrainingParity(&failures);
  std::cout << (failures == 0 ? "selftest passed" : "selftest FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}
