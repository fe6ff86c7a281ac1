// Deterministic fault injection for the TCP runtime's chaos testing.
//
// A FaultInjector sits on a Connection's outbound path and decides, per
// frame, whether to tamper with it: drop it, delay the enqueue, flip a
// payload byte (the receiver's CRC check then kills the connection),
// truncate the frame and close, close the connection outright, stall or
// partition it, or crash the whole endpoint. Decisions are replayable
// from the seed (util/fault_rules.h).
//
// Rules use the spec grammar of util/fault_rules.h, with a frame's
// (type, step) as the TARGET and INDEX (one rule per ';'):
//
//   ACTION:TYPE@STEP[#OCCURRENCE]
//
//   ACTION  drop | corrupt | trunc | close | killserver | stall
//           | delay<ms>  (e.g. delay250)
//   TYPE    hello | hello_ack | push | stats | pull | bye | rejoin | evict
//           | heartbeat | any
//
// plus the partition form, whose direction token rides in the TYPE slot
// (a partition severs the whole connection's direction, not one frame
// type):
//
//   partition:rx|tx|both@STEP[#OCCURRENCE]
//
// Examples: "corrupt:push@2" (flip a byte in the first PUSH of step 2),
// "close:pull@5" (kill the connection while fanning out step 5's pulls),
// "delay200:push@any#*" (delay every push by 200 ms),
// "killserver:pull@5" (crash the server on step 5's first PULL: after its
// write-ahead checkpoint, before any fan-out byte — the kill-at-checkpoint
// drill; "killserver:pull@5#1" crashes it one frame into the fan-out),
// "stall:push@3" (freeze the endpoint at step 3's first push: it stops
// reading AND writing without closing, like a SIGSTOP'd process — its
// write queue grows until backpressure), "partition:tx@3" (one-way
// outage: everything this endpoint sends from step 3's first frame on is
// silently lost in the network while it still receives).
//
// One injector instance belongs to one endpoint (one worker process or the
// server).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rpc/frame.h"
#include "util/fault_rules.h"

namespace threelc::rpc {

enum class FaultAction : std::uint8_t {
  kNone = 0,
  kDrop,      // swallow the frame; the sender believes it was sent
  kDelay,     // sleep delay_ms before queueing (simulates a slow link)
  kCorrupt,   // flip one frame byte; receiver fails CRC and disconnects
  kTruncate,  // send only a frame prefix, then close
  kClose,     // close the connection instead of sending
  // Kill the whole sending endpoint, not just one connection: the frame is
  // not sent and the injector latches a crash request
  // (TakeCrashRequest) for the endpoint's event loop to act on. On the
  // server this simulates a parameter-server crash at an exact,
  // deterministic point in the fan-out (RpcServer checks the latch and
  // dies abruptly — no ERROR broadcast, sockets dropped mid-step — so
  // recovery is exercised from its checkpoint). Spec token: "killserver".
  kKillServer,
  // Freeze the connection without closing it: from the triggering frame
  // on, the endpoint neither reads nor flushes — the socket stays open,
  // the peer sees silence, and this endpoint's bounded write queue grows
  // until backpressure rejects. Models a SIGSTOP'd/wedged process or a
  // half-open socket. The triggering frame is queued but never flushed.
  kStall,
  // One- or two-way network partition: rx stops delivering inbound bytes
  // to this endpoint, tx silently discards its outbound bytes (the app's
  // sends "succeed" — the packets are lost in the network), both does
  // both. Unlike kStall the tx side keeps draining, so the write queue
  // never backpressures. The triggering frame is lost for tx/both.
  kPartition,
};

// Direction of a kPartition rule (which half of the connection is cut,
// from the injected endpoint's point of view).
enum class PartitionDirection : std::uint8_t { kRx = 0, kTx, kBoth };

// The frame injector's token tables.
extern const util::FaultGrammar kFrameFaultGrammar;

// The injector's verdict for one outbound frame.
struct FaultDecision {
  FaultAction action = FaultAction::kNone;
  int delay_ms = 0;
  // For kCorrupt: which byte of the frame to flip (already reduced modulo
  // the frame size). For kTruncate: how many prefix bytes survive.
  std::size_t byte_offset = 0;
  PartitionDirection direction = PartitionDirection::kBoth;  // kPartition
};

class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed = 0)
      : rules_(kFrameFaultGrammar, seed) {}

  // Append the rules of a spec (see file comment). Returns false with
  // *error set on malformed input, adding none of them.
  bool AddRulesFromSpec(const std::string& spec, std::string* error) {
    return rules_.AddFromSpec(spec, error);
  }

  // Decide the fate of one outbound frame (frame_bytes = full wire size
  // including header). Deterministic for a fixed (seed, rules, sequence of
  // OnSend calls).
  FaultDecision OnSend(MsgType type, std::uint64_t step,
                       std::size_t frame_bytes);

  // Faults actually injected (decisions other than kNone).
  std::size_t faults_injected() const { return rules_.faults_injected(); }

  // Check-and-clear, true once after a kKillServer decision: the owning
  // endpoint's event loop reads it (after any send) to die at the
  // injected point.
  bool TakeCrashRequest() { return rules_.TakeCrashRequest(); }

  // One line per injected fault: "<action> <TYPE> step=<s> byte=<o>",
  // plus " ms=<d>" for delays and " dir=<d>" for partitions.
  const std::vector<std::string>& schedule_log() const {
    return rules_.schedule_log();
  }

 private:
  util::FaultRules rules_;
};

}  // namespace threelc::rpc
