// Deterministic fault-rule engine shared by the chaos injectors.
//
// rpc::FaultInjector (outbound frames) and util::FaultFs (checkpoint
// syscalls) pick the events they tamper with by the same kind of rule.
// This engine owns everything the two share: the spec grammar, the
// occurrence gate, the seeded Rng, the schedule log and the crash latch.
// Each injector brings only its token table (a FaultGrammar) and the
// effect of its actions.
//
// Spec grammar, one rule per ';' (empty items are ignored):
//
//   ACTION:TARGET@INDEX[#OCCURRENCE]
//
//   ACTION      a token from the domain's action table. An action that
//               takes a number carries it as a decimal suffix (delay250).
//   TARGET      a token from the domain's target table (a frame type, a
//               syscall), or any
//   INDEX       the event's coordinate within its target (a frame's step,
//               a syscall's per-op call number), or any
//   OCCURRENCE  fire only on the Nth matching event (0-based, default 0),
//               or * to fire on every match
//
// Two per-action refinements, both declared in the token table:
//   - an action may reuse the TARGET slot for a parameter of its own
//     (partition:rx|tx|both); such a rule matches every target;
//   - an action may be pinned to one target (short:write); naming any
//     other target, or any, is a spec error.
//
// Numbers are plain decimal. A number that does not fit its field (a
// 2^32 ms delay, a step past 2^64 - 1) is a spec error, never a wrapped
// or saturated value.
//
// Rules are matched in spec order; the first rule whose TARGET and INDEX
// match the event and whose occurrence gate passes fires, and the others
// are not consulted. Every decision is a pure function of (seed, rules,
// event sequence) — no wall clock, no global randomness — so a chaos run
// replays: the same seed and traffic give the same schedule log, line
// for line. One engine belongs to one endpoint; sharing it across
// concurrent senders would make the match counters race-order dependent.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace threelc::util {

// A named code in a token table (a frame type, a syscall, a direction).
struct FaultToken {
  std::string_view name;
  int code = 0;
};

// One ACTION of a domain's table.
struct FaultActionToken {
  std::string_view name;
  int code = 0;
  // The token is `name` followed by a decimal parameter (delay<ms>).
  bool takes_number = false;
  // Firing latches the crash request (see FaultRules::TakeCrashRequest).
  bool crashes = false;
  // >= 0: the only target this action may name.
  int pinned_target = -1;
  // Non-empty: the TARGET slot holds one of these parameters instead of a
  // target, and the rule matches every target.
  std::span<const FaultToken> slot_params = {};
  // What a bad slot parameter is called in errors ("partition direction").
  std::string_view slot_params_noun = {};
};

// A domain's token tables plus the words its error messages use.
struct FaultGrammar {
  std::string_view form;         // "ACTION:TYPE@STEP"
  std::string_view target_noun;  // "frame type"
  std::string_view index_noun;   // "step"
  // Completes "action '<name>' ..." for a pinned action naming the wrong
  // target.
  std::string_view pinned_error = {};
  std::span<const FaultActionToken> actions;
  std::span<const FaultToken> targets;
};

// One parsed rule.
struct FaultRule {
  const FaultActionToken* action = nullptr;  // entry in the grammar's table
  int param = 0;  // the number suffix or the TARGET-slot parameter
  bool any_target = true;
  int target = 0;  // matched when !any_target
  bool any_index = true;
  std::uint64_t index = 0;  // matched when !any_index
  int occurrence = 0;
  bool every_match = false;
};

// Parse a non-empty all-digit decimal into *out. False (and *out
// untouched) on any other character or when the value does not fit T.
template <typename T>
bool ParseDecimal(std::string_view text, T* out) {
  if (text.empty() ||
      !std::all_of(text.begin(), text.end(),
                   [](char c) { return c >= '0' && c <= '9'; })) {
    return false;
  }
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

// Parse `spec` against `grammar`. On success appends every rule to *out;
// on malformed input appends nothing and sets *error (when non-null) to
// what is wrong and the offending item.
bool ParseFaultSpec(const FaultGrammar& grammar, std::string_view spec,
                    std::vector<FaultRule>* out, std::string* error);

// The name of `code` in `table`, or "unknown".
std::string_view FaultTokenName(std::span<const FaultToken> table, int code);

class FaultRules {
 public:
  // `grammar` is a domain's static token table; it must outlive the
  // engine, as must the action tokens the parsed rules point into.
  FaultRules(const FaultGrammar& grammar, std::uint64_t seed)
      : grammar_(grammar), rng_(seed) {}

  // ParseFaultSpec, then append the rules.
  bool AddFromSpec(std::string_view spec, std::string* error);

  // The rule that fires on one event, or nullptr. Every rule the event
  // reaches counts it as a match, and a rule whose action crashes latches
  // the crash request when it fires. The caller applies the action's
  // effect and then logs it.
  const FaultRule* Match(int target, std::uint64_t index);

  // Seeded stream for the effects (a corrupted byte, a short-write
  // length). Draw only for fired rules, so the schedule stays a function
  // of the seed and the traffic.
  Rng& rng() { return rng_; }

  // One line per injected fault. Two runs with the same seed and traffic
  // produce identical logs — the replay contract the chaos tests assert.
  void Log(std::string line) { log_.push_back(std::move(line)); }
  const std::vector<std::string>& schedule_log() const { return log_; }
  std::size_t faults_injected() const { return log_.size(); }

  // Check-and-clear: true once after a crashing action fired. The host
  // dies at that point; an instance that outlives the crash (the FaultFs
  // of a restarted server) does not crash again for the same fault.
  bool TakeCrashRequest() {
    const bool requested = crash_requested_;
    crash_requested_ = false;
    return requested;
  }

 private:
  struct RuleState {
    FaultRule rule;
    int matches = 0;  // events that matched (target, index)
    bool fired = false;
  };

  const FaultGrammar& grammar_;
  std::vector<RuleState> rules_;
  Rng rng_;
  std::vector<std::string> log_;
  bool crash_requested_ = false;
};

}  // namespace threelc::util
