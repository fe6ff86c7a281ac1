// Tests for the fault-rule engine (util/fault_rules.h) and the two
// injectors built on it: the frame injector (rpc::FaultInjector) and the
// checkpoint-syscall injector (util::FaultFs). One table drives the spec
// grammar through both token tables; same seed + same traffic must give
// the same schedule, and the schedule logs are pinned byte for byte so a
// change to the engine cannot silently move a fault or an Rng draw.
#include <gtest/gtest.h>

#include <sys/types.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "rpc/fault.h"
#include "rpc/frame.h"
#include "util/fault_rules.h"
#include "util/fs.h"

namespace threelc {
namespace {

using rpc::FaultInjector;
using rpc::MsgType;

// ---------- spec grammar, both token tables ----------

// "<action>[=param][!] <target|any>@<index|any>#<occurrence|*>", where !
// marks an action that latches a crash request.
std::string Describe(const util::FaultGrammar& grammar,
                     const util::FaultRule& rule) {
  std::ostringstream out;
  out << rule.action->name;
  if (rule.action->takes_number || !rule.action->slot_params.empty()) {
    out << '=' << rule.param;
  }
  if (rule.action->crashes) out << '!';
  out << ' ';
  if (rule.any_target) {
    out << "any";
  } else {
    out << util::FaultTokenName(grammar.targets, rule.target);
  }
  out << '@';
  if (rule.any_index) {
    out << "any";
  } else {
    out << rule.index;
  }
  out << '#';
  if (rule.every_match) {
    out << '*';
  } else {
    out << rule.occurrence;
  }
  return out.str();
}

struct GrammarCase {
  const util::FaultGrammar* grammar;
  const char* spec;
  // Parsed rules, Describe()d; empty together with a non-null error.
  std::vector<std::string> rules;
  // Substring the error must contain; nullptr means the spec parses.
  const char* error = nullptr;
};

TEST(FaultSpec, GrammarTable) {
  const util::FaultGrammar* const frame = &rpc::kFrameFaultGrammar;
  const util::FaultGrammar* const fs = &util::kFsFaultGrammar;
  const GrammarCase kCases[] = {
      // Frame rules.
      {frame, "", {}},
      {frame, ";;", {}},
      {frame, "corrupt:push@2", {"corrupt push@2#0"}},
      {frame, "close:pull@5;delay200:push@any#*",
       {"close pull@5#0", "delay=200 push@any#*"}},
      {frame, "killserver:pull@5#1", {"killserver! pull@5#1"}},
      {frame, "stall:push@2;partition:rx@3;partition:tx@1#2;"
              "partition:both@any#*",
       {"stall push@2#0", "partition=0 any@3#0", "partition=1 any@1#2",
        "partition=2 any@any#*"}},
      {frame, "drop:hello@0;trunc:hello_ack@0;drop:stats@0;drop:bye@0;"
              "drop:rejoin@0;drop:evict@0;drop:heartbeat@0;trunc:any@any",
       {"drop hello@0#0", "trunc hello_ack@0#0", "drop stats@0#0",
        "drop bye@0#0", "drop rejoin@0#0", "drop evict@0#0",
        "drop heartbeat@0#0", "trunc any@any#0"}},
      {frame, ";drop:push@1;;", {"drop push@1#0"}},
      {frame, "delay0:push@007", {"delay=0 push@7#0"}},
      {frame, "drop:push@18446744073709551615#2147483647",
       {"drop push@18446744073709551615#2147483647"}},
      {frame, "delay2147483647:pull@any", {"delay=2147483647 pull@any#0"}},
      {frame, "drop", {}, "expected ACTION:TYPE@STEP in 'drop'"},
      {frame, "drop:push", {}, "expected ACTION:TYPE@STEP"},
      {frame, "drop@1", {}, "expected ACTION:TYPE@STEP"},
      {frame, "drop@1:push", {}, "expected ACTION:TYPE@STEP"},
      {frame, "explode:push@1", {}, "bad action in 'explode:push@1'"},
      {frame, "delay:push@1", {}, "bad action"},
      {frame, "delay-5:push@1", {}, "bad action"},
      {frame, "delay5ms:push@1", {}, "bad action"},
      {frame, "enospc:push@1", {}, "bad action"},
      {frame, "drop:bogus@1", {}, "bad frame type"},
      {frame, "drop:PUSH@1", {}, "bad frame type"},
      {frame, "drop:@1", {}, "bad frame type"},
      {frame, "partition:bogus@1", {}, "partition direction"},
      {frame, "partition:any@1", {}, "partition direction"},
      {frame, "drop:push@x", {}, "bad step"},
      {frame, "drop:push@", {}, "bad step"},
      {frame, "drop:push@-1", {}, "bad step"},
      {frame, "drop:push@+1", {}, "bad step"},
      {frame, "drop:push@1#x", {}, "bad occurrence"},
      {frame, "drop:push@1#", {}, "bad occurrence"},
      {frame, "drop:push@1#-1", {}, "bad occurrence"},
      // Out-of-range numbers are errors, not wrapped values.
      {frame, "delay4294967296:push@1", {}, "bad action"},
      {frame, "delay2147483648:push@1", {}, "bad action"},
      {frame, "drop:push@1#4294967306", {}, "bad occurrence"},
      {frame, "drop:push@18446744073709551616", {}, "bad step"},
      // One bad item rejects the whole spec.
      {frame, "drop:push@1;explode:push@2", {},
       "bad action in 'explode:push@2'"},

      // FaultFs rules.
      {fs, "enospc:write@any#*;eio:fsync@2;short:write@0;torn:rename@1#3",
       {"enospc write@any#*", "eio fsync@2#0", "short write@0#0",
        "torn! rename@1#3"}},
      {fs, "eio:any@any;enospc:open@0;eio:unlink@4;fsyncfail:fsync@1",
       {"eio any@any#0", "enospc open@0#0", "eio unlink@4#0",
        "fsyncfail fsync@1#0"}},
      {fs, "enospc:write", {}, "expected ACTION:OP@CALL"},
      {fs, "enospc@0:write", {}, "expected ACTION:OP@CALL"},
      {fs, "explode:write@0", {}, "bad action"},
      {fs, "drop:write@0", {}, "bad action"},
      {fs, "partition:rx@0", {}, "bad action"},
      {fs, "eio:push@0", {}, "bad fs op"},
      {fs, "short:fsync@0", {}, "action 'short' requires its own op"},
      {fs, "short:any@0", {}, "action 'short' requires its own op"},
      {fs, "fsyncfail:write@0", {}, "action 'fsyncfail' requires its own op"},
      {fs, "torn:write@0", {}, "action 'torn' requires its own op"},
      {fs, "eio:write@x", {}, "bad call index"},
      {fs, "eio:write@0#x", {}, "bad occurrence"},
      {fs, "eio:write@18446744073709551616", {}, "bad call index"},
      {fs, "eio:write@0#4294967296", {}, "bad occurrence"},
  };
  for (const GrammarCase& c : kCases) {
    SCOPED_TRACE(std::string(c.grammar->form) + " spec='" + c.spec + "'");
    std::vector<util::FaultRule> rules;
    std::string error;
    const bool ok = util::ParseFaultSpec(*c.grammar, c.spec, &rules, &error);
    std::vector<std::string> described;
    for (const util::FaultRule& rule : rules) {
      described.push_back(Describe(*c.grammar, rule));
    }
    EXPECT_EQ(described, c.rules);
    if (c.error == nullptr) {
      EXPECT_TRUE(ok) << error;
    } else {
      EXPECT_FALSE(ok);
      EXPECT_NE(error.find(c.error), std::string::npos) << error;
    }
  }
}

// ---------- frame injector schedules ----------

std::vector<std::string> DriveSchedule(std::uint64_t seed) {
  FaultInjector injector(seed);
  std::string error;
  EXPECT_TRUE(
      injector.AddRulesFromSpec("corrupt:push@any#*;delay5:pull@3", &error))
      << error;
  for (std::uint64_t step = 0; step < 6; ++step) {
    for (int t = 0; t < 3; ++t) {
      injector.OnSend(MsgType::kPush, step, 512);
      injector.OnSend(MsgType::kPull, step, 2048);
    }
    injector.OnSend(MsgType::kStepStats, step, 12);
  }
  return injector.schedule_log();
}

TEST(FaultInjector, SameSeedSameFaultSchedule) {
  const std::vector<std::string> a = DriveSchedule(1234);
  const std::vector<std::string> b = DriveSchedule(1234);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(FaultInjector, DifferentSeedDifferentFaultSchedule) {
  // Same rules, same traffic: the corrupted byte offsets must differ
  // because they are drawn from the seeded stream.
  const std::vector<std::string> a = DriveSchedule(1234);
  const std::vector<std::string> b = DriveSchedule(99);
  EXPECT_EQ(a.size(), b.size());  // rule matching is seed-independent
  EXPECT_NE(a, b);
}

TEST(FaultInjector, GoldenScheduleLog) {
  const std::vector<std::string> want = {
      "corrupt PUSH step=0 byte=83",
      "corrupt PUSH step=0 byte=318",
      "corrupt PUSH step=0 byte=145",
      "corrupt PUSH step=1 byte=235",
      "corrupt PUSH step=1 byte=224",
      "corrupt PUSH step=1 byte=459",
      "corrupt PUSH step=2 byte=231",
      "corrupt PUSH step=2 byte=112",
      "corrupt PUSH step=2 byte=46",
      "corrupt PUSH step=3 byte=176",
      "delay PULL step=3 byte=0 ms=5",
      "corrupt PUSH step=3 byte=372",
      "corrupt PUSH step=3 byte=93",
      "corrupt PUSH step=4 byte=31",
      "corrupt PUSH step=4 byte=399",
      "corrupt PUSH step=4 byte=385",
      "corrupt PUSH step=5 byte=425",
      "corrupt PUSH step=5 byte=261",
      "corrupt PUSH step=5 byte=79",
  };
  EXPECT_EQ(DriveSchedule(1234), want);
}

// Every frame action once, plus decision fields the log does not show.
TEST(FaultInjector, GoldenScheduleLogAllActions) {
  FaultInjector injector(/*seed=*/77);
  std::string error;
  ASSERT_TRUE(injector.AddRulesFromSpec(
      "trunc:push@1;drop:pull@any#2;close:stats@2;stall:heartbeat@any;"
      "partition:tx@4;killserver:pull@5;delay7:hello@any#*;"
      "corrupt:any@3#2;partition:rx@any#20",
      &error))
      << error;
  const MsgType kTraffic[] = {MsgType::kHello, MsgType::kPush,
                              MsgType::kPull, MsgType::kStepStats,
                              MsgType::kHeartbeat};
  std::vector<std::string> decisions;
  for (std::uint64_t step = 0; step < 7; ++step) {
    for (const MsgType type : kTraffic) {
      const rpc::FaultDecision d = injector.OnSend(type, step, 100 + step);
      if (d.action == rpc::FaultAction::kNone) continue;
      decisions.push_back(std::to_string(static_cast<int>(d.action)) + " " +
                          std::to_string(d.byte_offset) + " " +
                          std::to_string(d.delay_ms) + " " +
                          std::to_string(static_cast<int>(d.direction)));
    }
  }
  const std::vector<std::string> want_log = {
      "delay HELLO step=0 byte=0 ms=7",
      "stall HEARTBEAT step=0 byte=0",
      "delay HELLO step=1 byte=0 ms=7",
      "trunc PUSH step=1 byte=60",
      "delay HELLO step=2 byte=0 ms=7",
      "drop PULL step=2 byte=0",
      "close STEP_STATS step=2 byte=0",
      "delay HELLO step=3 byte=0 ms=7",
      "corrupt STEP_STATS step=3 byte=68",
      "partition HELLO step=4 byte=0 dir=tx",
      "delay HELLO step=5 byte=0 ms=7",
      "killserver PULL step=5 byte=0",
      "delay HELLO step=6 byte=0 ms=7",
      "partition STEP_STATS step=6 byte=0 dir=rx",
  };
  const std::vector<std::string> want_decisions = {
      "2 0 7 2",
      "7 0 0 2",
      "2 0 7 2",
      "4 60 0 2",
      "2 0 7 2",
      "1 0 0 2",
      "5 0 0 2",
      "2 0 7 2",
      "3 68 0 2",
      "8 0 0 1",
      "2 0 7 2",
      "6 0 0 2",
      "2 0 7 2",
      "8 0 0 0",
  };
  EXPECT_EQ(injector.schedule_log(), want_log);
  EXPECT_EQ(decisions, want_decisions);
  EXPECT_EQ(injector.faults_injected(), want_log.size());
}

// killserver latches a crash request that the owner reads once.
TEST(FaultInjector, KillServerLatchIsCheckAndClear) {
  FaultInjector injector(/*seed=*/3);
  std::string error;
  ASSERT_TRUE(injector.AddRulesFromSpec("killserver:pull@2", &error))
      << error;
  injector.OnSend(MsgType::kPull, 1, 64);
  EXPECT_FALSE(injector.TakeCrashRequest());
  EXPECT_EQ(injector.OnSend(MsgType::kPull, 2, 64).action,
            rpc::FaultAction::kKillServer);
  EXPECT_TRUE(injector.TakeCrashRequest());
  EXPECT_FALSE(injector.TakeCrashRequest());
}

// ---------- FaultFs schedules ----------

// A base Fs that touches no disk: opens hand out consecutive fds, writes
// consume the whole buffer, everything else succeeds.
class NullFs : public util::Fs {
 public:
  int Open(const std::string&, int, mode_t) override { return next_fd_++; }
  ssize_t Write(int, const void*, std::size_t n) override {
    return static_cast<ssize_t>(n);
  }
  int Fsync(int) override { return 0; }
  int Close(int) override { return 0; }
  int Rename(const std::string&, const std::string&) override { return 0; }
  int Unlink(const std::string&) override { return 0; }
  bool List(const std::string&, std::vector<std::string>*) override {
    return true;
  }

 private:
  int next_fd_ = 3;
};

// A fixed checkpoint-like call sequence; returns one line per call with
// its result, so seeded short-write lengths are pinned too.
std::vector<std::string> DriveFsCalls(util::FaultFs& fs) {
  std::vector<std::string> calls;
  const auto note = [&calls](const std::string& what, long long result) {
    calls.push_back(what + " -> " + std::to_string(result));
  };
  const char buf[128] = {};
  for (int gen = 0; gen < 4; ++gen) {
    const std::string target = "ckpt.g" + std::to_string(gen);
    const std::string temp = target + ".tmp.1";
    const int fd = fs.Open(temp, 0, 0644);
    note("open", fd);
    for (const std::size_t n : {64u, 1u, 100u}) {
      note("write" + std::to_string(n), fs.Write(fd, buf, n));
    }
    note("fsync", fs.Fsync(fd));
    note("close", fs.Close(fd));
    note("rename", fs.Rename(temp, target));
    note("crash", fs.TakeCrashRequest() ? 1 : 0);
    if (gen > 0) note("unlink", fs.Unlink("ckpt.g" + std::to_string(gen - 1)));
  }
  return calls;
}

TEST(FaultFs, GoldenScheduleLog) {
  NullFs base;
  util::FaultFs fs(&base, /*seed=*/1234);
  std::string error;
  ASSERT_TRUE(fs.AddRulesFromSpec(
      "enospc:open@1;eio:write@2;short:write@any#*;fsyncfail:fsync@0;"
      "eio:unlink@any#1;torn:rename@2;enospc:any@any#9",
      &error))
      << error;
  const std::vector<std::string> calls = DriveFsCalls(fs);
  const std::vector<std::string> want_calls = {
      "open -> 3",
      "write64 -> 18",
      "write1 -> 1",
      "write100 -> -1",
      "fsync -> -1",
      "close -> 0",
      "rename -> 0",
      "crash -> 0",
      "open -> -1",
      "write64 -> 20",
      "write1 -> 1",
      "write100 -> 90",
      "fsync -> 0",
      "close -> 0",
      "rename -> 0",
      "crash -> 0",
      "unlink -> 0",
      "open -> 4",
      "write64 -> 35",
      "write1 -> 1",
      "write100 -> 99",
      "fsync -> 0",
      "close -> 0",
      "rename -> 0",
      "crash -> 1",
      "unlink -> -1",
      "open -> 5",
      "write64 -> 48",
      "write1 -> 1",
      "write100 -> 22",
      "fsync -> 0",
      "close -> 0",
      "rename -> -1",
      "crash -> 0",
      "unlink -> 0",
  };
  const std::vector<std::string> want_log = {
      "short write call=0 path=fd3",
      "short write call=1 path=fd3",
      "eio write call=2 path=fd3",
      "fsyncfail fsync call=0 path=fd3",
      "enospc open call=1 path=ckpt.g1.tmp.1",
      "short write call=3 path=fd-1",
      "short write call=4 path=fd-1",
      "short write call=5 path=fd-1",
      "short write call=6 path=fd4",
      "short write call=7 path=fd4",
      "short write call=8 path=fd4",
      "torn rename call=2 path=ckpt.g2.tmp.1 -> ckpt.g2",
      "eio unlink call=1 path=ckpt.g1",
      "short write call=9 path=fd5",
      "short write call=10 path=fd5",
      "short write call=11 path=fd5",
      "enospc rename call=3 path=ckpt.g3.tmp.1 -> ckpt.g3",
  };
  EXPECT_EQ(calls, want_calls);
  EXPECT_EQ(fs.schedule_log(), want_log);
  EXPECT_EQ(fs.faults_injected(), want_log.size());
}

// Numbers that do not fit their field are spec errors, not silently
// wrapped or saturated values: a 2^32 ms delay is not a 0 ms delay, and
// an occurrence of 2^32 + 10 is not the 11th match.
TEST(FaultSpec, OutOfRangeNumbersAreRejected) {
  for (const char* spec :
       {"delay4294967296:push@1", "drop:push@1#4294967306",
        "drop:push@18446744073709551616", "delay2147483648:push@1"}) {
    FaultInjector injector(1);
    std::string error;
    EXPECT_FALSE(injector.AddRulesFromSpec(spec, &error)) << spec;
  }
  for (const char* spec :
       {"eio:write@18446744073709551616", "eio:write@0#4294967296"}) {
    util::FaultFs fs(nullptr, 1);
    std::string error;
    EXPECT_FALSE(fs.AddRulesFromSpec(spec, &error)) << spec;
  }
}

}  // namespace
}  // namespace threelc
