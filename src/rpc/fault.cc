#include "rpc/fault.h"

#include <sstream>

namespace threelc::rpc {

namespace {

template <typename Enum>
constexpr int Code(Enum value) {
  return static_cast<int>(value);
}

constexpr util::FaultToken kDirections[] = {
    {"rx", Code(PartitionDirection::kRx)},
    {"tx", Code(PartitionDirection::kTx)},
    {"both", Code(PartitionDirection::kBoth)},
};

constexpr util::FaultActionToken kActions[] = {
    {.name = "drop", .code = Code(FaultAction::kDrop)},
    {.name = "corrupt", .code = Code(FaultAction::kCorrupt)},
    {.name = "trunc", .code = Code(FaultAction::kTruncate)},
    {.name = "close", .code = Code(FaultAction::kClose)},
    {.name = "killserver", .code = Code(FaultAction::kKillServer),
     .crashes = true},
    {.name = "stall", .code = Code(FaultAction::kStall)},
    // A partition cuts the connection's whole direction, so the rule
    // matches any frame and the TYPE slot carries rx|tx|both.
    {.name = "partition", .code = Code(FaultAction::kPartition),
     .slot_params = kDirections,
     .slot_params_noun = "partition direction (want rx|tx|both)"},
    {.name = "delay", .code = Code(FaultAction::kDelay), .takes_number = true},
};

constexpr util::FaultToken kFrameTypes[] = {
    {"hello", Code(MsgType::kHello)},
    {"hello_ack", Code(MsgType::kHelloAck)},
    {"push", Code(MsgType::kPush)},
    {"stats", Code(MsgType::kStepStats)},
    {"pull", Code(MsgType::kPull)},
    {"bye", Code(MsgType::kBye)},
    {"rejoin", Code(MsgType::kRejoin)},
    {"evict", Code(MsgType::kEvict)},
    {"heartbeat", Code(MsgType::kHeartbeat)},
};

}  // namespace

constexpr util::FaultGrammar kFrameFaultGrammar = {
    .form = "ACTION:TYPE@STEP",
    .target_noun = "frame type",
    .index_noun = "step",
    .actions = kActions,
    .targets = kFrameTypes,
};

FaultDecision FaultInjector::OnSend(MsgType type, std::uint64_t step,
                                    std::size_t frame_bytes) {
  FaultDecision decision;
  const util::FaultRule* rule = rules_.Match(Code(type), step);
  if (rule == nullptr) return decision;

  decision.action = static_cast<FaultAction>(rule->action->code);
  if (decision.action == FaultAction::kDelay) decision.delay_ms = rule->param;
  if (decision.action == FaultAction::kPartition) {
    decision.direction = static_cast<PartitionDirection>(rule->param);
  }
  if (decision.action == FaultAction::kCorrupt && frame_bytes > 0) {
    decision.byte_offset =
        static_cast<std::size_t>(rules_.rng().Below(frame_bytes));
  } else if (decision.action == FaultAction::kTruncate && frame_bytes > 1) {
    // Keep at least one byte and never the whole frame.
    decision.byte_offset =
        1 + static_cast<std::size_t>(rules_.rng().Below(frame_bytes - 1));
  }

  std::ostringstream line;
  line << rule->action->name << ' ' << MsgTypeName(type) << " step=" << step
       << " byte=" << decision.byte_offset;
  if (decision.action == FaultAction::kDelay) {
    line << " ms=" << decision.delay_ms;
  }
  if (decision.action == FaultAction::kPartition) {
    line << " dir=" << util::FaultTokenName(kDirections, rule->param);
  }
  rules_.Log(line.str());
  return decision;
}

}  // namespace threelc::rpc
