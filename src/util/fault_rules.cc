#include "util/fault_rules.h"

namespace threelc::util {

namespace {

const FaultToken* FindToken(std::span<const FaultToken> table,
                            std::string_view name) {
  for (const FaultToken& token : table) {
    if (token.name == name) return &token;
  }
  return nullptr;
}

// Resolve the ACTION token: an exact name, or a number-taking name
// followed by its decimal parameter.
bool ParseAction(const FaultGrammar& grammar, std::string_view token,
                 FaultRule* rule) {
  for (const FaultActionToken& action : grammar.actions) {
    if (!action.takes_number) {
      if (token != action.name) continue;
    } else if (!token.starts_with(action.name) ||
               !ParseDecimal(token.substr(action.name.size()), &rule->param)) {
      continue;
    }
    rule->action = &action;
    return true;
  }
  return false;
}

// Parse one non-empty item; on failure returns why (without the item).
std::string ParseRule(const FaultGrammar& grammar, std::string_view item,
                      FaultRule* rule) {
  const std::size_t colon = item.find(':');
  const std::size_t at = item.find('@');
  if (colon == std::string_view::npos || at == std::string_view::npos ||
      at < colon) {
    return "expected " + std::string(grammar.form);
  }
  if (!ParseAction(grammar, item.substr(0, colon), rule)) return "bad action";
  const FaultActionToken& action = *rule->action;

  const std::string_view target = item.substr(colon + 1, at - colon - 1);
  if (!action.slot_params.empty()) {
    const FaultToken* param = FindToken(action.slot_params, target);
    if (param == nullptr) return "bad " + std::string(action.slot_params_noun);
    rule->param = param->code;
  } else if (target != "any") {
    const FaultToken* token = FindToken(grammar.targets, target);
    if (token == nullptr) return "bad " + std::string(grammar.target_noun);
    rule->any_target = false;
    rule->target = token->code;
  }
  if (action.pinned_target >= 0 &&
      (rule->any_target || rule->target != action.pinned_target)) {
    return "action '" + std::string(action.name) + "' " +
           std::string(grammar.pinned_error);
  }

  std::string_view index = item.substr(at + 1);
  const std::size_t hash = index.find('#');
  if (hash != std::string_view::npos) {
    const std::string_view occurrence = index.substr(hash + 1);
    index = index.substr(0, hash);
    if (occurrence == "*") {
      rule->every_match = true;
    } else if (!ParseDecimal(occurrence, &rule->occurrence)) {
      return "bad occurrence";
    }
  }
  if (index != "any") {
    if (!ParseDecimal(index, &rule->index)) {
      return "bad " + std::string(grammar.index_noun);
    }
    rule->any_index = false;
  }
  return "";
}

}  // namespace

bool ParseFaultSpec(const FaultGrammar& grammar, std::string_view spec,
                    std::vector<FaultRule>* out, std::string* error) {
  std::vector<FaultRule> rules;
  while (!spec.empty()) {
    const std::size_t semi = spec.find(';');
    const std::string_view item = spec.substr(0, semi);
    spec = semi == std::string_view::npos ? std::string_view()
                                          : spec.substr(semi + 1);
    if (item.empty()) continue;
    FaultRule rule;
    const std::string why = ParseRule(grammar, item, &rule);
    if (!why.empty()) {
      if (error != nullptr) *error = why + " in '" + std::string(item) + "'";
      return false;
    }
    rules.push_back(rule);
  }
  out->insert(out->end(), rules.begin(), rules.end());
  return true;
}

std::string_view FaultTokenName(std::span<const FaultToken> table, int code) {
  for (const FaultToken& token : table) {
    if (token.code == code) return token.name;
  }
  return "unknown";
}

bool FaultRules::AddFromSpec(std::string_view spec, std::string* error) {
  std::vector<FaultRule> parsed;
  if (!ParseFaultSpec(grammar_, spec, &parsed, error)) return false;
  for (const FaultRule& rule : parsed) rules_.push_back({rule});
  return true;
}

const FaultRule* FaultRules::Match(int target, std::uint64_t index) {
  for (RuleState& state : rules_) {
    const FaultRule& rule = state.rule;
    if (!rule.any_target && rule.target != target) continue;
    if (!rule.any_index && rule.index != index) continue;
    const int match_index = state.matches++;
    if (!rule.every_match && (state.fired || match_index != rule.occurrence)) {
      continue;
    }
    state.fired = true;
    if (rule.action->crashes) crash_requested_ = true;
    return &rule;
  }
  return nullptr;
}

}  // namespace threelc::util
