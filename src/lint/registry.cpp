#include "lint/registry.hpp"

#include <algorithm>

namespace pfi::lint {

namespace {

std::vector<CommandSig> build_registry() {
  using O = Origin;
  std::vector<CommandSig> t;
  auto add = [&t](const char* name, int min, int max, Origin origin,
                  const char* usage) {
    t.push_back({name, min, max, origin, usage});
  };

  // --- interpreter builtins (src/script/builtins.cpp) ----------------------
  add("append", 1, -1, O::kCore, "append varName ?value ...?");
  add("array", 2, 3, O::kCore, "array option arrayName ?arg?");
  add("break", 0, 0, O::kCore, "break");
  add("catch", 1, 2, O::kCore, "catch script ?resultVarName?");
  add("concat", 0, -1, O::kCore, "concat ?arg ...?");
  add("continue", 0, 0, O::kCore, "continue");
  add("error", 1, 1, O::kCore, "error message");
  add("eval", 1, -1, O::kCore, "eval arg ?arg ...?");
  add("expr", 1, -1, O::kCore, "expr arg ?arg ...?");
  add("for", 4, 4, O::kCore, "for start test next command");
  add("foreach", 3, 3, O::kCore, "foreach varName list command");
  add("format", 1, -1, O::kCore, "format formatString ?arg ...?");
  add("global", 1, -1, O::kCore, "global varName ?varName ...?");
  add("if", 2, -1, O::kCore, "if cond body ?elseif cond body ...? ?else body?");
  add("incr", 1, 2, O::kCore, "incr varName ?increment?");
  add("info", 1, 2, O::kCore, "info option ?arg ...?");
  add("join", 1, 2, O::kCore, "join list ?joinString?");
  add("lappend", 1, -1, O::kCore, "lappend varName ?value ...?");
  add("lindex", 2, 2, O::kCore, "lindex list index");
  add("list", 0, -1, O::kCore, "list ?arg ...?");
  add("llength", 1, 1, O::kCore, "llength list");
  add("lrange", 3, 3, O::kCore, "lrange list first last");
  add("lreverse", 1, 1, O::kCore, "lreverse list");
  add("lsearch", 2, 2, O::kCore, "lsearch list pattern");
  add("lsort", 1, 2, O::kCore, "lsort ?-integer? list");
  add("proc", 3, 3, O::kCore, "proc name args body");
  add("puts", 1, 2, O::kCore, "puts ?-nonewline? string");
  add("return", 0, 1, O::kCore, "return ?value?");
  add("set", 1, 2, O::kCore, "set varName ?newValue?");
  add("split", 1, 2, O::kCore, "split string ?splitChars?");
  add("string", 2, -1, O::kCore, "string option arg ?arg ...?");
  add("switch", 2, -1, O::kCore, "switch ?options? string pattern body ...");
  add("unset", 1, -1, O::kCore, "unset varName ?varName ...?");
  add("while", 2, 2, O::kCore, "while test command");

  // --- PfiLayer filter commands (src/pfi/pfi_layer.cpp) --------------------
  add("after", 2, 2, O::kFilter, "after milliseconds script");
  add("dst_bernoulli", 1, 1, O::kFilter, "dst_bernoulli p");
  add("dst_exponential", 1, 1, O::kFilter, "dst_exponential mean");
  add("dst_normal", 2, 2, O::kFilter, "dst_normal mean stddev");
  add("dst_uniform", 2, 2, O::kFilter, "dst_uniform lo hi");
  add("filter_dir", 0, 0, O::kFilter, "filter_dir");
  add("msg_byte", 1, 1, O::kFilter, "msg_byte offset");
  add("msg_field", 1, 1, O::kFilter, "msg_field name");
  add("msg_hex", 0, 1, O::kFilter, "msg_hex ?cur_msg?");
  add("msg_len", 0, 1, O::kFilter, "msg_len ?cur_msg?");
  add("msg_log", 0, -1, O::kFilter, "msg_log ?cur_msg? ?note ...?");
  add("msg_set_byte", 2, 2, O::kFilter, "msg_set_byte offset value");
  add("msg_set_field", 2, 2, O::kFilter, "msg_set_field name value");
  add("msg_truncate", 1, 1, O::kFilter, "msg_truncate length");
  add("msg_type", 0, 1, O::kFilter, "msg_type ?cur_msg?");
  add("node_name", 0, 0, O::kFilter, "node_name");
  add("now_ms", 0, 0, O::kFilter, "now_ms");
  add("now_s", 0, 0, O::kFilter, "now_s");
  add("now_us", 0, 0, O::kFilter, "now_us");
  add("peer_get", 1, 2, O::kFilter, "peer_get name ?default?");
  add("peer_set", 2, 2, O::kFilter, "peer_set name value");
  add("sync_get", 1, 2, O::kFilter, "sync_get name ?default?");
  add("sync_incr", 1, 2, O::kFilter, "sync_incr name ?by?");
  add("sync_set", 2, 2, O::kFilter, "sync_set name value");
  add("trace_note", 0, -1, O::kFilter, "trace_note ?word ...?");
  add("xCrashProcess", 0, 0, O::kFilter, "xCrashProcess");
  add("xDelay", 1, 2, O::kFilter, "xDelay ?cur_msg? milliseconds");
  add("xDrop", 0, 1, O::kFilter, "xDrop ?cur_msg?");
  add("xDuplicate", 0, 2, O::kFilter, "xDuplicate ?cur_msg? ?count?");
  add("xHeldCount", 1, 1, O::kFilter, "xHeldCount queue");
  add("xHold", 1, 1, O::kFilter, "xHold queue");
  add("xInject", 1, -1, O::kFilter, "xInject field value ?field value ...?");
  add("xInjectHex", 2, 3, O::kFilter, "xInjectHex ?cur_msg? hex ?count?");
  add("xRelease", 1, 2, O::kFilter, "xRelease queue ?count?");
  add("xReleaseReversed", 1, 1, O::kFilter, "xReleaseReversed queue");

  // --- ScriptedDriver commands (src/pfi/scripted_driver.cpp) ---------------
  add("drv_send", 2, -1, O::kDriver, "drv_send field value ?field value ...?");
  add("drv_send_hex", 1, 1, O::kDriver, "drv_send_hex hexbytes");

  std::sort(t.begin(), t.end(),
            [](const CommandSig& a, const CommandSig& b) {
              return a.name < b.name;
            });
  return t;
}

}  // namespace

const std::vector<CommandSig>& builtin_registry() {
  static const std::vector<CommandSig> table = build_registry();
  return table;
}

const CommandSig* find_command(std::string_view name) {
  const auto& table = builtin_registry();
  const auto it = std::lower_bound(
      table.begin(), table.end(), name,
      [](const CommandSig& sig, std::string_view n) { return sig.name < n; });
  if (it != table.end() && it->name == name) return &*it;
  return nullptr;
}

const std::vector<std::string>& protocol_message_types(
    std::string_view protocol) {
  // Mirrors the stub type tables in src/pfi/{gmp,tcp,tpc}_stub.hpp; each
  // stub also reports "unknown" for unrecognised bytes, and schedules may
  // match "*" (every message).
  static const std::vector<std::string> gmp = {
      "*",        "gmp-ack",   "gmp-commit",    "gmp-death", "gmp-heartbeat",
      "gmp-join", "gmp-mc",    "gmp-nak",       "gmp-proclaim", "rel-ack",
      "unknown"};
  static const std::vector<std::string> tcp = {
      "*",       "tcp-ack", "tcp-data", "tcp-fin", "tcp-rst",
      "tcp-syn", "tcp-synack", "unknown"};
  static const std::vector<std::string> tpc = {
      "*",          "tpc-ack",          "tpc-decision", "tpc-decision-req",
      "tpc-vote-no", "tpc-vote-req",    "tpc-vote-yes", "unknown"};
  static const std::vector<std::string> none;
  if (protocol == "gmp") return gmp;
  if (protocol == "tcp") return tcp;
  if (protocol == "tpc") return tpc;
  return none;
}

const std::vector<std::string>& protocol_oracles(std::string_view protocol) {
  // Mirrors known_oracle() in src/campaign/runner.cpp.
  static const std::vector<std::string> gmp = {"agreement", "liveness",
                                               "quiet"};
  static const std::vector<std::string> tcp = {"alive", "conformance",
                                               "spec"};
  static const std::vector<std::string> tpc = {"atomic"};
  static const std::vector<std::string> none;
  if (protocol == "gmp") return gmp;
  if (protocol == "tcp") return tcp;
  if (protocol == "tpc") return tpc;
  return none;
}

const std::vector<RuleInfo>& rule_catalog() {
  // Sorted by id. Script-analysis rules first existed in v1; the
  // flow-sensitive engine added use-before-def, invariant-loop,
  // unused-proc and unused-suppression; the schedule canonicalizer added
  // shadowed-fault.
  static const std::vector<RuleInfo> rules = {
      {"bad-arity", "command called with an argument count outside the "
                    "implementation's bounds"},
      {"bad-expr", "constant guard expression fails to evaluate"},
      {"bad-occurrence", "fault occurrence can never match (occurrences are "
                         "1-based) or plans zero events"},
      {"bad-oracle", "oracle is not valid for the cell's protocol"},
      {"bad-protocol", "protocol is unknown to the campaign runner"},
      {"bad-scenario", "driver scenario is unknown for the protocol"},
      {"bad-target", "target node is outside the cluster"},
      {"conflicting-faults", "two faults claim the same message occurrence "
                             "(drop vs. other, or inside a reorder window)"},
      {"constant-condition", "if/while guard folds to a constant on every "
                             "reaching path"},
      {"dead-timeline", "conformance inject window can never fire"},
      {"degenerate-reorder", "reorder window holds fewer than 2 messages; "
                             "releasing it reversed is the identity"},
      {"duplicate-event", "two schedule events are identical"},
      {"empty-fault-window", "faults install after the run already ended"},
      {"empty-schedule", "fault schedule has no events"},
      {"expect-before-inject", "expect of a faulted type completes before "
                               "any colliding inject window opens"},
      {"infinite-loop", "loop can never exit, or runs past the "
                        "interpreter's iteration budget"},
      {"invariant-loop", "loop guard reads only variables the body never "
                         "assigns"},
      {"missing-script", "referenced script file does not exist"},
      {"no-op-fault", "fault parameters make the fault do nothing"},
      {"overlapping-windows", "two reorder hold windows overlap on one "
                              "message type"},
      {"parse-error", "script or spec source fails to parse"},
      {"script-path", "script resolves relative to the process working "
                      "directory, not the spec file"},
      {"shadowed-fault", "send-side fault skews the arrival numbering a "
                         "receive-side occurrence target relies on"},
      {"undefined-var", "variable is read but never set in any visible "
                        "scope"},
      {"unknown-command", "command is neither a builtin, a registered host "
                          "command, nor a script-defined proc"},
      {"unknown-directive", "conformance timeline directive is not part of "
                            "the .pdt grammar"},
      {"unknown-message-type", "message type is not produced by the "
                               "protocol stub"},
      {"unreachable-code", "command can never execute (the block already "
                           "returned)"},
      {"unreachable-expect", "expect window opens after the run already "
                             "ended"},
      {"unused-proc", "proc is defined but never called"},
      {"unused-suppression", "pfi-lint suppression comment matches no "
                             "diagnostic"},
      {"unused-var", "variable is set but never read"},
      {"use-before-def", "an execution path reaches a read before any "
                         "assignment"},
  };
  return rules;
}

int rule_index(std::string_view rule) {
  const auto& rules = rule_catalog();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (rules[i].id == rule) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace pfi::lint
