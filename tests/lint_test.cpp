// pfi_lint tests: one positive and one negative case per rule, registry
// completeness against live interpreters, clean-corpus over scripts/,
// JSON byte-determinism, Result.line plumbing, and the campaign --lint
// integration (lint_error records are a pure function of the cell).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "lint/lint.hpp"
#include "lint/registry.hpp"
#include "lint/sarif.hpp"
#include "pfi/pfi_layer.hpp"
#include "pfi/scripted_driver.hpp"
#include "pfi/stub.hpp"
#include "script/interp.hpp"
#include "script/parse.hpp"
#include "sim/scheduler.hpp"

namespace pfi::lint {
namespace {

using campaign::CampaignSpec;
using campaign::FaultEvent;
using campaign::FaultSchedule;
using core::scriptgen::FaultKind;

std::vector<std::string> rules_of(const std::vector<Diagnostic>& diags) {
  std::vector<std::string> out;
  for (const auto& d : diags) out.push_back(d.rule);
  return out;
}

bool has_rule(const std::vector<Diagnostic>& diags, const std::string& rule) {
  return std::any_of(diags.begin(), diags.end(),
                     [&](const Diagnostic& d) { return d.rule == rule; });
}

const Diagnostic* find_rule(const std::vector<Diagnostic>& diags,
                            const std::string& rule) {
  for (const auto& d : diags) {
    if (d.rule == rule) return &d;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Static parser
// ---------------------------------------------------------------------------

TEST(StaticParse, PositionsAndVarRefs) {
  const auto s = script::parse::parse_script(
      "set a 1\nif {$a} {\n  msg_log $b(x) [msg_type]\n}\n");
  ASSERT_TRUE(s.ok()) << s.error;
  ASSERT_EQ(s.commands.size(), 2u);
  EXPECT_EQ(s.commands[0].line, 1);
  EXPECT_EQ(s.commands[1].line, 2);
  EXPECT_EQ(s.commands[1].col, 1);
}

TEST(StaticParse, ReportsUnbalancedBrace) {
  const auto s = script::parse::parse_script("while {1} {\n  incr a\n");
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.error.find("close-brace"), std::string::npos);
}

TEST(StaticParse, NestedCommandSubstKeepsAbsolutePositions) {
  const auto s = script::parse::parse_script("set a [foo $x]\n");
  ASSERT_TRUE(s.ok());
  ASSERT_EQ(s.commands[0].words.size(), 3u);
  const auto& w = s.commands[0].words[2];
  ASSERT_EQ(w.nested.size(), 1u);
  ASSERT_EQ(w.nested[0].commands.size(), 1u);
  EXPECT_EQ(w.nested[0].commands[0].line, 1);
  EXPECT_EQ(w.nested[0].commands[0].col, 8);
}

TEST(StaticParse, KeepsWhatPrecedesASyntaxError) {
  // The interpreter runs this tree, so everything before the error stays:
  // the failing word ends in a kError part.
  const auto s = script::parse::parse_script("set a 1\nputs [set a 2] {x}y\n");
  EXPECT_EQ(s.error, "extra characters after close-brace");
  EXPECT_EQ(s.error_line, 2);
  ASSERT_EQ(s.commands.size(), 2u);
  const auto& failing = s.commands[1].words;
  ASSERT_EQ(failing.size(), 3u);
  EXPECT_EQ(failing[1].nested.size(), 1u);
  ASSERT_EQ(failing[2].parts.size(), 1u);
  EXPECT_EQ(failing[2].parts[0].kind, script::parse::Part::Kind::kError);
}

TEST(StaticParse, NestedErrorLeavesTheOuterScriptWhole) {
  // `[return 1; {x}y]` returns before reaching its error, so the rest of
  // the outer script must still be there to run.
  const auto s =
      script::parse::parse_script("set a [return 1; {x}y] b\nset c 3\n");
  EXPECT_EQ(s.error, "extra characters after close-brace");
  ASSERT_EQ(s.commands.size(), 2u);
  EXPECT_EQ(s.commands[0].words.size(), 4u);
  ASSERT_EQ(s.commands[0].words[2].nested.size(), 1u);
  EXPECT_FALSE(s.commands[0].words[2].nested[0].ok());
  script::Interp in;
  const auto r = in.eval("set a [return 1; {x}y]\nset c 3\n");
  EXPECT_TRUE(r.is_ok()) << r.value;
  EXPECT_EQ(in.get_var("a").value_or(""), "1");
  EXPECT_EQ(in.get_var("c").value_or(""), "3");
}

// ---------------------------------------------------------------------------
// Script rules, one positive + one negative each
// ---------------------------------------------------------------------------

TEST(LintScript, ParseError) {
  const auto diags = check_script("set a {unclosed\n");
  ASSERT_TRUE(has_rule(diags, "parse-error")) << diags.size();
  EXPECT_TRUE(has_errors(diags));
  EXPECT_TRUE(check_script("set a {closed}\nmsg_log $a\n").empty());
}

TEST(LintScript, UnknownCommandWithSuggestion) {
  const auto diags = check_script("msg_typ\n");
  const auto* d = find_rule(diags, "unknown-command");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->hint.find("msg_type"), std::string::npos);
  EXPECT_TRUE(check_script("msg_type\n").empty());
}

TEST(LintScript, ScriptProcsAreKnownCommands) {
  const auto diags = check_script(
      "proc twice {x} { return [expr {$x * 2}] }\nmsg_log [twice 3]\n");
  EXPECT_TRUE(diags.empty()) << diags[0].message;
}

TEST(LintScript, UnknownCommandRespectsHostToggles) {
  Options opts;
  opts.filter_commands = false;
  EXPECT_TRUE(has_rule(check_script("xDrop\n", "", opts), "unknown-command"));
  EXPECT_FALSE(has_rule(check_script("xDrop\n"), "unknown-command"));
}

TEST(LintScript, BadArity) {
  const auto diags = check_script("xDrop cur_msg extra\n");
  const auto* d = find_rule(diags, "bad-arity");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->hint.find("xDrop"), std::string::npos);
  EXPECT_TRUE(check_script("xDrop cur_msg\n").empty());
}

TEST(LintScript, BadArityOnProcs) {
  const auto diags =
      check_script("proc one {x} { msg_log $x }\none a b\n");
  EXPECT_TRUE(has_rule(diags, "bad-arity"));
  EXPECT_TRUE(
      check_script("proc one {x {y 2}} { msg_log $x $y }\none a b\n")
          .empty());
}

TEST(LintScript, UndefinedVar) {
  const auto diags = check_script("msg_log $never_set\n");
  const auto* d = find_rule(diags, "undefined-var");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_FALSE(has_rule(check_script("set x 1\nmsg_log $x\n"),
                        "undefined-var"));
}

TEST(LintScript, SetupDefsAreVisibleInFilters) {
  const auto diags = check_script(
      "#%setup\nset threshold 3\n#%receive\nif {$threshold > 0} {xDrop}\n");
  EXPECT_TRUE(diags.empty()) << diags[0].message;
  // ... but a send-section def is NOT visible in receive.
  const auto cross = check_script(
      "#%send\nset only_send 1\n#%receive\nmsg_log $only_send\n");
  EXPECT_TRUE(has_rule(cross, "undefined-var"));
}

TEST(LintScript, ProcScoping) {
  // Param reads are fine; an un-imported outer variable is not.
  EXPECT_TRUE(check_script("proc f {x} { return $x }\nf 1\n").empty());
  EXPECT_TRUE(has_rule(check_script("proc f {} { return $outer }\nf\n"),
                       "undefined-var"));
  // `global` imports resolve against section defs.
  const auto ok = check_script(
      "set count 0\nproc bump {} { global count\nincr count }\nbump\n");
  EXPECT_TRUE(ok.empty()) << ok[0].message;
}

TEST(LintScript, UnusedVar) {
  const auto diags = check_script("set never_read 1\n");
  const auto* d = find_rule(diags, "unused-var");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_TRUE(check_script("set x 1\nmsg_log $x\n").empty());
}

TEST(LintScript, EvalMakesScopeDynamic) {
  // `eval` can define or read anything: both var passes stand down.
  const auto diags = check_script("eval $cmds\nmsg_log $mystery\n");
  EXPECT_FALSE(has_rule(diags, "undefined-var"));
  EXPECT_FALSE(has_rule(diags, "unused-var"));
}

TEST(LintScript, ConstantCondition) {
  const auto diags = check_script("if {1 + 1} { msg_log hit }\n");
  const auto* d = find_rule(diags, "constant-condition");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  // v2: constants propagate through variables, so the guard folds with
  // a = 1 (v1 only folded variable-free expressions).
  const auto folded =
      check_script("set a 1\nif {$a > 0} { msg_log hit }\n");
  const auto* f = find_rule(folded, "constant-condition");
  ASSERT_NE(f, nullptr);
  EXPECT_NE(f->hint.find("a = 1"), std::string::npos);
  // A guard fed by runtime input still folds nowhere.
  EXPECT_TRUE(check_script("#%receive\nset t [msg_type cur_msg]\n"
                           "if {$t eq \"gmp-ack\"} { msg_log hit }\n")
                  .empty());
}

TEST(LintScript, BadExpr) {
  EXPECT_TRUE(has_rule(check_script("if {1 +} { msg_log hit }\n"),
                       "bad-expr"));
  EXPECT_TRUE(check_script("if {(1 + 2) * 0} { msg_log hit }\n").size());
}

TEST(LintScript, InfiniteLoop) {
  const auto diags = check_script("while 1 { msg_log spin }\n");
  const auto* d = find_rule(diags, "infinite-loop");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  // A reachable break (even nested) is an escape.
  EXPECT_FALSE(has_rule(
      check_script("set n 0\nwhile 1 { incr n\nif {$n > 3} { break } }\n"),
      "infinite-loop"));
}

TEST(LintScript, LoopBudgetHeuristic) {
  // The spin_forever.tcl class: a literal bound beyond the interpreter's
  // iteration budget. Warning, not error — it does terminate eventually.
  const auto diags = check_script(
      "set i 0\nwhile {$i < 1000000000} { incr i }\n");
  const auto* d = find_rule(diags, "infinite-loop");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_FALSE(has_rule(
      check_script("set i 0\nwhile {$i < 1000} { incr i }\n"),
      "infinite-loop"));
}

TEST(LintScript, UnreachableCode) {
  const auto diags = check_script("return\nmsg_log dead\n");
  EXPECT_TRUE(has_rule(diags, "unreachable-code"));
  EXPECT_FALSE(has_rule(check_script("msg_log live\nreturn\n"),
                        "unreachable-code"));
}

TEST(LintScript, SuppressionComment) {
  EXPECT_FALSE(has_rule(
      check_script("# pfi-lint: allow unused-var\nset x 1\n"),
      "unused-var"));
  EXPECT_TRUE(check_script("# pfi-lint: allow all\nbogus_cmd $nope\n")
                  .empty());
}

// ---------------------------------------------------------------------------
// Flow-sensitive passes (the v2 dataflow engine)
// ---------------------------------------------------------------------------

// The defect class the v1 flow-insensitive analyzer provably cannot flag: a
// variable that IS defined somewhere in the scope (so the def/use sets
// intersect cleanly) but not on every path reaching the use.
TEST(LintFlow, PathSpecificUseBeforeDef) {
  const auto diags = check_script(
      "#%receive\n"
      "set t [msg_type cur_msg]\n"
      "if {$t eq \"gmp-ack\"} { set x 1 }\n"
      "msg_log $x\n");
  const Diagnostic* d = find_rule(diags, "use-before-def");
  ASSERT_NE(d, nullptr);
  // Filter scopes persist across invocations, so a path-specific gap is a
  // warning (a previous message may have taken the assigning branch)...
  EXPECT_EQ(d->severity, Severity::kWarning);
  // ...and the hint names the branch that leaves the variable unassigned.
  EXPECT_NE(d->hint.find("line 3"), std::string::npos) << d->hint;

  // Both branches assign: definitely assigned, no diagnostic.
  EXPECT_FALSE(has_rule(
      check_script("#%receive\n"
                   "set t [msg_type cur_msg]\n"
                   "if {$t eq \"gmp-ack\"} { set x 1 } else { set x 2 }\n"
                   "msg_log $x\n"),
      "use-before-def"));
}

TEST(LintFlow, StraightLineUseBeforeDefInSetup) {
  // v1 sees `x` in the scope's def set and stays silent; the CFG knows the
  // use executes first. Setup runs exactly once, so this is an error.
  const auto diags = check_script("#%setup\nmsg_log $x\nset x 1\n");
  const Diagnostic* d = find_rule(diags, "use-before-def");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->hint.find("line 3"), std::string::npos) << d->hint;
}

TEST(LintFlow, ZeroIterationLoopPath) {
  // The loop body may never run; a use after the loop is path-specific.
  EXPECT_TRUE(has_rule(
      check_script("#%receive\n"
                   "while {[msg_type cur_msg] eq \"gmp-ack\"} { set n 1 }\n"
                   "msg_log $n\n"),
      "use-before-def"));
}

TEST(LintFlow, InfoExistsChecksArePresenceAware) {
  // Guarding with `info exists` is the idiomatic "first invocation" check;
  // the engine must not flag the guarded use.
  EXPECT_FALSE(has_rule(
      check_script("#%receive\n"
                   "if {[info exists seen]} { msg_log $seen }\n"
                   "set seen 1\n"),
      "use-before-def"));
}

TEST(LintFlow, ConstantGuardMakesLoopInfinite) {
  // v1's literal scan only catches `while {1}`; constant propagation folds
  // the variable guard to the same verdict.
  const auto diags =
      check_script("#%setup\nset go 1\nwhile {$go} { msg_log tick }\n");
  EXPECT_TRUE(has_rule(diags, "infinite-loop"));
  // A body that clears the flag exits: no diagnostic.
  EXPECT_FALSE(has_rule(
      check_script("#%setup\nset go 1\nwhile {$go} { set go 0 }\n"),
      "infinite-loop"));
}

TEST(LintFlow, InvariantLoopGuard) {
  // Non-constant guard, but nothing in the body can change it.
  EXPECT_TRUE(has_rule(
      check_script("#%receive\n"
                   "set t [msg_type cur_msg]\n"
                   "while {$t eq \"gmp-ack\"} { msg_log spin }\n"),
      "invariant-loop"));
  EXPECT_FALSE(has_rule(
      check_script("#%receive\n"
                   "set n 3\n"
                   "while {$n > 0} { incr n -1 }\n"),
      "invariant-loop"));
}

TEST(LintFlow, IntervalAnalysisBoundsLoopTripCount) {
  // Init/step/bound are all known: the trip count is computable and
  // exceeds the interpreter's iteration budget.
  const auto diags = check_script(
      "#%setup\nset i 0\nwhile {$i < 20000000} { incr i }\n");
  const Diagnostic* d = find_rule(diags, "infinite-loop");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("iteration budget"), std::string::npos)
      << d->message;
  // The same shape under the budget is fine.
  EXPECT_FALSE(has_rule(
      check_script("#%setup\nset i 0\nwhile {$i < 200} { incr i }\n"),
      "infinite-loop"));
}

TEST(LintFlow, UnusedProc) {
  EXPECT_TRUE(has_rule(
      check_script("#%setup\nproc helper {} { msg_log hi }\n"),
      "unused-proc"));
  EXPECT_FALSE(has_rule(
      check_script("#%setup\nproc helper {} { msg_log hi }\nhelper\n"),
      "unused-proc"));
}

// ---------------------------------------------------------------------------
// Suppressions v2: per-line adjacency, allow-file, unused-suppression
// ---------------------------------------------------------------------------

TEST(LintSuppress, AllowCoversOnlyTheNextLine) {
  const auto diags = check_script(
      "# pfi-lint: allow unused-var\n"
      "set x 1\n"
      "set y 2\n");
  EXPECT_FALSE(std::any_of(diags.begin(), diags.end(), [](const Diagnostic& d) {
    return d.rule == "unused-var" && d.message.find("\"x\"") != std::string::npos;
  }));
  EXPECT_TRUE(std::any_of(diags.begin(), diags.end(), [](const Diagnostic& d) {
    return d.rule == "unused-var" && d.message.find("\"y\"") != std::string::npos;
  }));
}

TEST(LintSuppress, AllowFileCoversTheWholeFile) {
  const auto diags = check_script(
      "# pfi-lint: allow-file unused-var\n"
      "set x 1\n"
      "set y 2\n");
  EXPECT_FALSE(has_rule(diags, "unused-var"));
}

TEST(LintSuppress, UnusedSuppressionIsDiagnosed) {
  const auto diags = check_script(
      "# pfi-lint: allow infinite-loop\n"
      "set x 1\n"
      "msg_log $x\n");
  const Diagnostic* d = find_rule(diags, "unused-suppression");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("infinite-loop"), std::string::npos);
  // A suppression that fires is not reported.
  EXPECT_FALSE(has_rule(
      check_script("# pfi-lint: allow unused-var\nset x 1\n"),
      "unused-suppression"));
}

// ---------------------------------------------------------------------------
// Registry completeness: the table cannot drift from the live interpreters
// ---------------------------------------------------------------------------

TEST(LintRegistry, CoreCommandsMatchFreshInterp) {
  script::Interp interp;
  std::set<std::string> live;
  for (const auto& n : interp.command_names()) live.insert(n);
  std::set<std::string> table;
  for (const auto& sig : builtin_registry()) {
    if (sig.origin == Origin::kCore) table.insert(sig.name);
  }
  EXPECT_EQ(live, table);
}

TEST(LintRegistry, FilterCommandsMatchPfiLayer) {
  sim::Scheduler sched;
  core::PfiConfig cfg;
  cfg.node_name = "lint";
  cfg.stub = std::make_shared<core::ToyStub>();
  cfg.sync = std::make_shared<core::SyncBus>();
  core::PfiLayer layer{sched, cfg};

  std::set<std::string> live;
  for (const auto& n : layer.send_interp().command_names()) live.insert(n);
  std::set<std::string> table;
  for (const auto& sig : builtin_registry()) {
    if (sig.origin == Origin::kCore || sig.origin == Origin::kFilter) {
      table.insert(sig.name);
    }
  }
  EXPECT_EQ(live, table);
}

TEST(LintRegistry, DriverCommandsMatchScriptedDriver) {
  sim::Scheduler sched;
  core::ScriptedDriver::Config cfg;
  cfg.stub = std::make_shared<core::ToyStub>();
  core::ScriptedDriver driver{sched, cfg};

  std::set<std::string> live;
  for (const auto& n : driver.interp().command_names()) live.insert(n);
  for (const auto& sig : builtin_registry()) {
    if (sig.origin == Origin::kDriver) {
      EXPECT_TRUE(live.contains(sig.name)) << sig.name;
    }
  }
}

// ---------------------------------------------------------------------------
// Schedule / spec rules
// ---------------------------------------------------------------------------

FaultEvent event(const std::string& type, FaultKind kind, int occurrence) {
  FaultEvent e;
  e.type = type;
  e.kind = kind;
  e.occurrence = occurrence;
  return e;
}

TEST(LintSchedule, EmptySchedule) {
  EXPECT_TRUE(has_rule(check_schedule({}, "gmp"), "empty-schedule"));
  FaultSchedule s;
  s.events.push_back(event("gmp-commit", FaultKind::kDrop, 1));
  EXPECT_TRUE(check_schedule(s, "gmp").empty());
}

TEST(LintSchedule, UnknownMessageType) {
  FaultSchedule s;
  s.events.push_back(event("gmp-bogus", FaultKind::kDrop, 1));
  EXPECT_TRUE(has_rule(check_schedule(s, "gmp"), "unknown-message-type"));
  s.events[0].type = "*";
  EXPECT_TRUE(check_schedule(s, "gmp").empty());
}

TEST(LintSchedule, BadOccurrence) {
  FaultSchedule s;
  s.events.push_back(event("gmp-commit", FaultKind::kDrop, 0));
  const auto diags = check_schedule(s, "gmp");
  EXPECT_TRUE(has_rule(diags, "bad-occurrence"));
  EXPECT_TRUE(has_errors(diags));
}

TEST(LintSchedule, NoOpFaults) {
  FaultSchedule s;
  s.events.push_back(event("gmp-commit", FaultKind::kDelay, 1));
  s.events[0].delay = 0;
  EXPECT_TRUE(has_rule(check_schedule(s, "gmp"), "no-op-fault"));
  FaultSchedule d;
  d.events.push_back(event("gmp-commit", FaultKind::kDuplicate, 1));
  d.events[0].copies = 0;
  EXPECT_TRUE(has_rule(check_schedule(d, "gmp"), "no-op-fault"));
}

TEST(LintSchedule, DegenerateReorder) {
  FaultSchedule s;
  s.events.push_back(event("gmp-commit", FaultKind::kReorder, 1));
  s.events[0].batch = 1;
  EXPECT_TRUE(has_rule(check_schedule(s, "gmp"), "degenerate-reorder"));
}

TEST(LintSchedule, DuplicateEvent) {
  FaultSchedule s;
  s.events.push_back(event("gmp-commit", FaultKind::kDrop, 2));
  s.events.push_back(event("gmp-commit", FaultKind::kDrop, 2));
  EXPECT_TRUE(has_rule(check_schedule(s, "gmp"), "duplicate-event"));
}

TEST(LintSchedule, DropThenDelayConflict) {
  FaultSchedule s;
  s.events.push_back(event("gmp-commit", FaultKind::kDrop, 2));
  s.events.push_back(event("gmp-commit", FaultKind::kDelay, 2));
  const auto diags = check_schedule(s, "gmp");
  EXPECT_TRUE(has_rule(diags, "conflicting-faults"));
  EXPECT_TRUE(has_errors(diags));
  // Different occurrences never conflict.
  s.events[1].occurrence = 3;
  EXPECT_FALSE(has_rule(check_schedule(s, "gmp"), "conflicting-faults"));
  // Different sides never conflict either.
  s.events[1].occurrence = 2;
  s.events[1].on_send = false;
  EXPECT_FALSE(has_rule(check_schedule(s, "gmp"), "conflicting-faults"));
}

TEST(LintSchedule, ReorderWindowConflicts) {
  FaultSchedule s;
  s.events.push_back(event("gmp-commit", FaultKind::kReorder, 1));
  s.events[0].batch = 3;  // window [1,3]
  s.events.push_back(event("gmp-commit", FaultKind::kReorder, 3));
  s.events[1].batch = 2;  // window [3,4]: overlaps
  EXPECT_TRUE(has_rule(check_schedule(s, "gmp"), "overlapping-windows"));
  s.events[1].occurrence = 4;  // window [4,5]: disjoint
  EXPECT_FALSE(has_rule(check_schedule(s, "gmp"), "overlapping-windows"));
  // A drop inside a hold window can never fire.
  s.events[1] = event("gmp-commit", FaultKind::kDrop, 2);
  EXPECT_TRUE(has_rule(check_schedule(s, "gmp"), "conflicting-faults"));
}

TEST(LintSpec, BadOracle) {
  CampaignSpec spec;
  spec.protocol = "gmp";
  spec.oracle = "atomic";  // a tpc oracle
  spec.types = {"gmp-commit"};
  const auto diags = check_spec(spec);
  const auto* d = find_rule(diags, "bad-oracle");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->hint.find("agreement"), std::string::npos);
  spec.oracle = "agreement";
  EXPECT_TRUE(check_spec(spec).empty());
}

TEST(LintSpec, EmptyFaultWindow) {
  CampaignSpec spec;
  spec.oracle = "agreement";
  spec.types = {"gmp-commit"};
  spec.warmup = sim::sec(80);
  spec.duration = sim::sec(70);
  const auto diags = check_spec(spec);
  EXPECT_TRUE(has_rule(diags, "empty-fault-window"));
  EXPECT_TRUE(has_errors(diags));
}

TEST(LintSpec, BadTarget) {
  CampaignSpec spec;
  spec.oracle = "agreement";
  spec.types = {"gmp-commit"};
  spec.target_node = 5;  // nodes = 3
  EXPECT_TRUE(has_rule(check_spec(spec), "bad-target"));
}

TEST(LintSpec, MissingScript) {
  CampaignSpec spec;
  spec.oracle = "agreement";
  spec.script_files = {"/nonexistent/filter.tcl"};
  const auto diags = check_spec(spec);
  EXPECT_TRUE(has_rule(diags, "missing-script"));
  EXPECT_TRUE(has_errors(diags));
}

TEST(LintSpec, BadScenario) {
  const auto diags = check_spec_text(
      "name t\nprotocol tcp\noracle alive\ntypes tcp-data\nfaults drop\n"
      "scenario flood\n",
      "x.spec");
  const auto* d = find_rule(diags, "bad-scenario");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->line, 6);
  EXPECT_NE(d->hint.find("bulk"), std::string::npos);
  // Scenarios are a tcp-only axis: the same value is rejected under gmp.
  EXPECT_TRUE(has_rule(
      check_spec_text("name t\nprotocol gmp\noracle agreement\n"
                      "types gmp-commit\nfaults drop\nscenario bulk\n",
                      "x.spec"),
      "bad-scenario"));
  // A known tcp scenario is clean.
  EXPECT_FALSE(has_rule(
      check_spec_text("name t\nprotocol tcp\noracle alive\ntypes tcp-data\n"
                      "faults drop\nscenario bulk\n",
                      "x.spec"),
      "bad-scenario"));
}

TEST(LintSpec, SpecTextParseFailure) {
  const auto diags = check_spec_text("protocol gmp\nbogus_key 1\n", "x.spec");
  ASSERT_TRUE(has_rule(diags, "parse-error"));
  EXPECT_EQ(diags[0].line, 2);
}

TEST(LintSpec, SpecTextLineNumbers) {
  const auto diags = check_spec_text(
      "name t\nprotocol gmp\noracle atomic\ntypes gmp-commit\n", "x.spec");
  const auto* d = find_rule(diags, "bad-oracle");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->line, 3);
}

// ---------------------------------------------------------------------------
// Clean corpus: everything under scripts/ lints without errors
// ---------------------------------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in{path};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(LintCorpus, ShippedScriptsAndSpecsAreClean) {
  int checked = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(PFI_SCRIPTS_DIR)) {
    const std::string path = entry.path().string();
    const std::string ext = entry.path().extension().string();
    std::vector<Diagnostic> diags;
    if (ext == ".tcl") {
      diags = check_script(slurp(path), path);
    } else if (ext == ".spec") {
      diags = check_spec_text(slurp(path), path);
    } else {
      continue;
    }
    ++checked;
    // Script paths inside specs resolve relative to the campaign CWD, so
    // from the test runner they may fall back to the spec's directory —
    // a warning. Errors mean a genuinely broken shipped artifact.
    for (const auto& d : diags) {
      EXPECT_NE(d.severity, Severity::kError)
          << path << ": " << format_text(d);
    }
  }
  EXPECT_GT(checked, 5);  // the corpus is actually there
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

TEST(LintJson, ByteDeterministic) {
  const std::string script =
      "#%setup\nset a 1\n#%receive\nbogus $b\nif {2} { xDrop x y z }\n";
  const auto one = diagnostics_json(check_script(script, "t.tcl"));
  const auto two = diagnostics_json(check_script(script, "t.tcl"));
  EXPECT_EQ(one, two);
  EXPECT_NE(one.find("\"errors\":"), std::string::npos);
}

TEST(LintJson, SortedByPosition) {
  const auto diags =
      check_script("msg_log $late\nbogus_cmd\n", "t.tcl");
  ASSERT_GE(diags.size(), 2u);
  for (std::size_t i = 1; i < diags.size(); ++i) {
    EXPECT_LE(diags[i - 1].line, diags[i].line) << i;
  }
}

// Same-position diagnostics sort by rule id (then message, severity, hint):
// the comparator is a total order, so --json output cannot depend on pass
// execution order when multiple passes fire on one token.
TEST(LintJson, SamePositionDiagnosticsSortByRule) {
  auto mk = [](std::string rule, std::string msg) {
    Diagnostic d;
    d.severity = Severity::kWarning;
    d.rule = std::move(rule);
    d.file = "t.tcl";
    d.line = 4;
    d.col = 2;
    d.message = std::move(msg);
    return d;
  };
  std::vector<Diagnostic> diags = {mk("unused-var", "b"), mk("bad-arity", "a"),
                                   mk("constant-condition", "c"),
                                   mk("bad-arity", "a")};
  sort_diagnostics(&diags);
  const std::vector<std::string> want = {"bad-arity", "bad-arity",
                                         "constant-condition", "unused-var"};
  EXPECT_EQ(rules_of(diags), want);
  // Idempotent under re-sort: a total order has one fixed point.
  std::vector<Diagnostic> again = diags;
  std::reverse(again.begin(), again.end());
  sort_diagnostics(&again);
  EXPECT_EQ(rules_of(again), want);
}

// ---------------------------------------------------------------------------
// SARIF 2.1.0 output
// ---------------------------------------------------------------------------

TEST(LintSarif, StructuredReport) {
  const auto diags = check_script("msg_log $late\nbogus_cmd\n", "t.tcl");
  ASSERT_FALSE(diags.empty());
  const std::string doc = diagnostics_sarif(diags);
  EXPECT_NE(doc.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(doc.find("sarif-schema-2.1.0"), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"pfi_lint\""), std::string::npos);
  EXPECT_NE(doc.find("\"ruleId\":\"undefined-var\""), std::string::npos);
  EXPECT_NE(doc.find("\"uri\":\"t.tcl\""), std::string::npos);
  EXPECT_NE(doc.find("\"startLine\":1"), std::string::npos);
  // Every result's ruleIndex points into the embedded rule catalog.
  EXPECT_NE(doc.find("\"ruleIndex\":"), std::string::npos);
  for (const auto& info : rule_catalog()) {
    EXPECT_FALSE(info.description.empty()) << info.id;
  }
  // An empty diagnostic list is still a valid single-run log.
  const std::string empty_doc = diagnostics_sarif({});
  EXPECT_NE(empty_doc.find("\"results\":[]"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Result.line plumbing (the interpreter fix the linter's positions ride on)
// ---------------------------------------------------------------------------

TEST(ResultLine, TopLevelErrorCarriesLine) {
  script::Interp interp;
  const auto r = interp.eval("set a 1\nbogus_cmd\nset b 2\n");
  EXPECT_TRUE(r.is_error());
  EXPECT_EQ(r.line, 2);
}

TEST(ResultLine, NestedBodyReportsOuterCommandLine) {
  script::Interp interp;
  const auto r = interp.eval("set a 1\nif {$a} {\n  bogus_cmd\n}\n");
  EXPECT_TRUE(r.is_error());
  // The `if` body is a separate string; the outermost eval re-stamps with
  // the line of its own failing top-level command.
  EXPECT_EQ(r.line, 2);
}

// ---------------------------------------------------------------------------
// Campaign integration: --lint produces deterministic lint_error records
// ---------------------------------------------------------------------------

TEST(LintCampaign, CellWithBadScheduleIsRejected) {
  CampaignSpec spec;
  spec.protocol = "gmp";
  spec.oracle = "agreement";
  spec.types = {"gmp-commit"};
  spec.faults = {FaultKind::kDrop};
  spec.first_occurrence = 0;  // bad-occurrence in every planned cell
  const auto cells = campaign::plan(spec);
  ASSERT_FALSE(cells.empty());
  const auto diags = check_cell(cells[0]);
  EXPECT_TRUE(has_errors(diags)) << rules_of(diags).size();

  const auto r1 = campaign::record_json(lint_error_result(cells[0], diags));
  const auto r2 = campaign::record_json(lint_error_result(cells[0], diags));
  EXPECT_EQ(r1, r2);
  EXPECT_NE(r1.find("\"verdict\":\"error\""), std::string::npos);
  EXPECT_NE(r1.find("lint: [bad-occurrence]"), std::string::npos);
}

TEST(LintCampaign, CleanCellPassesLint) {
  CampaignSpec spec;
  spec.protocol = "gmp";
  spec.oracle = "agreement";
  spec.types = {"gmp-commit"};
  spec.faults = {FaultKind::kDrop};
  const auto cells = campaign::plan(spec);
  ASSERT_FALSE(cells.empty());
  EXPECT_TRUE(check_cell(cells[0]).empty());
}

TEST(LintCampaign, ScriptCellLintsTheFile) {
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/lint_bad_filter.tcl";
  {
    std::ofstream out{path};
    out << "msg_log $undefined_here\n";
  }
  campaign::RunCell cell;
  cell.id = "gmp/bad/s1";
  cell.protocol = "gmp";
  cell.oracle = "agreement";
  cell.script_file = path;
  const auto diags = check_cell(cell);
  EXPECT_TRUE(has_rule(diags, "undefined-var"));

  cell.script_file = dir + "/does_not_exist.tcl";
  EXPECT_TRUE(has_rule(check_cell(cell), "missing-script"));
}

// ---------------------------------------------------------------------------
// Conformance cells and the .pdt timeline rules
// ---------------------------------------------------------------------------

TEST(LintCampaign, ConformanceCellLintsTheTimeline) {
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/lint_conform_dead.pdt";
  {
    std::ofstream out{path};
    // The inject opens at the end of the run: dead-timeline.
    out << "duration 10s\nat 10s inject drop tcp-data\n";
  }
  campaign::RunCell cell;
  cell.id = "tcp/sunos/dead/s1";
  cell.protocol = "tcp";
  cell.oracle = "conformance";
  cell.conform_file = path;
  EXPECT_TRUE(has_rule(check_cell(cell), "dead-timeline"));

  cell.conform_file = dir + "/does_not_exist.pdt";
  EXPECT_TRUE(has_rule(check_cell(cell), "missing-script"));

  // The conformance oracle without a timeline is itself a lint error.
  cell.conform_file.clear();
  const auto diags = check_cell(cell);
  const auto* d = find_rule(diags, "bad-oracle");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find(".pdt timeline"), std::string::npos);
}

TEST(LintCampaign, CellWithBadScenarioIsRejected) {
  campaign::RunCell cell;
  cell.id = "tcp/sunos/x/s1";
  cell.protocol = "tcp";
  cell.oracle = "alive";
  cell.scenario = "flood";
  EXPECT_TRUE(has_rule(check_cell(cell), "bad-scenario"));
  cell.scenario = "zero-window";
  EXPECT_FALSE(has_rule(check_cell(cell), "bad-scenario"));
  // Scenario values never attach to non-tcp protocols.
  cell.protocol = "gmp";
  cell.oracle = "agreement";
  cell.scenario = "bulk";
  EXPECT_TRUE(has_rule(check_cell(cell), "bad-scenario"));
}

TEST(LintRegistry, ConformanceRulesAreCatalogued) {
  for (const char* rule :
       {"bad-scenario", "dead-timeline", "expect-before-inject",
        "unknown-directive", "unreachable-expect"}) {
    EXPECT_GE(rule_index(rule), 0) << rule;
  }
  // tcp accepts the conformance oracle.
  const auto& oracles = protocol_oracles("tcp");
  EXPECT_NE(std::find(oracles.begin(), oracles.end(), "conformance"),
            oracles.end());
}

TEST(LintCorpus, ShippedTimelinesAreClean) {
  int checked = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(PFI_SUITES_DIR "/tcp")) {
    if (entry.path().extension().string() != ".pdt") continue;
    const std::string path = entry.path().string();
    const auto diags = check_conformance(slurp(path), path);
    EXPECT_TRUE(diags.empty()) << path << ": " << format_text(diags.front());
    ++checked;
  }
  EXPECT_EQ(checked, 5);  // the paper's Tables 1-4 corpus
}

}  // namespace
}  // namespace pfi::lint
