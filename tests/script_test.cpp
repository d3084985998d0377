// Conformance tests for the Tcl-subset interpreter: syntax, substitution,
// control flow, procs, lists, strings, and host-command integration.
#include <gtest/gtest.h>

#include "script/interp.hpp"

namespace pfi::script {
namespace {

std::string eval_ok(Interp& in, std::string_view script) {
  Result r = in.eval(script);
  EXPECT_TRUE(r.is_ok()) << "script failed: " << r.value;
  return r.value;
}

TEST(Interp, SetAndRead) {
  Interp in;
  EXPECT_EQ(eval_ok(in, "set x 42"), "42");
  EXPECT_EQ(eval_ok(in, "set x"), "42");
}

TEST(Interp, VariableSubstitution) {
  Interp in;
  eval_ok(in, "set name world");
  EXPECT_EQ(eval_ok(in, "set msg \"hello $name\""), "hello world");
}

TEST(Interp, BracedVariableSubstitution) {
  Interp in;
  eval_ok(in, "set a 1");
  EXPECT_EQ(eval_ok(in, "set b ${a}x"), "1x");
}

TEST(Interp, UnknownVariableIsError) {
  Interp in;
  Result r = in.eval("set y $nope");
  EXPECT_TRUE(r.is_error());
  EXPECT_NE(r.value.find("no such variable"), std::string::npos);
}

TEST(Interp, UnknownCommandIsError) {
  Interp in;
  Result r = in.eval("frobnicate 1 2");
  EXPECT_TRUE(r.is_error());
  EXPECT_NE(r.value.find("invalid command name"), std::string::npos);
}

TEST(Interp, CommandSubstitution) {
  Interp in;
  EXPECT_EQ(eval_ok(in, "set x [expr {2 + 3}]"), "5");
}

TEST(Interp, NestedCommandSubstitution) {
  Interp in;
  EXPECT_EQ(eval_ok(in, "expr {[expr {1 + 1}] * [expr {2 + 2}]}"), "8");
}

TEST(Interp, BracesSuppressSubstitution) {
  Interp in;
  eval_ok(in, "set x 9");
  EXPECT_EQ(eval_ok(in, "set y {$x [z]}"), "$x [z]");
}

TEST(Interp, BackslashEscapes) {
  Interp in;
  EXPECT_EQ(eval_ok(in, R"(set x "a\tb\nc")"), "a\tb\nc");
  EXPECT_EQ(eval_ok(in, R"(set y \$notavar)"), "$notavar");
}

TEST(Interp, SemicolonSeparatesCommands) {
  Interp in;
  EXPECT_EQ(eval_ok(in, "set a 1; set b 2; expr {$a + $b}"), "3");
}

TEST(Interp, CommentsIgnored) {
  Interp in;
  EXPECT_EQ(eval_ok(in, "# a comment\nset x 5\n# another"), "5");
}

TEST(Interp, PaperExampleScriptRuns) {
  // The drop-all-ACKs script from paper §3, against a stubbed environment.
  Interp in;
  int drops = 0;
  in.register_command("msg_log", [](Interp&, const std::vector<std::string>&) {
    return Result::ok();
  });
  in.register_command("msg_type",
                      [](Interp&, const std::vector<std::string>&) {
                        return Result::ok("1");  // an ACK
                      });
  in.register_command("xDrop",
                      [&drops](Interp&, const std::vector<std::string>&) {
                        ++drops;
                        return Result::ok();
                      });
  eval_ok(in, R"tcl(
# Message types are ACK, NACK, and GACK.
set ACK 0x1
set NACK 0x2
set GACK 0x4
puts -nonewline "receive filter: "
msg_log cur_msg
set type [msg_type cur_msg]
if {$type == $ACK} {
  xDrop cur_msg
}
)tcl");
  EXPECT_EQ(drops, 1);
  EXPECT_EQ(in.output(), "receive filter: ");
}

TEST(Interp, StatePersistsAcrossEvals) {
  Interp in;
  eval_ok(in, "set count 0");
  for (int i = 0; i < 5; ++i) eval_ok(in, "incr count");
  EXPECT_EQ(eval_ok(in, "set count"), "5");
}

TEST(Interp, IncrWithAmountAndMissingVar) {
  Interp in;
  EXPECT_EQ(eval_ok(in, "incr fresh 10"), "10");
  EXPECT_EQ(eval_ok(in, "incr fresh -3"), "7");
}

TEST(Interp, AppendBuildsStrings) {
  Interp in;
  eval_ok(in, "append s a b c");
  EXPECT_EQ(eval_ok(in, "set s"), "abc");
}

TEST(Interp, UnsetRemovesVariable) {
  Interp in;
  eval_ok(in, "set x 1");
  eval_ok(in, "unset x");
  EXPECT_EQ(eval_ok(in, "info exists x"), "0");
}

TEST(Interp, IfElseifElse) {
  Interp in;
  eval_ok(in, "set x 5");
  EXPECT_EQ(eval_ok(in, R"(
if {$x < 3} { set r low } elseif {$x < 10} { set r mid } else { set r high }
set r)"),
            "mid");
}

TEST(Interp, IfWithThenKeyword) {
  Interp in;
  EXPECT_EQ(eval_ok(in, "if {1} then { set r yes }\nset r"), "yes");
}

TEST(Interp, IfFalseWithoutElseYieldsEmpty) {
  Interp in;
  EXPECT_EQ(eval_ok(in, "if {0} { set r x }"), "");
}

TEST(Interp, WhileLoopWithBreakContinue) {
  Interp in;
  EXPECT_EQ(eval_ok(in, R"(
set sum 0
set i 0
while {$i < 10} {
  incr i
  if {$i == 3} { continue }
  if {$i == 6} { break }
  set sum [expr {$sum + $i}]
}
set sum)"),
            "12");  // 1+2+4+5
}

TEST(Interp, ForLoop) {
  Interp in;
  EXPECT_EQ(eval_ok(in, R"(
set total 0
for {set i 1} {$i <= 4} {incr i} { set total [expr {$total + $i}] }
set total)"),
            "10");
}

TEST(Interp, ForeachIteratesList) {
  Interp in;
  EXPECT_EQ(eval_ok(in, R"(
set out ""
foreach x {a b c} { append out $x- }
set out)"),
            "a-b-c-");
}

TEST(Interp, InfiniteLoopIsStopped) {
  Interp in;
  in.set_max_loop_iterations(1000);
  Result r = in.eval("while {1} { }");
  EXPECT_TRUE(r.is_error());
}

TEST(Interp, ProcDefinesCommand) {
  Interp in;
  eval_ok(in, "proc double {x} { return [expr {$x * 2}] }");
  EXPECT_EQ(eval_ok(in, "double 21"), "42");
}

TEST(Interp, ProcLocalScope) {
  Interp in;
  eval_ok(in, "set x global-value");
  eval_ok(in, "proc f {} { set x local; return $x }");
  EXPECT_EQ(eval_ok(in, "f"), "local");
  EXPECT_EQ(eval_ok(in, "set x"), "global-value");
}

TEST(Interp, ProcGlobalDeclaration) {
  Interp in;
  eval_ok(in, "set counter 0");
  eval_ok(in, "proc bump {} { global counter; incr counter }");
  eval_ok(in, "bump");
  eval_ok(in, "bump");
  EXPECT_EQ(eval_ok(in, "set counter"), "2");
}

TEST(Interp, ProcDefaultArguments) {
  Interp in;
  eval_ok(in, "proc greet {{name world}} { return hello-$name }");
  EXPECT_EQ(eval_ok(in, "greet"), "hello-world");
  EXPECT_EQ(eval_ok(in, "greet there"), "hello-there");
}

TEST(Interp, ProcVarArgs) {
  Interp in;
  eval_ok(in, "proc count {args} { return [llength $args] }");
  EXPECT_EQ(eval_ok(in, "count a b c d"), "4");
}

TEST(Interp, ProcWrongArityIsError) {
  Interp in;
  eval_ok(in, "proc two {a b} { }");
  EXPECT_TRUE(in.eval("two 1").is_error());
  EXPECT_TRUE(in.eval("two 1 2 3").is_error());
}

TEST(Interp, ProcImplicitReturnValue) {
  Interp in;
  eval_ok(in, "proc last {} { set a 1; set b 2 }");
  EXPECT_EQ(eval_ok(in, "last"), "2");
}

TEST(Interp, RecursionDepthLimited) {
  Interp in;
  eval_ok(in, "proc f {} { f }");
  EXPECT_TRUE(in.eval("f").is_error());
}

TEST(Interp, CatchCapturesErrors) {
  Interp in;
  EXPECT_EQ(eval_ok(in, "catch {error boom} msg"), "1");
  EXPECT_EQ(eval_ok(in, "set msg"), "boom");
  EXPECT_EQ(eval_ok(in, "catch {set ok 1} msg"), "0");
}

TEST(Interp, EvalCommand) {
  Interp in;
  eval_ok(in, "set cmd {set q 7}");
  eval_ok(in, "eval $cmd");
  EXPECT_EQ(eval_ok(in, "set q"), "7");
}

TEST(Interp, StringOps) {
  Interp in;
  EXPECT_EQ(eval_ok(in, "string length hello"), "5");
  EXPECT_EQ(eval_ok(in, "string index hello 1"), "e");
  EXPECT_EQ(eval_ok(in, "string index hello end"), "o");
  EXPECT_EQ(eval_ok(in, "string range hello 1 3"), "ell");
  EXPECT_EQ(eval_ok(in, "string toupper abc"), "ABC");
  EXPECT_EQ(eval_ok(in, "string tolower AbC"), "abc");
  EXPECT_EQ(eval_ok(in, "string trim {  x  }"), "x");
  EXPECT_EQ(eval_ok(in, "string first ll hello"), "2");
  EXPECT_EQ(eval_ok(in, "string first zz hello"), "-1");
  EXPECT_EQ(eval_ok(in, "string compare a b"), "-1");
  EXPECT_EQ(eval_ok(in, "string equal abc abc"), "1");
  EXPECT_EQ(eval_ok(in, "string repeat ab 3"), "ababab");
}

TEST(Interp, StringMatchGlob) {
  Interp in;
  EXPECT_EQ(eval_ok(in, "string match tcp-* tcp-data"), "1");
  EXPECT_EQ(eval_ok(in, "string match tcp-* gmp-ack"), "0");
  EXPECT_EQ(eval_ok(in, "string match {tcp-?yn} tcp-syn"), "1");
  EXPECT_EQ(eval_ok(in, "string match {[a-c]x} bx"), "1");
  EXPECT_EQ(eval_ok(in, "string match {[a-c]x} dx"), "0");
}

TEST(Interp, ListOps) {
  Interp in;
  EXPECT_EQ(eval_ok(in, "list a b {c d}"), "a b {c d}");
  EXPECT_EQ(eval_ok(in, "llength {a b {c d}}"), "3");
  EXPECT_EQ(eval_ok(in, "lindex {a b c} 1"), "b");
  EXPECT_EQ(eval_ok(in, "lindex {a b c} end"), "c");
  EXPECT_EQ(eval_ok(in, "lindex {a b c} 99"), "");
  EXPECT_EQ(eval_ok(in, "lrange {a b c d e} 1 3"), "b c d");
  EXPECT_EQ(eval_ok(in, "lsearch {x y z} y"), "1");
  EXPECT_EQ(eval_ok(in, "lsearch {x y z} q"), "-1");
}

TEST(Interp, LappendAccumulates) {
  Interp in;
  eval_ok(in, "lappend mylist a");
  eval_ok(in, "lappend mylist {b c}");
  EXPECT_EQ(eval_ok(in, "llength $mylist"), "2");
  EXPECT_EQ(eval_ok(in, "lindex $mylist 1"), "b c");
}

TEST(Interp, ArrayElementSetAndGet) {
  Interp in;
  eval_ok(in, "set a(x) 1");
  eval_ok(in, "set a(y) 2");
  EXPECT_EQ(eval_ok(in, "set a(x)"), "1");
  EXPECT_EQ(eval_ok(in, "expr {$a(x) + $a(y)}"), "3");
}

TEST(Interp, ArrayIndexSubstituted) {
  Interp in;
  eval_ok(in, "set key foo");
  eval_ok(in, "set a(foo) 42");
  EXPECT_EQ(eval_ok(in, "set v $a($key)"), "42");
  EXPECT_EQ(eval_ok(in, "expr {$a($key) * 2}"), "84");
}

TEST(Interp, ArrayTracksPerKeyState) {
  // The filter-script idiom: per-sequence-number timestamps.
  Interp in;
  eval_ok(in, R"(
foreach seq {10 20 10 30 10} {
  if {![info exists seen($seq)]} { set seen($seq) 0 }
  incr seen($seq)
}
)");
  EXPECT_EQ(eval_ok(in, "set seen(10)"), "3");
  EXPECT_EQ(eval_ok(in, "set seen(20)"), "1");
  EXPECT_EQ(eval_ok(in, "array size seen"), "3");
}

TEST(Interp, ArrayCommand) {
  Interp in;
  eval_ok(in, "array set colors {red ff0000 green 00ff00}");
  EXPECT_EQ(eval_ok(in, "array exists colors"), "1");
  EXPECT_EQ(eval_ok(in, "array exists nothing"), "0");
  EXPECT_EQ(eval_ok(in, "array size colors"), "2");
  EXPECT_EQ(eval_ok(in, "lsort [array names colors]"), "green red");
  EXPECT_EQ(eval_ok(in, "set colors(red)"), "ff0000");
  eval_ok(in, "array unset colors");
  EXPECT_EQ(eval_ok(in, "array exists colors"), "0");
}

TEST(Interp, ArrayGlobalAliasInProc) {
  Interp in;
  eval_ok(in, "set hits(a) 1");
  eval_ok(in, "proc bump {k} { global hits; incr hits($k) }");
  eval_ok(in, "bump a");
  eval_ok(in, "bump b");
  EXPECT_EQ(eval_ok(in, "set hits(a)"), "2");
  EXPECT_EQ(eval_ok(in, "set hits(b)"), "1");
  eval_ok(in, "proc names {} { global hits; return [lsort [array names hits]] }");
  EXPECT_EQ(eval_ok(in, "names"), "a b");
}

TEST(Interp, UnterminatedArrayReferenceIsError) {
  Interp in;
  eval_ok(in, "set a(x) 1");
  EXPECT_TRUE(in.eval("set v $a(x").is_error());
  EXPECT_EQ(in.eval_expr("$a(x").value, "missing ')' in array reference");
  EXPECT_EQ(in.eval_expr("$ + 1").value, "can't read \"\": no such variable");
}

// expr operands follow the command grammar: each of these is right as a
// command word and must be right inside expr too.
TEST(Interp, ExprArrayIndexSubstitutesCommands) {
  Interp in;
  eval_ok(in, "set a(k) 5");
  EXPECT_EQ(eval_ok(in, "set x $a([set i k])"), "5");
  EXPECT_EQ(eval_ok(in, "expr {$a([set i k])}"), "5");
}

TEST(Interp, ExprQuotedStringAppliesEscapes) {
  Interp in;
  EXPECT_EQ(eval_ok(in, "set x \"a\\tb\""), "a\tb");
  EXPECT_EQ(eval_ok(in, "expr {\"a\\tb\"}"), "a\tb");
}

TEST(Interp, ExprCommandSubstitutionSkipsEscapedBrackets) {
  Interp in;
  EXPECT_EQ(eval_ok(in, "set x [string length \\]]"), "1");
  EXPECT_EQ(eval_ok(in, "expr {[string length \\]] + 1}"), "2");
}

TEST(Interp, ExprQuotedStringSubstitutesCommands) {
  Interp in;
  EXPECT_EQ(eval_ok(in, "set x \"n[expr {1 + 1}]\""), "n2");
  EXPECT_EQ(eval_ok(in, "expr {\"n[expr {1 + 1}]\" eq \"n2\"}"), "1");
}

TEST(Interp, SwitchExactMatch) {
  Interp in;
  EXPECT_EQ(eval_ok(in, R"(
switch b {
  a { set r first }
  b { set r second }
  default { set r none }
}
set r)"),
            "second");
}

TEST(Interp, SwitchDefaultArm) {
  Interp in;
  EXPECT_EQ(eval_ok(in, R"(
switch zz { a {set r 1} default {set r dflt} }
set r)"),
            "dflt");
}

TEST(Interp, SwitchNoMatchYieldsEmpty) {
  Interp in;
  EXPECT_EQ(eval_ok(in, "switch zz { a {set r 1} }"), "");
}

TEST(Interp, SwitchGlobMode) {
  Interp in;
  eval_ok(in, "set type tcp-data");
  EXPECT_EQ(eval_ok(in, R"(
switch -glob $type {
  tcp-* { set r transport }
  gmp-* { set r membership }
  default { set r other }
}
set r)"),
            "transport");
}

TEST(Interp, SwitchFallThroughDash) {
  Interp in;
  EXPECT_EQ(eval_ok(in, R"(
switch b { a - b - c { set r abc } d { set r d } }
set r)"),
            "abc");
}

TEST(Interp, SwitchInlineArms) {
  Interp in;
  EXPECT_EQ(eval_ok(in, "switch x a {set r 1} x {set r 2}\nset r"), "2");
}

TEST(Interp, StringMapReplaces) {
  Interp in;
  EXPECT_EQ(eval_ok(in, "string map {ab X c Y} abcab"), "XYX");
  EXPECT_EQ(eval_ok(in, "string map {} untouched"), "untouched");
  EXPECT_EQ(eval_ok(in, "string map {o 0 e 3} openssl"), "0p3nssl");
}

TEST(Interp, LsortAndLreverse) {
  Interp in;
  EXPECT_EQ(eval_ok(in, "lsort {banana apple cherry}"),
            "apple banana cherry");
  EXPECT_EQ(eval_ok(in, "lsort {10 9 100}"), "10 100 9");  // lexicographic
  EXPECT_EQ(eval_ok(in, "lsort -integer {10 9 100}"), "9 10 100");
  EXPECT_EQ(eval_ok(in, "lreverse {a b c}"), "c b a");
  EXPECT_EQ(eval_ok(in, "lreverse {}"), "");
}

TEST(Interp, SplitAndJoin) {
  Interp in;
  EXPECT_EQ(eval_ok(in, "split a:b:c :"), "a b c");
  EXPECT_EQ(eval_ok(in, "join {a b c} -"), "a-b-c");
}

TEST(Interp, Format) {
  Interp in;
  EXPECT_EQ(eval_ok(in, "format %d 42"), "42");
  EXPECT_EQ(eval_ok(in, "format %05d 42"), "00042");
  EXPECT_EQ(eval_ok(in, "format %x 255"), "ff");
  EXPECT_EQ(eval_ok(in, "format %.2f 3.14159"), "3.14");
  EXPECT_EQ(eval_ok(in, "format {%s=%d} seq 9"), "seq=9");
  EXPECT_EQ(eval_ok(in, "format %%"), "%");
}

TEST(Interp, PutsCollectsOutput) {
  Interp in;
  eval_ok(in, "puts hello");
  eval_ok(in, "puts -nonewline world");
  EXPECT_EQ(in.output(), "hello\nworld");
  EXPECT_EQ(in.take_output(), "hello\nworld");
  EXPECT_TRUE(in.output().empty());
}

TEST(Interp, InfoCommandsFiltersByGlob) {
  Interp in;
  const std::string cmds = eval_ok(in, "info commands l*");
  EXPECT_NE(cmds.find("lindex"), std::string::npos);
  EXPECT_EQ(cmds.find("set"), std::string::npos);
}

TEST(Interp, HostCommandReceivesSubstitutedArgs) {
  Interp in;
  std::vector<std::string> seen;
  in.register_command("spy",
                      [&seen](Interp&, const std::vector<std::string>& a) {
                        seen = a;
                        return Result::ok("spied");
                      });
  eval_ok(in, "set v 7");
  EXPECT_EQ(eval_ok(in, "spy literal $v [expr {1+1}] {braced $v}"), "spied");
  ASSERT_EQ(seen.size(), 5u);
  EXPECT_EQ(seen[1], "literal");
  EXPECT_EQ(seen[2], "7");
  EXPECT_EQ(seen[3], "2");
  EXPECT_EQ(seen[4], "braced $v");
}

TEST(Interp, SetGlobalVisibleToScripts) {
  Interp in;
  in.set_global("external", "123");
  EXPECT_EQ(eval_ok(in, "set external"), "123");
  eval_ok(in, "set external 456");
  EXPECT_EQ(in.get_global("external").value_or(""), "456");
}

TEST(Interp, ErrorPropagatesOutOfNestedEval) {
  Interp in;
  Result r = in.eval("if {1} { while {1} { error deep } }");
  EXPECT_TRUE(r.is_error());
  EXPECT_EQ(r.value, "deep");
}

TEST(Interp, MissingBraceIsError) {
  Interp in;
  EXPECT_TRUE(in.eval("set x {unclosed").is_error());
  EXPECT_TRUE(in.eval("set x \"unclosed").is_error());
  EXPECT_TRUE(in.eval("set x [unclosed").is_error());
}

TEST(ParseList, HandlesBracesAndQuotes) {
  auto l = parse_list("a {b c} \"d e\" f");
  ASSERT_EQ(l.size(), 4u);
  EXPECT_EQ(l[1], "b c");
  EXPECT_EQ(l[2], "d e");
}

TEST(MakeList, BracesElementsWithSpaces) {
  EXPECT_EQ(make_list({"a", "b c", ""}), "a {b c} {}");
}

TEST(ParseList, RoundTripsThroughMakeList) {
  std::vector<std::string> orig{"one", "two words", "", "{", "tab\there"};
  auto round = parse_list(make_list(orig));
  // "{" cannot round-trip unescaped in this subset; check the others.
  EXPECT_EQ(round[0], "one");
  EXPECT_EQ(round[1], "two words");
  EXPECT_EQ(round[2], "");
}

// Property sweep: glob matching behaves like the reference cases.
struct GlobCase {
  const char* pattern;
  const char* text;
  bool expect;
};

class GlobMatch : public ::testing::TestWithParam<GlobCase> {};

TEST_P(GlobMatch, Matches) {
  const auto& c = GetParam();
  EXPECT_EQ(glob_match(c.pattern, c.text), c.expect)
      << c.pattern << " vs " << c.text;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, GlobMatch,
    ::testing::Values(GlobCase{"*", "", true}, GlobCase{"*", "anything", true},
                      GlobCase{"a*b", "ab", true},
                      GlobCase{"a*b", "axxxb", true},
                      GlobCase{"a*b", "axxxc", false},
                      GlobCase{"?", "x", true}, GlobCase{"?", "", false},
                      GlobCase{"a?c", "abc", true},
                      GlobCase{"*.cpp", "foo.cpp", true},
                      GlobCase{"*.cpp", "foo.hpp", false},
                      GlobCase{"a**b", "ab", true},
                      GlobCase{"[0-9][0-9]", "42", true},
                      GlobCase{"[0-9][0-9]", "4x", false},
                      GlobCase{"tcp-*", "tcp-", true}));

}  // namespace
}  // namespace pfi::script
