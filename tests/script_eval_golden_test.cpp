// Differential golden for the Tcl evaluator.
//
// Evaluates a fixed corpus and compares every observable outcome with
// tests/golden/script_eval.golden: result code, value, Result.line, puts
// output (host-command calls are logged into it too) and a sorted dump of
// the variables each entry leaves behind. The corpus is every section of
// scripts/*.tcl, scriptgen and failure-model outputs, the scripts that
// suites/tcp/*.pdt compile to, and a few hundred seeded mutants of those
// scripts that insert, delete and swap the grammar's special characters,
// so malformed input (unbalanced braces, brackets and quotes, stray `$`
// and `\`) is covered as well as the shipped scripts.
//
// Regenerate after an intentional change, and review the diff:
//   PFI_UPDATE_GOLDEN=1 ./build/tests/script_eval_golden_test
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "conformance/conformance.hpp"
#include "pfi/failure.hpp"
#include "pfi/pfi_layer.hpp"
#include "pfi/script_file.hpp"
#include "pfi/scriptgen.hpp"
#include "script/interp.hpp"
#include "search/prng.hpp"
#include "sim/scheduler.hpp"

namespace pfi::script {
namespace {

namespace fs = std::filesystem;

const std::string kGoldenPath =
    std::string(PFI_GOLDEN_DIR) + "/script_eval.golden";

/// One corpus entry: scripts evaluated in order in one fresh interpreter.
struct Entry {
  std::string name;
  std::vector<std::string> scripts;
};

/// setup, then each filter twice so state carried across messages shows.
Entry entry_of(std::string name, const std::string& setup,
               const std::string& send, const std::string& receive) {
  return {std::move(name), {setup, send, receive, send, receive}};
}

std::string read_file(const fs::path& p) {
  std::ifstream in{p};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<fs::path> files_in(const std::string& dir, const char* ext) {
  std::vector<fs::path> out;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ext) out.push_back(e.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Entry> base_corpus() {
  std::vector<Entry> out;
  for (const fs::path& p : files_in(PFI_SCRIPTS_DIR, ".tcl")) {
    const core::ScriptFile f = core::parse_script_sections(read_file(p));
    out.push_back(entry_of("scripts/" + p.filename().string(), f.setup,
                           f.send, f.receive));
  }
  namespace sg = core::scriptgen;
  const sg::ProtocolSpec spec{"toy", {"ack", "data"}};
  sg::Options gated;
  gated.warmup_occurrences = 2;
  gated.max_faults = 3;
  gated.on_send_side = false;
  for (const sg::Options& opts : {sg::Options{}, gated}) {
    for (const sg::GeneratedTest& t : sg::generate_campaign(spec, opts)) {
      out.push_back(entry_of("scriptgen/" + t.name, t.scripts.setup,
                             t.scripts.send, t.scripts.receive));
    }
  }
  sg::Window first;
  first.tag = "w0";
  first.type = "data";
  first.start = sim::msec(10);
  first.end = sim::msec(500);
  first.after = 1;
  first.count = 2;
  sg::Window second;
  second.tag = "w1";
  second.kind = sg::FaultKind::kReorder;
  const core::failure::Scripts win = sg::generate_windows({first, second});
  out.push_back(entry_of("scriptgen/windows", win.setup, win.send,
                         win.receive));
  namespace fm = core::failure;
  const std::vector<std::pair<std::string, fm::Scripts>> models = {
      {"process_crash", fm::process_crash(sim::msec(100))},
      {"link_crash", fm::link_crash(sim::msec(100))},
      {"general_omission", fm::general_omission(0.2)},
      {"timing_failure", fm::timing_failure(sim::msec(5), sim::msec(50))},
      {"byzantine_corruption", fm::byzantine_corruption(0.5, 3)},
      {"byzantine_duplication", fm::byzantine_duplication(0.5, 2)},
      {"byzantine_reorder", fm::byzantine_reorder(3)},
  };
  for (const auto& [name, s] : models) {
    out.push_back(entry_of("failure/" + name, s.setup, s.send, s.receive));
  }
  for (const fs::path& p : files_in(PFI_SUITES_DIR "/tcp", ".pdt")) {
    std::vector<lint::Diagnostic> diags;
    const auto prog = conformance::load_file(p.string(), &diags);
    if (!prog) {
      ADD_FAILURE() << p << " does not parse";
      continue;
    }
    const core::failure::Scripts s = conformance::compile(*prog);
    out.push_back(entry_of("suites/tcp/" + p.filename().string(), s.setup,
                           s.send, s.receive));
  }
  return out;
}

constexpr std::string_view kSpecial = "{}[]\"$()\\;#\n";

/// Applies one insert, delete or swap of a grammar character to `text`.
void mutate(std::string& text, search::SplitMix64& rng) {
  std::vector<std::size_t> specials;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (kSpecial.find(text[i]) != std::string_view::npos) specials.push_back(i);
  }
  const auto op = rng.below(3);
  if (op == 0 || specials.empty()) {
    const auto at = rng.below(text.size() + 1);
    text.insert(text.begin() + static_cast<long>(at),
                kSpecial[rng.below(kSpecial.size())]);
  } else if (op == 1) {
    text.erase(specials[rng.below(specials.size())], 1);
  } else {
    const std::size_t at = specials[rng.below(specials.size())];
    const std::size_t other =
        at + 1 < text.size() && rng.one_in(2) ? at + 1 : (at > 0 ? at - 1 : at);
    std::swap(text[at], text[other]);
  }
}

std::vector<Entry> mutants(const std::vector<Entry>& bases, int n) {
  search::SplitMix64 rng{20260417};
  std::vector<Entry> out;
  for (int i = 0; i < n; ++i) {
    const Entry& base = bases[rng.below(bases.size())];
    // scripts = {setup, send, receive, send, receive}: mutate a section and
    // keep the repeated filters in step with it.
    std::string sections[3] = {base.scripts[0], base.scripts[1],
                               base.scripts[2]};
    const int edits = rng.range(1, 3);
    for (int k = 0; k < edits; ++k) {
      mutate(sections[rng.below(3)], rng);
    }
    out.push_back(entry_of(base.name + " mutant " + std::to_string(i),
                           sections[0], sections[1], sections[2]));
  }
  return out;
}

std::string escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20 ||
               static_cast<unsigned char>(c) >= 0x7f) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\x%02x", static_cast<unsigned char>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// Names of the commands a PFI layer registers on top of the core set.
std::vector<std::string> host_command_names() {
  sim::Scheduler sched;
  core::PfiLayer layer{sched, core::PfiConfig{}};
  const Interp core_only;
  const auto builtin = core_only.command_names();
  const std::set<std::string> core_set(builtin.begin(), builtin.end());
  std::vector<std::string> out;
  for (const std::string& name : layer.send_interp().command_names()) {
    if (!core_set.contains(name)) out.push_back(name);
  }
  return out;
}

/// Runs one entry in a fresh interpreter whose host commands are stubs that
/// log their call and return their arguments.
std::string run_entry(const Entry& e,
                      const std::vector<std::string>& host_commands) {
  Interp in;
  in.set_max_loop_iterations(2000);
  for (const std::string& name : host_commands) {
    in.register_command(
        name, [](Interp& interp, const std::vector<std::string>& args) {
          const std::vector<std::string> rest(args.begin() + 1, args.end());
          interp.append_output("<" + make_list(args) + ">\n");
          return Result::ok(make_list(rest));
        });
  }
  std::ostringstream os;
  os << "== " << e.name << "\n";
  for (const std::string& script : e.scripts) {
    const Result r = in.eval(script);
    os << "code=" << static_cast<int>(r.code) << " line=" << r.line
       << " value=" << escape(r.value) << "\n";
    os << "out=" << escape(in.take_output()) << "\n";
  }
  auto names = in.var_names();
  std::sort(names.begin(), names.end());
  os << "vars=";
  for (const std::string& n : names) {
    os << escape(n) << "=" << escape(in.get_var(n).value_or("?")) << ";";
  }
  os << "\n";
  return os.str();
}

TEST(ScriptEvalGolden, CorpusMatchesGolden) {
  const std::vector<Entry> bases = base_corpus();
  ASSERT_GT(bases.size(), 30u);
  std::vector<Entry> corpus = bases;
  for (Entry& m : mutants(bases, 400)) corpus.push_back(std::move(m));

  const auto host = host_command_names();
  ASSERT_FALSE(host.empty());
  std::string actual;
  for (const Entry& e : corpus) actual += run_entry(e, host);

  if (std::getenv("PFI_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath);
    ASSERT_TRUE(out.good()) << kGoldenPath;
    out << actual;
    GTEST_SKIP() << "golden regenerated at " << kGoldenPath;
  }
  std::ifstream gf(kGoldenPath);
  ASSERT_TRUE(gf.good())
      << kGoldenPath << " missing; regenerate with PFI_UPDATE_GOLDEN=1";
  std::ostringstream gs;
  gs << gf.rdbuf();
  const std::string golden = gs.str();
  if (golden == actual) return;
  // Point at the first differing entry rather than dumping both files.
  std::istringstream g{golden};
  std::istringstream a{actual};
  std::string gl;
  std::string al;
  std::string entry;
  int lineno = 0;
  while (true) {
    const bool gok = static_cast<bool>(std::getline(g, gl));
    const bool aok = static_cast<bool>(std::getline(a, al));
    ++lineno;
    if (aok && al.rfind("== ", 0) == 0) entry = al;
    if (!gok || !aok || gl != al) {
      std::string scripts;
      for (const Entry& e : corpus) {
        if ("== " + e.name != entry) continue;
        for (const std::string& s : e.scripts) {
          scripts += "\n  script: " + escape(s);
        }
      }
      ADD_FAILURE() << "evaluator drifted from tests/golden/"
                       "script_eval.golden at line "
                    << lineno << " (" << entry << ")\n  golden: " << gl
                    << "\n  actual: " << al << scripts
                    << "\nif the change is intentional, regenerate with "
                       "PFI_UPDATE_GOLDEN=1 and review the diff";
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Recursion guard and error lines (no other test asserts these)
// ---------------------------------------------------------------------------

constexpr std::string_view kTooDeep =
    "too many nested evaluations (infinite recursion?)";

TEST(ScriptEvalGuards, SelfRecursiveProcHitsDepthGuard) {
  Interp in;
  const Result r = in.eval("set x 1\nproc f {} { f }\nf\n");
  ASSERT_TRUE(r.is_error());
  EXPECT_EQ(r.value, kTooDeep);
  EXPECT_EQ(r.line, 3);
  // The interpreter is usable afterwards: the depth counter unwound.
  EXPECT_EQ(in.eval("expr {1 + 1}").value, "2");
}

std::string nested_sets(int levels) {
  std::string s;
  for (int i = 0; i < levels; ++i) s += "set v [";
  s += "set v 1";
  for (int i = 0; i < levels; ++i) s += "]";
  return s;
}

TEST(ScriptEvalGuards, DeeplyNestedCommandSubstitutionHitsDepthGuard) {
  Interp in;
  const Result shallow = in.eval(nested_sets(150));
  ASSERT_TRUE(shallow.is_ok()) << shallow.value;
  EXPECT_EQ(shallow.value, "1");

  const Result deep = in.eval("set a 0\n" + nested_sets(400));
  ASSERT_TRUE(deep.is_error());
  EXPECT_EQ(deep.value, kTooDeep);
  EXPECT_EQ(deep.line, 2);

  // Far deeper than the guard: must fail the same way, not exhaust the stack.
  const Result very_deep = in.eval(nested_sets(20000));
  ASSERT_TRUE(very_deep.is_error());
  EXPECT_EQ(very_deep.value, kTooDeep);
  EXPECT_EQ(in.eval("expr {2 + 2}").value, "4");
}

TEST(ScriptEvalGuards, ErrorLineInsideIfBodyIsTheIfCommand) {
  Interp in;
  const Result r =
      in.eval("set a 1\n\nif {$a} {\n  set b 2\n  nosuch\n}\nset c 3\n");
  ASSERT_TRUE(r.is_error());
  EXPECT_EQ(r.value, "invalid command name \"nosuch\"");
  EXPECT_EQ(r.line, 3);
  EXPECT_EQ(in.get_var("b").value_or(""), "2");
  EXPECT_FALSE(in.get_var("c").has_value());
}

TEST(ScriptEvalGuards, ErrorLineInsideProcBodyIsTheCall) {
  Interp in;
  const Result r = in.eval(
      "proc p {} {\n  set x 1\n\n  error boom\n}\nset y 1\np\nset z 1\n");
  ASSERT_TRUE(r.is_error());
  EXPECT_EQ(r.value, "boom");
  EXPECT_EQ(r.line, 7);
  // Inside the body the error is on the body's own line 4.
  const Result body = in.eval("set x 1\n\n\nerror boom\n");
  EXPECT_EQ(body.line, 4);
}

TEST(ScriptEvalGuards, SyntaxErrorRunsEarlierCommandsAndWords) {
  Interp in;
  const Result r = in.eval("set x 1; puts [set x 2] {a}b");
  ASSERT_TRUE(r.is_error());
  EXPECT_EQ(r.value, "extra characters after close-brace");
  EXPECT_EQ(r.line, 1);
  EXPECT_EQ(in.get_var("x").value_or(""), "2");
  EXPECT_EQ(in.output(), "");

  const Result later = in.eval("set y 1\nset z [set y 2]\nset w {unclosed\n");
  ASSERT_TRUE(later.is_error());
  EXPECT_EQ(later.value, "missing close-brace");
  EXPECT_EQ(later.line, 3);
  EXPECT_EQ(in.get_var("z").value_or(""), "2");
}

}  // namespace
}  // namespace pfi::script
