// Conformance-timeline tests: the .pdt grammar (positioned diagnostics on
// every malformed input, no crashes), compilation to strict-lint-clean
// filter scripts, the step-sequence evaluator's matching semantics on a
// synthetic trace, the timeline lint rules, the per-scenario no-fault
// baselines (each driver workload leaves a distinguishable coverage
// fingerprint), and the conformance oracle end to end through run_cell.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "conformance/conformance.hpp"
#include "lint/lint.hpp"
#include "obs/metrics.hpp"
#include "trace/trace.hpp"

namespace pfi::conformance {
namespace {

std::optional<Program> parse_ok(const std::string& text) {
  std::vector<lint::Diagnostic> diags;
  auto prog = parse(text, "test.pdt", &diags);
  EXPECT_TRUE(prog.has_value());
  EXPECT_TRUE(diags.empty());
  return prog;
}

TEST(PdtParse, RoundTripsAFullProgram) {
  const auto prog = parse_ok(
      "# comment\n"
      "name t9\n"
      "protocol tcp\n"
      "scenario echo\n"
      "duration 30s\n"
      "seed 7\n"
      "\n"
      "at 0 inject drop tcp-syn count 1\n"
      "at 2.5s inject delay tcp-data delay 800ms for 2s side send\n"
      "at 5s inject duplicate tcp-data count 3 copies 2\n"
      "at 6s inject corrupt tcp-data offset 4\n"
      "at 7s inject reorder tcp-data batch 4 for 1s after 2\n"
      "at 10s expect tcp-data within 5s dir recv min 3\n"
      "at 20s expect-no tcp-rst for 5s dir send\n");
  ASSERT_TRUE(prog.has_value());
  EXPECT_EQ(prog->name, "t9");
  EXPECT_EQ(prog->protocol, "tcp");
  EXPECT_EQ(prog->scenario, "echo");
  EXPECT_EQ(prog->duration, sim::sec(30));
  EXPECT_EQ(prog->seed, 7u);
  ASSERT_EQ(prog->steps.size(), 7u);

  const Step& syn = prog->steps[0];
  EXPECT_EQ(syn.kind, StepKind::kInject);
  EXPECT_EQ(syn.pattern, "tcp-syn");
  EXPECT_EQ(syn.count, 1);
  EXPECT_EQ(syn.window, -1);

  const Step& delay = prog->steps[1];
  EXPECT_EQ(delay.at, sim::msec(2500));
  EXPECT_EQ(delay.delay, sim::msec(800));
  EXPECT_EQ(delay.window, sim::sec(2));
  EXPECT_TRUE(delay.on_send_side);

  const Step& reorder = prog->steps[4];
  EXPECT_EQ(reorder.batch, 4);
  EXPECT_EQ(reorder.after, 2);

  const Step& exp = prog->steps[5];
  EXPECT_EQ(exp.kind, StepKind::kExpect);
  EXPECT_EQ(exp.dir, "recv");
  EXPECT_EQ(exp.min, 3);
  EXPECT_EQ(exp.window_end(prog->duration), sim::sec(15));

  const Step& no = prog->steps[6];
  EXPECT_EQ(no.kind, StepKind::kExpectNo);
  EXPECT_EQ(no.dir, "send");
  EXPECT_EQ(no.window_end(prog->duration), sim::sec(25));
}

TEST(PdtParse, TimeUnits) {
  const auto prog = parse_ok(
      "duration 2m\n"
      "at 100us inject drop * count 1\n"
      "at 250ms inject drop * count 1\n"
      "at 30 inject drop * count 1\n"
      "at 0.5s inject drop * count 1\n");
  ASSERT_TRUE(prog.has_value());
  EXPECT_EQ(prog->duration, sim::sec(120));
  EXPECT_EQ(prog->steps[0].at, 100);
  EXPECT_EQ(prog->steps[1].at, sim::msec(250));
  EXPECT_EQ(prog->steps[2].at, sim::sec(30));
  EXPECT_EQ(prog->steps[3].at, sim::msec(500));
}

// Every malformed input must produce a positioned diagnostic (line and
// column anchored at the offending token) and never crash or return a
// half-built program.
TEST(PdtParse, NegativeTable) {
  struct Case {
    const char* text;
    const char* rule;
    int line;
  };
  const Case cases[] = {
      {"duration 0\n", "parse-error", 1},
      {"duration -5s\n", "parse-error", 1},
      {"duration 10q\n", "parse-error", 1},
      {"duration 10s\nname\n", "parse-error", 2},
      {"duration 10s\nname a b\n", "parse-error", 2},
      {"duration 10s\nseed x\n", "parse-error", 2},
      {"duration 10s\nscenario flood\n", "bad-scenario", 2},
      {"duration 10s\nfrobnicate 3\n", "unknown-directive", 2},
      {"duration 10s\nat\n", "parse-error", 2},
      {"duration 10s\nat soon inject drop *\n", "parse-error", 2},
      {"duration 10s\nat 1s explode *\n", "unknown-directive", 2},
      {"duration 10s\nat 1s inject zap *\n", "parse-error", 2},
      {"duration 10s\nat 1s inject drop\n", "parse-error", 2},
      {"duration 10s\nat 1s expect\n", "parse-error", 2},
      {"duration 10s\nat 1s expect * within\n", "parse-error", 2},
      {"duration 10s\nat 1s expect * banana 3\n", "parse-error", 2},
      {"duration 10s\nat 1s expect * dir down\n", "parse-error", 2},
      {"duration 10s\nat 1s expect * min 0\n", "parse-error", 2},
      {"duration 10s\nat 1s inject drop * count 0\n", "parse-error", 2},
      {"duration 10s\nat 1s inject drop * side up\n", "parse-error", 2},
      {"duration 10s\nat 1s inject drop * batch 1\n", "parse-error", 2},
      {"duration 10s\nat 1s inject drop * within 2s\n", "parse-error", 2},
      {"duration 10s\nat 1s expect * copies 2\n", "parse-error", 2},
      // Overflow is an error, not a wrapped value (both were signed UB).
      {"duration 10s\nseed 99999999999999999999\n", "parse-error", 2},
      {"duration 9999999999999h\n", "parse-error", 1},
      {"duration 2562047788015216h\n", "parse-error", 1},  // wrapped to 1792s
      {"duration 10s\nat 1s inject drop * count 4294967297\n", "parse-error",
       2},
  };
  for (const Case& c : cases) {
    std::vector<lint::Diagnostic> diags;
    const auto prog = parse(c.text, "neg.pdt", &diags);
    EXPECT_FALSE(prog.has_value()) << c.text;
    ASSERT_FALSE(diags.empty()) << c.text;
    EXPECT_EQ(diags[0].rule, c.rule) << c.text;
    EXPECT_EQ(diags[0].line, c.line) << c.text;
    EXPECT_GT(diags[0].col, 0) << c.text;
  }
}

// Satellite guarantee: whatever a well-formed timeline says, the compiled
// scripts pass the script linter with zero diagnostics — strict mode, so
// warnings (unused vars, dead guards) count too.
TEST(PdtCompile, CompiledScriptsAreStrictLintClean) {
  const auto prog = parse_ok(
      "duration 60s\n"
      "at 0 inject drop tcp-syn count 1\n"
      "at 1s inject delay tcp-data delay 750ms for 3s\n"
      "at 2s inject duplicate tcp-ack copies 3 side send\n"
      "at 3s inject corrupt tcp-data offset 2 after 1 count 5\n"
      "at 4s inject reorder tcp-data batch 3 for 2s\n"
      "at 5s inject drop * count 2\n"
      "at 10s expect tcp-data within 5s\n");
  ASSERT_TRUE(prog.has_value());
  const auto scripts = compile(*prog);
  EXPECT_NE(scripts.send.find("msg_log cur_msg"), std::string::npos);
  EXPECT_NE(scripts.receive.find("msg_log cur_msg"), std::string::npos);
  const std::string file = "#%setup\n" + scripts.setup + "#%send\n" +
                           scripts.send + "#%receive\n" + scripts.receive;
  const auto diags = lint::check_script(file, "compiled.pdt.tcl");
  EXPECT_TRUE(diags.empty()) << lint::format_text(diags.front()) << "\n"
                             << file;
}

TEST(PdtEvaluate, MatchesWindowsDirectionsAndCounts) {
  const auto prog = parse_ok(
      "duration 20s\n"
      "at 1s expect tcp-data within 2s\n"
      "at 1s expect tcp-data within 2s dir send\n"
      "at 5s expect tcp-data within 1s min 2\n"
      "at 10s expect-no tcp-rst for 5s\n"
      "at 16s expect-no tcp-ack\n");
  ASSERT_TRUE(prog.has_value());

  trace::TraceLog log;
  log.add(sim::msec(1500), "xkernel", "recv", "tcp-data", "seg");
  log.add(sim::msec(5200), "xkernel", "recv", "tcp-data", "seg");
  log.add(sim::msec(5900), "xkernel", "recv", "tcp-data", "seg");
  log.add(sim::msec(16000), "xkernel", "recv", "tcp-rst", "rst");  // after win
  log.add(sim::msec(17000), "xkernel", "send", "tcp-ack", "ack");
  log.add(sim::msec(300), "xkernel", "note", "pfi-note", "conform-drop w9");

  const Outcome out = evaluate(*prog, log, prog->duration);
  ASSERT_EQ(out.steps.size(), 5u);
  EXPECT_TRUE(out.steps[0].pass);   // one tcp-data at 1.5s
  EXPECT_FALSE(out.steps[1].pass);  // wrong direction
  EXPECT_TRUE(out.steps[2].pass);   // two in [5,6]
  EXPECT_TRUE(out.steps[3].pass);   // rst at 16s is outside [10,15]
  EXPECT_FALSE(out.steps[4].pass);  // ack at 17s inside [16,20]
  EXPECT_FALSE(out.pass);
  // First divergence is the earliest failing step, with its line number.
  EXPECT_NE(out.first_divergence.find("line 3"), std::string::npos)
      << out.first_divergence;
  // Note records never count as observations.
  EXPECT_NE(out.steps[0].note.find("1 matched"), std::string::npos);
}

TEST(PdtEvaluate, InjectStepsReportFiredCountsFromNotes) {
  const auto prog = parse_ok(
      "duration 10s\n"
      "at 0 inject drop tcp-data\n"
      "at 1s expect tcp-data within 9s\n");
  ASSERT_TRUE(prog.has_value());
  trace::TraceLog log;
  // The compiled filter logs the message, then fires the tagged action.
  log.add(sim::msec(1100), "xkernel", "recv", "tcp-data", "seg");
  log.add(sim::msec(1100), "xkernel", "note", "pfi-note", "conform-drop w0");
  log.add(sim::msec(1200), "xkernel", "recv", "tcp-data", "seg");
  log.add(sim::msec(1200), "xkernel", "note", "pfi-note", "conform-drop w0");
  const Outcome out = evaluate(*prog, log, prog->duration);
  ASSERT_EQ(out.steps.size(), 2u);
  EXPECT_NE(out.steps[0].note.find("fired 2"), std::string::npos);
  EXPECT_TRUE(out.pass);  // injects never fail a run; dropped msgs observed
}

TEST(ConformanceLint, TimelineRules) {
  // dead-timeline: the inject opens after the run ends.
  auto diags = lint::check_conformance(
      "duration 10s\nat 10s inject drop tcp-data\n", "t.pdt");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "dead-timeline");
  EXPECT_EQ(diags[0].line, 2);

  // dead-timeline: a for-window narrower than the 1 ms guard granularity.
  diags = lint::check_conformance(
      "duration 10s\nat 1s inject drop tcp-data for 300us\n", "t.pdt");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "dead-timeline");

  // unreachable-expect: the observation window opens after the run ends.
  diags = lint::check_conformance(
      "duration 10s\nat 11s expect tcp-data\n", "t.pdt");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "unreachable-expect");

  // unknown-message-type is a warning, anchored at the step.
  diags = lint::check_conformance(
      "duration 10s\nat 1s expect tcp-frag within 2s\n", "t.pdt");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "unknown-message-type");
  EXPECT_EQ(diags[0].severity, lint::Severity::kWarning);

  // bad-protocol for a stub nobody registered.
  diags = lint::check_conformance(
      "protocol ftp\nduration 10s\nat 1s expect * within 2s\n", "t.pdt");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "bad-protocol");

  // expect-before-inject: written after the inject but timed before it.
  diags = lint::check_conformance(
      "duration 60s\n"
      "at 30s inject drop tcp-data\n"
      "at 1s expect tcp-data within 2s\n",
      "t.pdt");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "expect-before-inject");
  EXPECT_EQ(diags[0].line, 3);

  // ...but a baseline expect written before its inject is fine, and so is
  // an expect whose window reaches the inject.
  EXPECT_TRUE(lint::check_conformance(
                  "duration 60s\n"
                  "at 1s expect tcp-data within 2s\n"
                  "at 30s inject drop tcp-data\n"
                  "at 29s expect tcp-data within 5s\n",
                  "t.pdt")
                  .empty());

  // Suppression comments work as in .tcl scripts: `allow` covers the next
  // line, `allow-file` the whole file.
  EXPECT_TRUE(lint::check_conformance(
                  "duration 60s\n"
                  "at 30s inject drop tcp-data\n"
                  "# pfi-lint: allow expect-before-inject\n"
                  "at 1s expect tcp-data within 2s\n",
                  "t.pdt")
                  .empty());
  EXPECT_TRUE(lint::check_conformance(
                  "# pfi-lint: allow-file expect-before-inject\n"
                  "duration 60s\n"
                  "at 30s inject drop tcp-data\n"
                  "at 1s expect tcp-data within 2s\n",
                  "t.pdt")
                  .empty());

  // A clean timeline lints clean.
  EXPECT_TRUE(lint::check_conformance(
                  "duration 30s\n"
                  "at 1s inject drop tcp-data for 2s\n"
                  "at 3s expect tcp-data within 5s\n"
                  "at 0 expect-no tcp-rst\n",
                  "t.pdt")
                  .empty());
}

std::string write_temp_pdt(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path);
  out << text;
  return path;
}

campaign::RunCell conform_cell(const std::string& pdt_path,
                               const std::string& vendor,
                               sim::Duration duration) {
  campaign::RunCell cell;
  cell.index = 0;
  cell.id = "tcp/" + vendor + "/unit/s1";
  cell.protocol = "tcp";
  cell.oracle = "conformance";
  cell.vendor = vendor;
  cell.conform_file = pdt_path;
  cell.seed = 1;
  cell.warmup = 0;
  cell.duration = duration;
  return cell;
}

TEST(ConformanceRun, EndToEndDeterministicRecord) {
  const std::string path = write_temp_pdt(
      "conform_e2e.pdt",
      "name e2e\n"
      "scenario bulk\n"
      "duration 10s\n"
      "at 0 expect tcp-syn within 2s dir recv\n"
      "at 0 expect tcp-data within 5s dir recv\n"
      "at 2s inject drop tcp-data for 300ms\n"
      "at 0 expect-no tcp-rst\n");
  const auto cell = conform_cell(path, "sunos", sim::sec(10));
  const campaign::RunResult r1 = campaign::run_cell(cell);
  EXPECT_TRUE(r1.error.empty()) << r1.error;
  EXPECT_TRUE(r1.pass) << r1.reason;
  ASSERT_EQ(r1.steps.size(), 4u);
  EXPECT_EQ(r1.steps[0].rfind("ok   ", 0), 0u) << r1.steps[0];
  EXPECT_NE(r1.steps[2].find("fired"), std::string::npos) << r1.steps[2];
  EXPECT_GT(r1.faults_injected, 0u);
  // The per-step table is part of the deterministic record.
  const std::string rec = campaign::record_json(r1);
  EXPECT_NE(rec.find("\"steps\":["), std::string::npos);
  const campaign::RunResult r2 = campaign::run_cell(cell);
  EXPECT_EQ(rec, campaign::record_json(r2));
}

TEST(ConformanceRun, FirstDivergenceIsTheReason) {
  const std::string path = write_temp_pdt(
      "conform_diverge.pdt",
      "name diverge\n"
      "scenario bulk\n"
      "duration 8s\n"
      "at 0 expect tcp-data within 3s dir recv\n"
      "at 5s expect tcp-fin within 1s\n"  // nobody closes: diverges here
      "at 0 expect-no tcp-rst\n");
  const campaign::RunResult r =
      campaign::run_cell(conform_cell(path, "aix", sim::sec(8)));
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_FALSE(r.pass);
  EXPECT_NE(r.reason.find("line 5"), std::string::npos) << r.reason;
  EXPECT_NE(r.reason.find("expect tcp-fin"), std::string::npos) << r.reason;
}

TEST(ConformanceRun, ErrorPaths) {
  // Missing timeline file.
  auto cell = conform_cell("/nonexistent/x.pdt", "sunos", sim::sec(5));
  campaign::RunResult r = campaign::run_cell(cell);
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(r.error.rfind("conformance:", 0), 0u) << r.error;

  // Parse failure surfaces the first positioned diagnostic.
  const std::string bad =
      write_temp_pdt("conform_bad.pdt", "duration 5s\nat 1s explode *\n");
  cell = conform_cell(bad, "sunos", sim::sec(5));
  r = campaign::run_cell(cell);
  EXPECT_NE(r.error.find("[unknown-directive]"), std::string::npos)
      << r.error;
  EXPECT_NE(r.error.find("line 2"), std::string::npos) << r.error;

  // The conformance oracle demands a timeline.
  cell.conform_file.clear();
  r = campaign::run_cell(cell);
  EXPECT_NE(r.error.find("requires a .pdt timeline"), std::string::npos)
      << r.error;

  // Conformance timelines are tcp-only.
  cell = conform_cell(bad, "sunos", sim::sec(5));
  const std::string ok =
      write_temp_pdt("conform_ok.pdt", "duration 5s\nat 0 expect * within 2s\n");
  cell.conform_file = ok;
  cell.protocol = "gmp";
  cell.oracle = "quiet";
  r = campaign::run_cell(cell);
  EXPECT_NE(r.error.find("require protocol tcp"), std::string::npos)
      << r.error;

  // Unknown scenario is rejected, not silently run as the default driver.
  cell = conform_cell(ok, "sunos", sim::sec(5));
  cell.scenario = "flood";
  r = campaign::run_cell(cell);
  EXPECT_NE(r.error.find("unknown scenario"), std::string::npos) << r.error;
}

std::uint64_t metric_value(const campaign::RunResult& r,
                           const std::string& name) {
  for (const obs::MetricSample& m : r.metrics) {
    if (m.name == name) return m.value;
  }
  return 0;
}

std::uint64_t msg_type_count(const campaign::RunResult& r,
                             const std::string& type) {
  for (const auto& [t, n] : r.coverage.msg_types) {
    if (t == type) return n;
  }
  return 0;
}

// Satellite: each scenario's no-fault baseline leaves a distinguishable
// traffic signature — the workload really is a behavioural axis, not a
// label.
TEST(ConformanceScenarios, NoFaultBaselinesAreDistinguishable) {
  const auto run_scenario = [](const std::string& scenario,
                               sim::Duration duration) {
    campaign::RunCell cell;
    cell.index = 0;
    cell.id = "tcp/sunos/base-" +
              (scenario.empty() ? std::string{"legacy"} : scenario) + "/s1";
    cell.protocol = "tcp";
    cell.oracle = "alive";
    cell.vendor = "sunos";
    cell.scenario = scenario;
    cell.seed = 1;
    cell.warmup = 0;
    cell.duration = duration;
    return campaign::run_cell(cell);
  };

  const campaign::RunResult legacy = run_scenario("", sim::sec(15));
  const campaign::RunResult bulk = run_scenario("bulk", sim::sec(15));
  const campaign::RunResult echo = run_scenario("echo", sim::sec(15));
  const campaign::RunResult zerow = run_scenario("zero-window", sim::sec(60));
  const campaign::RunResult keep = run_scenario("keepalive", sim::sec(7300));
  const campaign::RunResult* all[] = {&legacy, &bulk, &echo, &zerow, &keep};
  for (const auto* r : all) {
    EXPECT_TRUE(r->error.empty()) << r->id << ": " << r->error;
    EXPECT_TRUE(r->pass) << r->id << ": " << r->reason;
    EXPECT_FALSE(r->coverage.digest.empty()) << r->id;
  }
  // Pairwise-distinct coverage fingerprints.
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = i + 1; j < 5; ++j) {
      EXPECT_NE(all[i]->coverage.digest, all[j]->coverage.digest)
          << all[i]->id << " vs " << all[j]->id;
    }
  }
  // bulk: 1 KiB every 100 ms dwarfs the legacy driver's volume.
  EXPECT_GT(msg_type_count(bulk, "tcp-data"),
            4 * msg_type_count(legacy, "tcp-data"));
  // echo: the accepted side transmits payload back, so its segment count
  // rises well above pure-ack traffic for the same chunk count.
  EXPECT_GT(metric_value(echo, "tcp.xk.segments_sent"),
            metric_value(legacy, "tcp.xk.segments_sent"));
  // zero-window: the stalled receiver forces persist probes.
  EXPECT_GT(metric_value(zerow, "tcp.vendor.persist_probes"), 0u);
  EXPECT_EQ(metric_value(bulk, "tcp.vendor.persist_probes"), 0u);
  // keepalive: only this scenario arms the keep-alive timer.
  EXPECT_GT(metric_value(keep, "tcp.vendor.keepalive_probes"), 0u);
  EXPECT_EQ(metric_value(bulk, "tcp.vendor.keepalive_probes"), 0u);
}

}  // namespace
}  // namespace pfi::conformance
