// pfi_conform — compile and run one declarative conformance timeline.
//
//   $ ./pfi_conform ../suites/tcp/t1_retransmission.pdt
//   $ ./pfi_conform timeline.pdt --vendor solaris
//   $ ./pfi_conform timeline.pdt --emit        # show the compiled scripts
//   $ ./pfi_conform timeline.pdt --lint-only   # static checks, no run
//
// A .pdt timeline (docs/CONFORMANCE.md) is a packetdrill-style script of
// `inject` / `expect` / `expect-no` steps. This tool compiles it to PFI
// filter scripts, plans one cell per requested vendor TcpProfile with the
// suite planner, runs each via the campaign runner and prints a per-step
// pass/fail table with the first divergence. Cell ids come from the file
// stem and indices from the plan, and `--vendor V` selects cells as
// `--filter tcp/V/` does, so `--json` records match `pfi_campaign --suite`
// over a directory holding only this file, byte for byte.
//
// Exit status: 0 every vendor conforms, 1 any step diverged (or a run
// errored), 2 usage / parse / lint error.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/flags.hpp"
#include "campaign/runner.hpp"
#include "campaign/suite.hpp"
#include "conformance/conformance.hpp"
#include "lint/lint.hpp"

int main(int argc, char** argv) {
  namespace f = pfi::campaign::flags;
  std::string vendor;
  bool emit = false;
  bool lint_only = false;
  bool json = false;
  bool quiet = false;
  f::Parser parser(
      "pfi_conform", {"<timeline.pdt> [options]"},
      {
          f::custom("--vendor", "NAME", "run one vendor TcpProfile "
                    "(default: all four vendors)",
                    pfi::campaign::vendor_choices(),
                    [&](std::string_view v) {
                      vendor = v;
                      return pfi::campaign::vendor_profile(v).has_value();
                    }),
          f::toggle("--emit", "print the compiled filter scripts and exit",
                    &emit),
          f::toggle("--lint-only", "parse + lint the timeline and exit (no "
                    "run)", &lint_only),
          f::toggle("--json", "per-vendor campaign records (JSONL) instead "
                    "of the step table", &json),
          f::toggle("--quiet", "only the final summary line", &quiet),
      });
  if (const int rc = parser.parse(argc, argv); rc >= 0) return rc;
  if (parser.positionals().size() != 1) {
    return parser.fail("needs exactly one timeline (see --help)");
  }
  const std::string& path = parser.positionals().front();

  std::ifstream in(path);
  if (!in) return parser.fail("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  // Lint first — parse errors and dead timelines are reported with
  // positions whatever mode runs next.
  const auto diags = pfi::lint::check_conformance(text, path);
  for (const auto& d : diags) {
    std::fprintf(stderr, "%s\n", pfi::lint::format_text(d).c_str());
  }
  if (pfi::lint::has_errors(diags)) return 2;
  if (lint_only) {
    if (!quiet) {
      std::printf("%s: %zu diagnostic(s), no errors\n", path.c_str(),
                  diags.size());
    }
    return 0;
  }

  std::vector<pfi::lint::Diagnostic> parse_diags;
  const auto prog = pfi::conformance::parse(text, path, &parse_diags);
  if (!prog) return 2;  // unreachable: lint already passed

  if (emit) {
    const auto scripts = pfi::conformance::compile(*prog);
    std::printf("#%%setup\n%s#%%send\n%s#%%receive\n%s",
                scripts.setup.c_str(), scripts.send.c_str(),
                scripts.receive.c_str());
    return 0;
  }

  // The reference stack is no suite vendor, but --vendor may name it.
  std::vector<pfi::campaign::RunCell> cells;
  pfi::campaign::plan_timeline(path, *prog,
                               vendor.empty()
                                   ? pfi::campaign::suite_vendors()
                                   : pfi::campaign::vendor_names(),
                               &cells);
  cells = pfi::campaign::filter_cells(
      std::move(cells), vendor.empty() ? "" : "tcp/" + vendor + "/");

  if (!quiet && !json) {
    std::printf("%s (%s): scenario %s, duration %.3fs, %zu step(s)\n",
                prog->name.c_str(), path.c_str(),
                prog->scenario.empty() ? "default" : prog->scenario.c_str(),
                pfi::sim::to_seconds(prog->duration), prog->steps.size());
  }

  int failed = 0;
  for (const pfi::campaign::RunCell& cell : cells) {
    const pfi::campaign::RunResult r = pfi::campaign::run_cell(cell);
    const bool bad = !r.pass || r.errored();
    if (bad) ++failed;
    if (json) {
      std::printf("%s\n", pfi::campaign::record_json(r).c_str());
      continue;
    }
    if (!quiet) {
      std::printf("\nvendor %s: %s\n", cell.vendor.c_str(),
                  r.errored() ? ("ERROR " + r.error).c_str()
                              : (r.pass ? "PASS" : "FAIL"));
      for (const std::string& step : r.steps) {
        std::printf("  %s\n", step.c_str());
      }
      if (!r.pass && !r.reason.empty()) {
        std::printf("  first divergence: %s\n", r.reason.c_str());
      }
    }
  }
  if (!json) {
    std::printf("%s%zu vendor(s): %zu pass, %d fail\n", quiet ? "" : "\n",
                cells.size(), cells.size() - failed, failed);
  }
  return failed > 0 ? 1 : 0;
}
