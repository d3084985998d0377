// pfi_lint — static analysis of fault scripts and campaign specs.
//
//   pfi_lint [--json|--sarif] [--strict] [--no-filter] [--no-driver] file...
//
// Files ending in .spec are parsed and checked as campaign specs (their
// referenced scripts are linted too); files ending in .pdt are checked as
// conformance timelines; everything else is checked as a filter script.
// Exit status: 0 clean, 1 when any error-severity diagnostic was reported
// (or any diagnostic at all under --strict), 2 on usage / unreadable file.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/flags.hpp"
#include "lint/lint.hpp"
#include "lint/sarif.hpp"

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  namespace f = pfi::campaign::flags;
  bool json = false;
  bool sarif = false;
  bool strict = false;
  pfi::lint::Options opts;
  const auto clear = [](bool* field) {
    return [field](std::string_view) {
      *field = false;
      return true;
    };
  };
  f::Parser parser(
      "pfi_lint", {"[options] file..."},
      {
          f::toggle("--json", "emit one JSON document instead of text",
                    &json),
          f::toggle("--sarif", "emit a SARIF 2.1.0 document instead of text",
                    &sarif),
          f::toggle("--strict", "warnings also fail the run", &strict),
          f::custom("--no-filter", "", "do not accept PfiLayer host commands "
                    "(msg_*, x*)", "", clear(&opts.filter_commands)),
          f::custom("--no-driver", "", "do not accept ScriptedDriver commands "
                    "(drv_*)", "", clear(&opts.driver_commands)),
      });
  if (const int rc = parser.parse(argc, argv); rc >= 0) return rc;
  const std::vector<std::string>& files = parser.positionals();
  if (files.empty()) return parser.fail("no files to check (see --help)");

  std::vector<pfi::lint::Diagnostic> all;
  for (const std::string& file : files) {
    std::ifstream in{file};
    if (!in) {
      std::cerr << "pfi_lint: cannot read " << file << "\n";
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    const auto diags =
        ends_with(file, ".spec")
            ? pfi::lint::check_spec_text(text, file, opts)
            : ends_with(file, ".pdt")
                  ? pfi::lint::check_conformance(text, file, opts)
                  : pfi::lint::check_script(text, file, opts);
    all.insert(all.end(), diags.begin(), diags.end());
  }
  pfi::lint::sort_diagnostics(&all);

  int errors = 0;
  int warnings = 0;
  for (const auto& d : all) {
    (d.severity == pfi::lint::Severity::kError ? errors : warnings) += 1;
  }

  if (sarif) {
    std::cout << pfi::lint::diagnostics_sarif(all) << "\n";
  } else if (json) {
    std::cout << pfi::lint::diagnostics_json(all) << "\n";
  } else {
    for (const auto& d : all) {
      std::cout << pfi::lint::format_text(d) << "\n";
    }
    std::cout << files.size() << " file" << (files.size() == 1 ? "" : "s")
              << " checked: " << errors << " error"
              << (errors == 1 ? "" : "s") << ", " << warnings << " warning"
              << (warnings == 1 ? "" : "s") << "\n";
  }
  if (errors > 0) return 1;
  if (strict && warnings > 0) return 1;
  return 0;
}
