#include "campaign/suite.hpp"

#include <algorithm>
#include <filesystem>

#include "campaign/vendors.hpp"
#include "conformance/conformance.hpp"

namespace pfi::campaign {

namespace fs = std::filesystem;

std::optional<std::vector<RunCell>> plan_suite(const std::string& dir,
                                               std::string* err) {
  std::error_code ec;
  std::vector<std::string> files;
  for (const fs::directory_entry& e : fs::directory_iterator(dir, ec)) {
    if (e.path().extension() == ".pdt") files.push_back(e.path().string());
  }
  if (ec) {
    if (err != nullptr) *err = dir + ": " + ec.message();
    return std::nullopt;
  }
  if (files.empty()) {
    if (err != nullptr) *err = dir + ": no .pdt files";
    return std::nullopt;
  }
  std::sort(files.begin(), files.end());

  std::vector<RunCell> cells;
  for (const std::string& file : files) {
    std::vector<lint::Diagnostic> diags;
    const auto prog = conformance::load_file(file, &diags);
    if (!prog) {
      lint::sort_diagnostics(&diags);
      if (err != nullptr) {
        *err = diags.empty() ? file + ": parse failed"
                             : lint::format_text(diags[0]);
      }
      return std::nullopt;
    }
    plan_timeline(file, *prog, suite_vendors(), &cells);
  }
  return cells;
}

void plan_timeline(const std::string& file, const conformance::Program& prog,
                   const std::vector<std::string>& vendors,
                   std::vector<RunCell>* cells) {
  const std::string base = fs::path(file).stem().string();
  for (const std::string& vendor : vendors) {
    RunCell c;
    c.index = static_cast<int>(cells->size());
    c.id = "tcp/" + vendor + "/" + base + "/s" + std::to_string(prog.seed);
    c.protocol = "tcp";
    c.oracle = "conformance";
    c.vendor = vendor;
    c.conform_file = file;
    c.scenario = prog.scenario;
    c.seed = prog.seed;
    c.warmup = 0;
    c.duration = prog.duration;
    cells->push_back(std::move(c));
  }
}

CampaignSpec suite_spec(const std::string& dir) {
  CampaignSpec spec;
  std::string base = fs::path(dir).filename().string();
  if (base.empty()) base = fs::path(dir).parent_path().filename().string();
  spec.name = "suite-" + (base.empty() ? std::string{"conformance"} : base);
  spec.protocol = "tcp";
  spec.oracle = "conformance";
  spec.vendors = suite_vendors();
  spec.warmup = 0;
  return spec;
}

}  // namespace pfi::campaign
