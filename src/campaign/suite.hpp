// Conformance-suite planner: a directory of .pdt timelines x the four
// vendor TcpProfiles becomes one campaign plan. Each cell runs one .pdt
// under one vendor profile with the "conformance" oracle, so
// `pfi_campaign --suite suites/tcp` reproduces the paper's Tables 1-4
// vendor-difference matrix as byte-deterministic records.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "campaign/vendors.hpp"

namespace pfi::conformance {
struct Program;
}

namespace pfi::campaign {

/// Plan `dir`'s *.pdt files (sorted by name, file-major: each timeline runs
/// across every vendor before the next timeline starts) through
/// plan_timeline. Returns nullopt and sets *err if the directory has no
/// .pdt files or any of them fails to parse — a suite is a test corpus, so
/// it fails fast rather than planning error cells.
std::optional<std::vector<RunCell>> plan_suite(const std::string& dir,
                                               std::string* err);

/// Append `prog` (parsed from `file`) once per name in `vendors` to
/// *cells under the next plan indices, as "tcp/<vendor>/<file stem>/
/// s<seed>"; duration, scenario and seed come from the .pdt header. The one
/// planner behind plan_suite and pfi_conform.
void plan_timeline(const std::string& file, const conformance::Program& prog,
                   const std::vector<std::string>& vendors,
                   std::vector<RunCell>* cells);

/// The synthesized spec a suite plan runs under (report/journal naming).
CampaignSpec suite_spec(const std::string& dir);

}  // namespace pfi::campaign
