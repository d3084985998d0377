// The campaign report and metrics documents, written once for every
// producer: `pfi_campaign` builds them through the same functions whether
// its cells ran in process, over the fabric or on a `pfi_fabricd` daemon,
// so the runs differ only in the host fields (summary.jobs and
// summary.wall_ms). docs/CAMPAIGN.md pins both layouts.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "campaign/json.hpp"
#include "campaign/minimize.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"

namespace pfi::campaign {

/// Write `bytes` to `path` ("" or "-" = stdout), truncating or appending.
/// False (with a message on stderr) when the file cannot be written.
bool write_file_or_stdout(const std::string& path, const std::string& bytes,
                          bool append = false);

/// Which planned slots a journal already answers. Every run resumes
/// through split_by_journal, whatever executes its cells, so the reports
/// agree slot for slot.
struct JournalSplit {
  std::vector<std::string> keys;     // cells[i]'s cell_key; none w/o journal
  std::vector<std::string> records;  // journaled, index = slot; "" = to run
  std::vector<RunCell> todo;         // unanswered cells, plan index kept
  int answered = 0;                  // cells.size() - todo.size()
};

/// Split `cells` (numbered 0..n-1, as plan(), plan_suite() and
/// filter_cells() number them) against `journal` (content key -> record).
/// A null journal answers nothing and computes no keys.
JournalSplit split_by_journal(
    const std::vector<RunCell>& cells,
    const std::map<std::string, std::string>* journal);

/// Splice executed results into their plan slots: records[i] is cells[i]'s
/// record_json. Results that never ran (index -1) or whose index matches no
/// planned cell leave their slot alone.
void splice_records(const std::vector<RunCell>& cells,
                    const std::vector<RunResult>& results,
                    std::vector<std::string>* records);

/// Verdict counts over a plan's record slots ("" = the cell never ran).
struct RecordTally {
  int pass = 0;
  int fail = 0;
  int error = 0;
  int skipped = 0;
  std::vector<std::string> failing_ids;  // fail + error, slot order
};

RecordTally tally_records(const std::vector<std::string>& records);

struct CampaignReport {
  std::vector<std::string> records;  // one per planned cell; "" = never ran
  int lint_rejected = 0;
  int equiv_cells = 0;
  int resumed = 0;
  bool interrupted = false;
  /// Host fields, local runs only: written when jobs > 0.
  int jobs = 0;
  double wall_ms = 0;
  /// --minimize: one (cell id, result) per minimised cell; nullopt = the
  /// report has no "minimized" array.
  std::optional<std::vector<std::pair<std::string, MinimizeResult>>>
      minimized;
};

/// The report document of `spec`'s run (one JSON object, no trailing
/// newline).
std::string report_json(const CampaignSpec& spec, const CampaignReport& r,
                        const RecordTally& tally);

/// The metrics document: campaign, cells, cells_measured and the
/// "metrics" object merging every executed result's snapshot (counters
/// sum, gauges max), byte-identical at any --jobs. `side` appends the
/// wall-clock side channel (the fabric's "fabric"/"fleet" sections).
std::string metrics_json(const std::string& campaign, int cells,
                         const std::vector<RunResult>& results,
                         const std::function<void(json::Writer*)>& side = {});

}  // namespace pfi::campaign
