#include "campaign/report.hpp"

#include <cstdio>
#include <map>

#include "campaign/journal.hpp"

namespace pfi::campaign {

bool write_file_or_stdout(const std::string& path, const std::string& bytes,
                          bool append) {
  if (path.empty() || path == "-") {
    std::fwrite(bytes.data(), 1, bytes.size(), stdout);
    return true;
  }
  FILE* f = std::fopen(path.c_str(), append ? "a" : "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  return std::fclose(f) == 0;
}

JournalSplit split_by_journal(
    const std::vector<RunCell>& cells,
    const std::map<std::string, std::string>* journal) {
  JournalSplit split;
  split.records.resize(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (journal != nullptr) {
      split.keys.push_back(cell_key(cells[i]));
      const auto hit = journal->find(split.keys.back());
      if (hit != journal->end()) {
        split.records[i] = rewrite_index(hit->second, cells[i].index);
        ++split.answered;
        continue;
      }
    }
    split.todo.push_back(cells[i]);
  }
  return split;
}

void splice_records(const std::vector<RunCell>& cells,
                    const std::vector<RunResult>& results,
                    std::vector<std::string>* records) {
  std::map<int, std::size_t> slot_of_index;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    slot_of_index[cells[i].index] = i;
  }
  for (const RunResult& r : results) {
    if (r.index < 0) continue;
    // find(), never operator[]: a result whose index matches no planned
    // cell (a buggy or malicious worker echoing the wrong one) must be
    // dropped, not default-inserted into slot 0 over a real record.
    const auto slot = slot_of_index.find(r.index);
    if (slot == slot_of_index.end()) continue;
    (*records)[slot->second] = record_json(r);
  }
}

RecordTally tally_records(const std::vector<std::string>& records) {
  RecordTally t;
  for (const std::string& rec : records) {
    if (rec.empty()) {
      ++t.skipped;
      continue;
    }
    const auto doc = json::parse(rec);
    const std::string verdict =
        doc ? doc->str_or("verdict", "error") : "error";
    if (verdict == "pass") {
      ++t.pass;
      continue;
    }
    ++(verdict == "error" ? t.error : t.fail);
    t.failing_ids.push_back(doc ? doc->str_or("id", "") : "");
  }
  return t;
}

std::string report_json(const CampaignSpec& spec, const CampaignReport& r,
                        const RecordTally& t) {
  json::Writer w;
  w.begin_object();
  w.kv("campaign", spec.name);
  w.kv("protocol", spec.protocol);
  w.kv("oracle", spec.oracle);
  w.kv("cells", static_cast<int>(r.records.size()));
  w.key("runs").begin_array();
  for (const std::string& rec : r.records) {
    if (!rec.empty()) w.value_raw(rec);
  }
  w.end_array();
  w.key("summary").begin_object();
  w.kv("pass", t.pass);
  w.kv("fail", t.fail);
  w.kv("error", t.error);
  if (t.skipped > 0) w.kv("skipped", t.skipped);
  if (r.lint_rejected > 0) w.kv("lint_rejected", r.lint_rejected);
  if (r.equiv_cells > 0) w.kv("equiv_cells", r.equiv_cells);
  if (r.resumed > 0) w.kv("resumed", r.resumed);
  if (r.interrupted) w.kv("interrupted", true);
  if (r.jobs > 0) {
    w.kv("jobs", r.jobs);
    w.kv("wall_ms", r.wall_ms);
  }
  w.key("failing_ids").begin_array();
  for (const std::string& id : t.failing_ids) w.value(id);
  w.end_array();
  w.end_object();
  if (r.minimized) {
    w.key("minimized").begin_array();
    for (const auto& [id, m] : *r.minimized) {
      w.begin_object();
      w.kv("id", id);
      w.kv("original_events", static_cast<std::uint64_t>(m.original_events));
      w.kv("minimal_events", static_cast<std::uint64_t>(m.minimal_events));
      w.kv("probe_runs", m.runs);
      w.kv("probe_cache_hits", m.cache_hits);
      w.kv("reproduced", m.reproduced);
      w.kv("schedule_summary", m.schedule.summary());
      w.key("schedule");
      m.schedule.to_json(w);
      if (!m.verification.reason.empty()) {
        w.kv("failure", m.verification.reason);
      }
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
  return w.str();
}

std::string metrics_json(const std::string& campaign, int cells,
                         const std::vector<RunResult>& results,
                         const std::function<void(json::Writer*)>& side) {
  std::map<std::string, obs::MetricSample> merged;
  int measured = 0;
  for (const RunResult& r : results) {
    if (r.index < 0 || r.metrics.empty()) continue;
    ++measured;
    obs::merge_samples(&merged, r.metrics);
  }
  json::Writer w;
  w.begin_object();
  w.kv("campaign", campaign);
  w.kv("cells", cells);
  w.kv("cells_measured", measured);
  w.key("metrics").begin_object();
  for (const auto& [name, sample] : merged) w.kv(name, sample.value);
  w.end_object();
  if (side) side(&w);
  w.end_object();
  return w.str();
}

}  // namespace pfi::campaign
