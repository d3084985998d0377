#include "campaign/minimize.hpp"

#include <algorithm>

#include "campaign/json.hpp"

namespace pfi::campaign {

namespace {

using Events = std::vector<FaultEvent>;

/// Split `events` into n contiguous chunks (first chunks get the remainder).
std::vector<Events> chunk(const Events& events, std::size_t n) {
  std::vector<Events> out;
  const std::size_t size = events.size() / n, rem = events.size() % n;
  std::size_t at = 0;
  for (std::size_t i = 0; i < n && at < events.size(); ++i) {
    const std::size_t len = size + (i < rem ? 1 : 0);
    out.emplace_back(events.begin() + static_cast<std::ptrdiff_t>(at),
                     events.begin() + static_cast<std::ptrdiff_t>(at + len));
    at += len;
  }
  return out;
}

Events minus(const Events& all, const Events& remove_chunk,
             std::size_t chunk_start) {
  Events out;
  out.reserve(all.size() - remove_chunk.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i >= chunk_start && i < chunk_start + remove_chunk.size()) continue;
    out.push_back(all[i]);
  }
  return out;
}

/// A cached record's verdict is "fail" (an unreadable record is not).
bool cached_fail(const std::string& record) {
  const auto doc = json::parse(record);
  return doc && doc->str_or("verdict", "error") == "fail";
}

}  // namespace

MinimizeResult minimize_schedule(const RunCell& cell,
                                 const MinimizeOptions& opts) {
  MinimizeResult res;
  res.schedule = cell.schedule;
  res.original_events = cell.schedule.size();
  res.minimal_events = cell.schedule.size();

  auto probe = [&](const Events& events) {
    RunCell c = cell;
    c.schedule.events = events;
    // The record is a pure function of the cell, so a cached record's
    // verdict answers the probe without re-executing (ROADMAP: point
    // --minimize's ddmin probes at the journal cache).
    std::string key;
    if (opts.cache != nullptr) {
      key = cell_key(c);
      const auto hit = opts.cache->find(key);
      if (hit != opts.cache->end()) {
        ++res.cache_hits;
        return cached_fail(hit->second);
      }
      if (opts.equivalent_key) {
        const std::string alias = opts.equivalent_key(c);
        const auto eq = alias.empty() ? opts.cache->end()
                                      : opts.cache->find(alias);
        if (eq != opts.cache->end()) {
          ++res.cache_hits;
          return cached_fail(eq->second);
        }
      }
    }
    ++res.runs;
    const RunResult r = run_cell(c);
    if (opts.cache != nullptr) {
      const std::string record = record_json(r);
      (*opts.cache)[key] = record;
      if (opts.journal != nullptr && opts.journal->is_open()) {
        opts.journal->append(key, record);
      }
    }
    return !r.errored() && !r.pass;  // "interesting" = still fails cleanly
  };

  if (cell.schedule.empty() || !cell.script_file.empty()) return res;
  res.failed_originally = probe(cell.schedule.events);
  if (!res.failed_originally) return res;

  // ddmin (Zeller & Hildebrandt): try subsets, then complements, refining
  // granularity until 1-minimal or out of budget.
  Events events = cell.schedule.events;
  std::size_t n = 2;
  while (events.size() >= 2 && res.runs < opts.max_runs) {
    const std::vector<Events> chunks = chunk(events, n);
    bool reduced = false;

    for (const Events& c : chunks) {
      if (res.runs >= opts.max_runs) break;
      if (c.size() < events.size() && probe(c)) {
        events = c;
        n = 2;
        reduced = true;
        break;
      }
    }
    if (!reduced && n > 2) {
      std::size_t start = 0;
      for (const Events& c : chunks) {
        if (res.runs >= opts.max_runs) break;
        const Events complement = minus(events, c, start);
        start += c.size();
        if (!complement.empty() && complement.size() < events.size() &&
            probe(complement)) {
          events = complement;
          n = std::max<std::size_t>(2, n - 1);
          reduced = true;
          break;
        }
      }
    }
    if (!reduced) {
      if (n >= events.size()) break;  // 1-minimal at finest granularity
      n = std::min(events.size(), n * 2);
    }
  }

  res.schedule.events = events;
  res.minimal_events = events.size();

  // Deterministic re-verification: one more clean run of the minimal
  // schedule must still reproduce the failure.
  RunCell final_cell = cell;
  final_cell.schedule = res.schedule;
  res.verification = run_cell(final_cell);
  res.reproduced = !res.verification.errored() && !res.verification.pass;
  return res;
}

}  // namespace pfi::campaign
