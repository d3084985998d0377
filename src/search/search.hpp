// Coverage-guided fault-space exploration.
//
// The static planner spends its cell budget on a fixed cross product; the
// search engine spends the same budget chasing *behaviour*: it seeds a
// corpus from the planned schedules (plus the unfaulted baseline), then
// repeatedly (1) draws a generation of mutants from rarity-weighted corpus
// parents, (2) pre-screens them with lint::check_schedule so statically
// broken schedules never cost a simulation, (3) executes the survivors as a
// batch through campaign::run_cells — inheriting --jobs, --isolate, the
// watchdog and the retry policy — and (4) admits every mutant whose
// coverage digest (or state-transition set) is new. Oracle violations feed
// straight into the ddmin minimizer, probing through the journal cache.
//
// Determinism: all randomness flows from one SplitMix64 stream seeded from
// the spec seed, generations are built before any execution and processed
// in cell order after all of it, and nothing wall-clock ever reaches the
// corpus or the report. A whole search run — corpus evolution, mutation
// order, final report — is therefore byte-identical at any --jobs and
// in-process vs --isolate (test-asserted in tests/search_test.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "campaign/executor.hpp"
#include "campaign/minimize.hpp"
#include "campaign/spec.hpp"
#include "search/corpus.hpp"

namespace pfi::search {

struct SearchOptions {
  /// Fresh cell executions to spend (journal/duplicate hits are free).
  int budget = 256;
  /// Mutants drawn per generation. A search parameter, *not* tied to
  /// --jobs: the corpus must evolve identically whatever the parallelism.
  int batch = 16;
  /// Search PRNG seed; 0 = derive from the spec's first simulation seed.
  std::uint64_t seed = 0;
  /// Redraws per generation slot when lint rejects or duplicates collide.
  int mutation_tries = 8;
  /// Answer mutants whose lint::canonical_key matches an already-executed
  /// schedule from that representative's record instead of simulating them
  /// (they still occupy their generation slot and budget charge, so corpus
  /// evolution and the final violation set are byte-identical to a
  /// non-pruning run — it just spends fewer real simulations).
  bool prune_equivalent = true;
  int max_minimize = 8;  // violations minimised per run
  int minimize_max_runs = 256;

  // Executor knobs, passed straight through to campaign::run_cells.
  int jobs = 1;
  bool isolate = false;
  int retries = 0;

  /// Journal path ("" = no journal): records of executed mutants append
  /// here, and schedules whose key is already journaled are admitted from
  /// their cached record without costing budget.
  std::string journal_path;
  /// Corpus JSONL to preload (resume); "" = start from the planner seeds.
  std::string corpus_in;

  std::function<void(const std::string&)> on_progress;  // stderr lines
  std::function<bool()> should_stop;

  /// Batch-execution override. When set, each generation's surviving cells
  /// go through this instead of campaign::run_cells — the fabric daemon
  /// plugs distributed execution in here. Must keep the executor contract:
  /// results[i] corresponds to cells[i], index == -1 for unexecuted slots.
  /// Minimizer probes (single cells) stay in-process either way: they are
  /// sequential by nature and usually journal-cached.
  std::function<std::vector<campaign::RunResult>(
      const std::vector<campaign::RunCell>&,
      const campaign::ExecutorOptions&)>
      run_batch;
};

struct SearchViolation {
  std::string id;      // cell id of the discovering mutant
  std::string digest;  // its coverage digest
  std::string reason;  // oracle explanation
  campaign::FaultSchedule schedule;   // as discovered
  campaign::FaultSchedule minimized;  // after ddmin (== schedule if skipped)
  bool minimize_attempted = false;
  bool reproduced = false;
  int probe_runs = 0;
  int probe_cache_hits = 0;
};

struct CurvePoint {
  int executed = 0;  // budget spent so far (executions + equivalence skips)
  int digests = 0;   // unique coverage digests discovered by then
};

struct SearchResult {
  Corpus corpus;
  int seeded = 0;          // corpus entries taken from the planner seeds
  int executed = 0;        // fresh simulations run
  int equiv_skipped = 0;   // mutants answered from an equivalent's record
  int journal_hits = 0;    // mutants answered from the journal cache
  int duplicates = 0;      // mutants identical to an already-tried schedule
  int lint_skipped = 0;    // mutants rejected by the static pre-screen
  int errors = 0;          // executed cells that errored (no coverage)
  int minimize_runs = 0;   // ddmin probe executions (outside the budget)
  bool interrupted = false;
  std::set<std::string> transitions;  // global state-transition set
  std::vector<CurvePoint> curve;      // new-coverage curve
  std::vector<SearchViolation> violations;  // digest-unique, discovery order
  std::string error;  // non-empty = the search could not start
};

/// Run a coverage-guided exploration of `spec`'s fault space. The spec's
/// first seed/vendor fix the simulation template; only schedules mutate.
SearchResult explore(const campaign::CampaignSpec& spec,
                     const SearchOptions& opts);

/// The deterministic search report (one JSON document, no wall-clock).
std::string report_json(const campaign::CampaignSpec& spec,
                        const SearchOptions& opts, const SearchResult& res);

/// Write each corpus schedule to `dir` (created if missing) as a sectioned
/// .tcl file, corpus_<i>_<digest8>.tcl: lintable with `pfi_lint --strict`
/// and re-runnable through a literal-script spec. Returns the number of
/// files written, or -1 when one could not be written.
int write_corpus_scripts(const Corpus& corpus, const std::string& dir);

}  // namespace pfi::search
