#include "search/search.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "campaign/executor.hpp"
#include "campaign/journal.hpp"
#include "campaign/json.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "lint/canonical.hpp"
#include "lint/lint.hpp"
#include "obs/coverage.hpp"
#include "pfi/script_file.hpp"
#include "search/mutate.hpp"
#include "search/prng.hpp"

namespace pfi::search {

using campaign::FaultSchedule;
using campaign::RunCell;
using campaign::RunResult;

namespace {

/// One mutant queued for a generation: everything known before execution.
struct Candidate {
  FaultSchedule schedule;
  std::string key;  // campaign::cell_key of its cell (content hash)
  std::string op = "seed";
  int parent = -1;
  /// lint::canonical_key, kept while this schedule may become the
  /// representative for its equivalence class (pruning enabled, no
  /// representative with a record yet).
  std::string canon;
  /// Provably equivalent to an already-recorded schedule: answer from
  /// `rep_key`'s record instead of simulating. The record is never
  /// re-journaled under this candidate's own key.
  bool equivalent = false;
  std::string rep_key;
};

RunCell template_cell(const campaign::CampaignSpec& spec) {
  RunCell c;
  c.protocol = spec.protocol;
  c.oracle = spec.oracle;
  c.vendor = spec.protocol == "tcp"
                 ? (spec.vendors.empty() ? "sunos" : spec.vendors.front())
                 : "";
  c.seed = spec.seeds.empty() ? 1 : spec.seeds.front();
  c.nodes = spec.nodes;
  c.target_node = spec.target_node;
  c.warmup = spec.warmup;
  c.duration = spec.duration;
  c.jitter = spec.jitter;
  c.buggy = spec.buggy;
  c.timeout_ms = spec.timeout_ms;
  c.max_sim_events = spec.max_sim_events;
  return c;
}

RunCell cell_for(const RunCell& tmpl, const FaultSchedule& schedule,
                 int index, const std::string& key) {
  RunCell c = tmpl;
  c.schedule = schedule;
  c.index = index;
  c.id = "search/" + key.substr(0, 12);
  return c;
}

/// Reconstruct a Coverage from a journaled record's "coverage" object;
/// empty when the record carries none (timeout/error skeletons). False
/// when a count is not an exact u64.
bool coverage_from_record(const campaign::json::Value& record,
                          obs::Coverage* cov) {
  using Kind = campaign::json::Value::Kind;
  const campaign::json::Value* c = record.find("coverage");
  if (c == nullptr || c->kind != Kind::kObject) return true;
  cov->digest = c->str_or("digest", "");
  for (const auto& [name, dst] :
       {std::pair{"msg_types", &cov->msg_types},
        std::pair{"actions", &cov->actions}}) {
    const campaign::json::Value* counts = c->find(name);
    if (counts == nullptr) continue;
    for (const auto& [k, v] : counts->fields) {
      std::uint64_t n = 0;
      if (!v.to_int(&n)) return false;
      dst->emplace_back(k, n);
    }
  }
  if (const auto* trans = c->find("transitions")) {
    for (const campaign::json::Value& t : trans->items) {
      if (t.kind == Kind::kString) cov->transitions.push_back(t.text);
    }
  }
  return true;
}

/// What admission and violation handling need from a run, whether it came
/// from a fresh execution or a journaled record.
struct Outcome {
  bool errored = false;
  bool pass = true;
  std::string reason;
  obs::Coverage coverage;
};

Outcome outcome_from_record(const std::string& record) {
  // An unreadable record (torn, or a count that is not an exact u64)
  // counts as an errored run.
  Outcome o;
  o.errored = true;
  o.pass = false;
  const auto doc = campaign::json::parse(record);
  if (!doc || !coverage_from_record(*doc, &o.coverage)) {
    o.coverage = {};
    return o;
  }
  const std::string verdict = doc->str_or("verdict", "error");
  o.errored = verdict == "error";
  o.pass = verdict == "pass";
  o.reason = doc->str_or("reason", "");
  return o;
}

Outcome outcome_from_result(const RunResult& r) {
  Outcome o;
  o.errored = r.errored();
  o.pass = r.pass;
  o.reason = r.reason;
  o.coverage = r.coverage;
  return o;
}

}  // namespace

SearchResult explore(const campaign::CampaignSpec& spec,
                     const SearchOptions& opts) {
  SearchResult res;
  if (!spec.script_files.empty()) {
    res.error = "search requires a schedule-mode spec (types x faults), "
                "not literal script files";
    return res;
  }
  if (spec.types.empty()) {
    res.error = "search needs at least one message type in the spec";
    return res;
  }

  const RunCell tmpl = template_cell(spec);
  const MutationPools pools = pools_for(spec.types, spec.protocol);
  SplitMix64 rng(opts.seed != 0 ? opts.seed : tmpl.seed);

  // --- resumed corpus -------------------------------------------------------
  if (!opts.corpus_in.empty()) {
    std::ifstream in(opts.corpus_in);
    if (!in) {
      res.error = "cannot read corpus " + opts.corpus_in;
      return res;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string cerr_;
    if (!res.corpus.load_jsonl(text.str(), &cerr_)) {
      res.error = cerr_;
      return res;
    }
  }

  // --- journal cache --------------------------------------------------------
  std::map<std::string, std::string> records;  // key -> record_json
  campaign::Journal journal;
  if (!opts.journal_path.empty()) {
    records = campaign::load_journal(opts.journal_path);
    if (!journal.open(opts.journal_path)) {
      res.error = "cannot append to journal " + opts.journal_path;
      return res;
    }
  }

  auto stopped = [&] { return opts.should_stop && opts.should_stop(); };
  auto progress = [&](const std::string& line) {
    if (opts.on_progress) opts.on_progress(line);
  };

  // --- candidate bookkeeping ------------------------------------------------
  std::set<std::string> tried;  // cell keys ever queued (dedup)
  // canonical_key -> first cell key executed (or journal-answered) for that
  // equivalence class. Later mutants in the class reuse its record.
  std::map<std::string, std::string> canon_rep;
  // Budget charge: real simulations plus equivalence skips. With pruning
  // off the two runs draw identical mutants and admit identical corpora;
  // pruning only converts some charges from simulations into skips.
  auto spent = [&res] { return res.executed + res.equiv_skipped; };
  // Resumed entries keep their stored digest/features; marking their
  // schedules as tried points the engine at new ground instead.
  for (const CorpusEntry& e : res.corpus.entries()) {
    tried.insert(campaign::cell_key(cell_for(tmpl, e.schedule, 0, "in")));
  }
  int generation = 0;

  auto note_curve = [&] {
    const int digests = static_cast<int>(res.corpus.size());
    if (res.curve.empty() || res.curve.back().digests != digests) {
      res.curve.push_back({spent(), digests});
    }
  };

  /// Admit/record one finished candidate. Returns the corpus index or -1.
  auto process = [&](const Candidate& cand, const Outcome& o) {
    if (o.errored) {
      ++res.errors;
      return -1;
    }
    if (!o.pass) {
      // Oracle violation: keep the first mutant per digest.
      const bool seen = std::any_of(
          res.violations.begin(), res.violations.end(),
          [&](const SearchViolation& v) { return v.digest == o.coverage.digest; });
      if (!seen) {
        SearchViolation v;
        v.id = "search/" + cand.key.substr(0, 12);
        v.digest = o.coverage.digest;
        v.reason = o.reason;
        v.schedule = cand.schedule;
        v.minimized = cand.schedule;
        res.violations.push_back(std::move(v));
      }
    }
    if (o.coverage.empty()) return -1;
    for (const std::string& t : o.coverage.transitions) {
      res.transitions.insert(t);
    }
    if (res.corpus.has_digest(o.coverage.digest)) return -1;
    CorpusEntry e;
    e.schedule = cand.schedule;
    e.digest = o.coverage.digest;
    e.features = obs::coverage_features(o.coverage);
    e.iteration = spent();
    e.parent = cand.parent;
    e.op = cand.op;
    const int idx = res.corpus.admit(std::move(e));
    note_curve();
    return idx;
  };

  /// Execute one generation of deduped candidates: journal hits are
  /// answered from the cache, the rest go through the campaign executor,
  /// and everything is processed in slot order afterwards.
  auto run_generation = [&](const std::vector<Candidate>& gen) {
    std::vector<const Candidate*> fresh;
    std::vector<RunCell> cells;
    for (const Candidate& cand : gen) {
      if (records.count(cand.key) != 0) continue;
      if (cand.equivalent) continue;  // answered from rep_key's record
      cells.push_back(cell_for(tmpl, cand.schedule,
                               static_cast<int>(cells.size()), cand.key));
      fresh.push_back(&cand);
    }
    std::vector<RunResult> results;
    if (!cells.empty()) {
      campaign::ExecutorOptions eopts;
      eopts.jobs = opts.jobs;
      eopts.isolate = opts.isolate;
      eopts.retries = opts.retries;
      eopts.should_stop = opts.should_stop;
      results = opts.run_batch ? opts.run_batch(cells, eopts)
                               : campaign::run_cells(cells, eopts);
    }
    // Fresh records land in the cache (and journal) before processing, so
    // the minimizer later probes through them too.
    std::map<std::string, const RunResult*> fresh_by_key;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (results[i].index < 0) continue;  // interrupted before claimed
      const std::string& key = fresh[static_cast<std::size_t>(results[i].index)]
                                   ->key;
      // run_cells returns results[i] == cells[i]; index is the batch slot.
      const std::string record = campaign::record_json(results[i]);
      records[key] = record;
      if (journal.is_open()) journal.append(key, record);
      fresh_by_key[key] = &results[i];
      ++res.executed;
    }
    // Charge all equivalence skips before processing (mirroring the
    // executed count above), so admitted corpus entries carry the same
    // iteration stamp a non-pruning run would give them.
    for (const Candidate& cand : gen) {
      if (cand.equivalent) ++res.equiv_skipped;
    }
    for (const Candidate& cand : gen) {
      const auto fresh_it = fresh_by_key.find(cand.key);
      if (fresh_it != fresh_by_key.end()) {
        if (!cand.canon.empty()) canon_rep.try_emplace(cand.canon, cand.key);
        process(cand, outcome_from_result(*fresh_it->second));
        continue;
      }
      if (cand.equivalent) {
        const auto rep_it = records.find(cand.rep_key);
        if (rep_it != records.end()) {
          process(cand, outcome_from_record(rep_it->second));
        }
        continue;
      }
      const auto rec_it = records.find(cand.key);
      if (rec_it == records.end()) continue;  // skipped by interruption
      // Journaled before this generation ran: a free cache hit. (Keys the
      // generation itself just executed were handled above.)
      if (!cand.canon.empty()) canon_rep.try_emplace(cand.canon, cand.key);
      process(cand, outcome_from_record(rec_it->second));
    }
  };

  /// Annotate a deduped candidate with its equivalence-class fate: either
  /// it may become the class representative (keep its canonical key) or a
  /// recorded representative already exists (answer from that record).
  auto annotate_equivalence = [&](Candidate* cand) {
    // The canonical key is computed (and the class representative
    // registered) even with pruning off, so the minimizer's probe cache
    // resolves equivalences identically in both modes — a requirement for
    // the byte-identical-report guarantee.
    cand->canon = lint::canonical_key(cand->schedule, spec.protocol);
    if (!opts.prune_equivalent) return;
    if (records.count(cand->key) != 0) return;  // own journal record wins
    const auto rep = canon_rep.find(cand->canon);
    if (rep != canon_rep.end() && records.count(rep->second) != 0) {
      cand->equivalent = true;
      cand->rep_key = rep->second;
      cand->canon.clear();
    }
  };

  // --- seed corpus: baseline + the planner's deduped schedules -------------
  {
    std::vector<Candidate> seeds;
    auto queue_seed = [&](FaultSchedule s) {
      Candidate cand;
      cand.key = campaign::cell_key(cell_for(tmpl, s, 0, "seed"));
      if (!tried.insert(cand.key).second) return;
      cand.schedule = std::move(s);
      annotate_equivalence(&cand);
      if (records.count(cand.key) != 0) ++res.journal_hits;
      seeds.push_back(std::move(cand));
    };
    queue_seed(FaultSchedule{});  // the unfaulted baseline digest
    for (const RunCell& c : campaign::plan(spec)) {
      if (static_cast<int>(seeds.size()) >= std::max(1, opts.budget)) break;
      if (!c.schedule.empty()) queue_seed(c.schedule);
    }
    res.seeded = static_cast<int>(seeds.size());
    run_generation(seeds);
    progress("seeded " + std::to_string(res.seeded) + " schedule(s), " +
             std::to_string(res.corpus.size()) + " digest(s)");
  }

  // --- the feedback loop ----------------------------------------------------
  while (spent() < opts.budget && !stopped()) {
    if (res.corpus.empty()) {
      res.error = "corpus is empty (every seed run errored); nothing to mutate";
      break;
    }
    ++generation;
    std::vector<Candidate> gen;
    const int want = std::min(opts.batch, opts.budget - spent());
    for (int slot = 0; slot < want; ++slot) {
      for (int attempt = 0; attempt < std::max(1, opts.mutation_tries);
           ++attempt) {
        const std::size_t parent = res.corpus.pick_weighted(rng);
        const CorpusEntry& pe = res.corpus.entries()[parent];
        const bool can_splice = res.corpus.size() >= 2;
        const MutOp op = pick_op(rng, pe.schedule.size(), can_splice);
        const FaultSchedule* partner = nullptr;
        if (op == MutOp::kSplice) {
          const std::size_t pi = res.corpus.pick_weighted(rng);
          partner = &res.corpus.entries()[pi].schedule;
        }
        FaultSchedule mutant = mutate(pe.schedule, partner, pools, rng, op);
        const auto diags =
            lint::check_schedule(mutant, spec.protocol, "search");
        if (lint::has_errors(diags)) {
          ++res.lint_skipped;
          continue;
        }
        Candidate cand;
        cand.key = campaign::cell_key(cell_for(tmpl, mutant, 0, "m"));
        if (!tried.insert(cand.key).second) {
          ++res.duplicates;
          continue;
        }
        cand.schedule = std::move(mutant);
        cand.op = to_string(op);
        cand.parent = static_cast<int>(parent);
        annotate_equivalence(&cand);
        if (records.count(cand.key) != 0) ++res.journal_hits;
        gen.push_back(std::move(cand));
        break;
      }
    }
    if (gen.empty()) {
      // The mutator is dry (tiny pools + everything tried); stop early
      // rather than spinning the PRNG forever.
      break;
    }
    run_generation(gen);
    progress("gen " + std::to_string(generation) + ": executed " +
             std::to_string(res.executed) + "/" + std::to_string(opts.budget) +
             " (+" + std::to_string(res.equiv_skipped) + " equiv-skipped)" +
             ", corpus " + std::to_string(res.corpus.size()) + ", violations " +
             std::to_string(res.violations.size()));
  }
  res.interrupted = stopped();

  // --- minimize discovered violations through the record cache -------------
  const int to_minimize =
      std::min<int>(opts.max_minimize, static_cast<int>(res.violations.size()));
  for (int i = 0; i < to_minimize && !res.interrupted; ++i) {
    SearchViolation& v = res.violations[static_cast<std::size_t>(i)];
    if (v.schedule.empty()) continue;
    progress("minimizing " + v.id + " (" + std::to_string(v.schedule.size()) +
             " events)");
    campaign::MinimizeOptions mo;
    mo.max_runs = opts.minimize_max_runs;
    mo.cache = &records;
    mo.journal = journal.is_open() ? &journal : nullptr;
    // Probes resolve through the search's equivalence classes, so a subset
    // whose canonical twin was executed answers from that record. Active in
    // both pruning modes: annotate_equivalence registers representatives
    // unconditionally, which keeps probe counters byte-identical.
    mo.equivalent_key = [&](const campaign::RunCell& c) {
      const auto rep =
          canon_rep.find(lint::canonical_key(c.schedule, spec.protocol));
      return rep != canon_rep.end() ? rep->second : std::string();
    };
    const campaign::MinimizeResult m =
        campaign::minimize_schedule(cell_for(tmpl, v.schedule, 0, v.id), mo);
    v.minimize_attempted = true;
    v.minimized = m.schedule;
    v.reproduced = m.reproduced;
    v.probe_runs = m.runs;
    v.probe_cache_hits = m.cache_hits;
    res.minimize_runs += m.runs;
  }
  journal.close();
  return res;
}

std::string report_json(const campaign::CampaignSpec& spec,
                        const SearchOptions& opts, const SearchResult& res) {
  campaign::json::Writer w;
  w.begin_object();
  w.kv("search", spec.name);
  w.kv("protocol", spec.protocol);
  w.kv("oracle", spec.oracle);
  w.kv("seed", opts.seed != 0
                   ? opts.seed
                   : (spec.seeds.empty() ? 1 : spec.seeds.front()));
  w.kv("budget", opts.budget);
  w.kv("batch", opts.batch);
  w.kv("seeded", res.seeded);
  w.kv("executed", res.executed);
  w.kv("equiv_skipped", res.equiv_skipped);
  w.kv("journal_hits", res.journal_hits);
  w.kv("duplicates", res.duplicates);
  w.kv("lint_skipped", res.lint_skipped);
  w.kv("errors", res.errors);
  w.kv("unique_digests", static_cast<int>(res.corpus.size()));
  w.kv("transitions", static_cast<int>(res.transitions.size()));
  w.kv("minimize_runs", res.minimize_runs);
  if (res.interrupted) w.kv("interrupted", true);
  if (!res.error.empty()) w.kv("error", res.error);
  w.key("curve").begin_array();
  for (const CurvePoint& p : res.curve) {
    w.begin_object();
    w.kv("executed", p.executed);
    w.kv("digests", p.digests);
    w.end_object();
  }
  w.end_array();
  w.key("violations").begin_array();
  for (const SearchViolation& v : res.violations) {
    w.begin_object();
    w.kv("id", v.id);
    w.kv("digest", v.digest);
    w.kv("reason", v.reason);
    w.kv("events", static_cast<int>(v.schedule.size()));
    w.key("schedule");
    v.schedule.to_json(w);
    if (v.minimize_attempted) {
      w.kv("minimal_events", static_cast<int>(v.minimized.size()));
      w.kv("reproduced", v.reproduced);
      w.kv("probe_runs", v.probe_runs);
      w.kv("probe_cache_hits", v.probe_cache_hits);
      w.kv("minimized_summary", v.minimized.summary());
      w.key("minimized");
      v.minimized.to_json(w);
    }
    w.end_object();
  }
  w.end_array();
  w.key("corpus").begin_array();
  for (const CorpusEntry& e : res.corpus.entries()) {
    w.begin_object();
    w.kv("digest", e.digest);
    w.kv("iter", e.iteration);
    w.kv("parent", e.parent);
    w.kv("op", e.op);
    w.kv("events", static_cast<int>(e.schedule.size()));
    w.kv("summary", e.schedule.summary());
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

int write_corpus_scripts(const Corpus& corpus, const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // write_file reports failure
  int written = 0;
  for (std::size_t i = 0; i < corpus.entries().size(); ++i) {
    const CorpusEntry& e = corpus.entries()[i];
    if (e.schedule.empty()) continue;
    const core::failure::Scripts s = e.schedule.compile();
    core::ScriptFile file;
    file.setup = s.setup;
    file.send = s.send;
    file.receive = s.receive;
    const std::string path = dir + "/corpus_" + std::to_string(i) + "_" +
                             e.digest.substr(0, 8) + ".tcl";
    if (!campaign::write_file_or_stdout(path,
                                        core::render_script_sections(file))) {
      return -1;
    }
    ++written;
  }
  return written;
}

}  // namespace pfi::search
