// Coverage-guided search throughput: unique coverage digests discovered
// per second of wall clock (and per executed cell) for a seeded explore()
// run over a GMP fault campaign, plus the journal-cache economics — a
// second run over the same journal answers re-discovered schedules from
// cached records, so its cache-hit rate and wall clock show what a resumed
// or repeated search actually costs.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench/report.hpp"
#include "campaign/spec.hpp"
#include "search/search.hpp"

using namespace pfi;

namespace {

campaign::CampaignSpec make_spec() {
  campaign::CampaignSpec spec;
  spec.name = "search-throughput";
  spec.protocol = "gmp";
  spec.oracle = "quiet";
  spec.types = {"gmp-heartbeat", "gmp-mc", "gmp-ack", "gmp-commit"};
  spec.faults = {core::scriptgen::FaultKind::kDrop,
                 core::scriptgen::FaultKind::kDelay};
  spec.seeds = {3000, 3001};
  spec.burst = 2;
  spec.on_send_side = false;
  spec.warmup = 0;
  spec.duration = sim::sec(60);
  return spec;
}

struct Timed {
  search::SearchResult res;
  double wall_ms = 0;
};

Timed run(const campaign::CampaignSpec& spec, int budget, int jobs,
          const std::string& journal) {
  search::SearchOptions opts;
  opts.budget = budget;
  opts.batch = 16;
  opts.seed = 7;
  opts.jobs = jobs;
  opts.journal_path = journal;
  const auto t0 = std::chrono::steady_clock::now();
  Timed t;
  t.res = search::explore(spec, opts);
  t.wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  return t;
}

}  // namespace

int main() {
  bench::title("Coverage-guided search throughput (digests/sec)");

  const auto spec = make_spec();
  const int budget = 96;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("spec: gmp, 4 types x 2 faults, 60 s simulated per cell, "
              "budget %d; host has %u core(s)\n\n", budget, hw);

  const std::string journal = "/tmp/pfi_search_bench.journal";
  std::remove(journal.c_str());

  std::printf("%18s %8s %10s %10s %12s %12s %10s\n", "pass", "jobs",
              "executed", "cached", "digests", "digests/s", "wall ms");
  bench::rule(88);
  for (const auto& [label, jobs] :
       {std::pair<const char*, int>{"cold", 1},
        std::pair<const char*, int>{"cold-parallel", static_cast<int>(hw)},
        std::pair<const char*, int>{"warm-journal", static_cast<int>(hw)}}) {
    const bool warm = std::string(label) == "warm-journal";
    if (!warm) std::remove(journal.c_str());
    const Timed t = run(spec, budget, jobs, journal);
    if (!t.res.error.empty()) {
      std::fprintf(stderr, "error: %s\n", t.res.error.c_str());
      return 1;
    }
    const int tried = t.res.executed + t.res.journal_hits;
    const double hit_rate =
        tried > 0 ? static_cast<double>(t.res.journal_hits) / tried : 0.0;
    const double dps = 1000.0 * static_cast<double>(t.res.corpus.size()) /
                       (t.wall_ms > 0 ? t.wall_ms : 1);
    std::printf("%18s %8d %10d %10d %12zu %12.1f %10.1f\n", label, jobs,
                t.res.executed, t.res.journal_hits, t.res.corpus.size(), dps,
                t.wall_ms);
    char rate[32], dpsbuf[32], wall[32];
    std::snprintf(rate, sizeof rate, "%.3f", hit_rate);
    std::snprintf(dpsbuf, sizeof dpsbuf, "%.1f", dps);
    std::snprintf(wall, sizeof wall, "%.1f", t.wall_ms);
    bench::json_row("search_throughput",
                    {{"pass", label},
                     {"jobs", std::to_string(jobs)},
                     {"executed", std::to_string(t.res.executed)},
                     {"journal_hits", std::to_string(t.res.journal_hits)},
                     {"cache_hit_rate", rate},
                     {"digests", std::to_string(t.res.corpus.size())},
                     {"digests_per_sec", dpsbuf},
                     {"wall_ms", wall}});
  }
  std::remove(journal.c_str());
  std::printf("\nwarm-journal re-discovers journaled schedules from cached "
              "records: budget\nbuys only genuinely new mutants, so the "
              "digest count keeps growing.\n");

  // --- equivalence pruning: simulations avoided per generation ------------
  // The golden GMP corpus (scripts/campaign_gmp_omission.spec, replicated
  // here so the bench is self-contained): lint::canonical_key collapses
  // mutants onto already-executed class representatives, so part of the
  // budget is answered without a simulation. The violation set must come
  // out byte-identical either way — pruning is pure throughput. The two
  // rows are the runs of
  //   pfi_campaign scripts/campaign_gmp_omission.spec --explore=256 --seed 7
  // without and with --no-prune.
  bench::title("Equivalence pruning (lint::canonical_key)");
  campaign::CampaignSpec golden;
  golden.name = "gmp-omission";
  golden.protocol = "gmp";
  golden.oracle = "quiet";
  golden.types = {"gmp-heartbeat", "gmp-proclaim", "gmp-join",
                  "gmp-mc", "gmp-ack", "gmp-commit"};
  golden.faults = {core::scriptgen::FaultKind::kDrop};
  for (std::uint64_t s = 1000; s <= 1033; ++s) golden.seeds.push_back(s);
  golden.burst = 3;
  golden.on_send_side = false;
  golden.warmup = 0;
  golden.duration = sim::sec(60);

  const int prune_budget = 256;
  std::printf("golden gmp-omission spec, budget %d, batch 16, seed 7\n\n",
              prune_budget);
  std::printf("%14s %10s %14s %10s %12s %10s\n", "pruning", "executed",
              "equiv_skipped", "digests", "violations", "wall ms");
  bench::rule(76);

  Timed runs[2];
  for (int pass = 0; pass < 2; ++pass) {
    const bool prune = pass == 0;
    search::SearchOptions opts;
    opts.budget = prune_budget;
    opts.batch = 16;
    opts.seed = 7;
    opts.jobs = static_cast<int>(hw);
    opts.prune_equivalent = prune;
    const auto t0 = std::chrono::steady_clock::now();
    runs[pass].res = search::explore(golden, opts);
    runs[pass].wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
    const search::SearchResult& r = runs[pass].res;
    if (!r.error.empty()) {
      std::fprintf(stderr, "error: %s\n", r.error.c_str());
      return 1;
    }
    std::printf("%14s %10d %14d %10zu %12zu %10.1f\n", prune ? "on" : "off",
                r.executed, r.equiv_skipped, r.corpus.size(),
                r.violations.size(), runs[pass].wall_ms);
  }
  const search::SearchResult& on = runs[0].res;
  const search::SearchResult& off = runs[1].res;
  bool identical = on.violations.size() == off.violations.size();
  for (std::size_t i = 0; identical && i < on.violations.size(); ++i) {
    identical = on.violations[i].digest == off.violations[i].digest &&
                on.violations[i].reason == off.violations[i].reason;
  }
  // Generations actually drawn: the seeds cost budget too, then each
  // generation spends up to `batch` slots (executions + skips).
  const int gen_budget = prune_budget - on.seeded;
  const int generations = (gen_budget + 15) / 16;
  const double avoided_per_gen =
      generations > 0
          ? static_cast<double>(on.equiv_skipped) / generations
          : 0.0;
  char apg[32];
  std::snprintf(apg, sizeof apg, "%.3f", avoided_per_gen);
  bench::json_row("search_pruning",
                  {{"budget", std::to_string(prune_budget)},
                   {"executed_prune_on", std::to_string(on.executed)},
                   {"executed_prune_off", std::to_string(off.executed)},
                   {"equiv_skipped", std::to_string(on.equiv_skipped)},
                   {"generations", std::to_string(generations)},
                   {"avoided_per_generation", apg},
                   {"violations_identical", identical ? "true" : "false"}});
  std::printf("\n%d generation(s): %d simulation(s) avoided (%.3f per "
              "generation); violation sets %s\n", generations,
              on.equiv_skipped, avoided_per_gen,
              identical ? "byte-identical" : "DIVERGED (bug!)");
  return identical ? 0 : 1;
}
