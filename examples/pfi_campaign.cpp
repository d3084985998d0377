// pfi_campaign — plan, execute and report a fault-injection campaign.
//
//   $ ./pfi_campaign ../scripts/campaign_gmp_omission.spec --jobs 4
//   $ ./pfi_campaign spec.file --filter gmp-commit --minimize --out out.json
//   $ ./pfi_campaign spec.file --isolate --timeout-ms 5000 --retries 2
//   $ ./pfi_campaign spec.file --resume        # skip journaled cells
//   $ ./pfi_campaign spec.file --explore=128 --seed 7   # coverage search
//   $ ./pfi_campaign spec.file --submit unix:/tmp/fabricd.sock
//
// Reads a campaign spec (docs/CAMPAIGN.md), expands the run matrix, executes
// every cell on a worker pool (or over the fabric, or on a pfi_fabricd
// daemon with --submit: docs/FABRIC.md), and
// writes one JSON document: per-run records (byte-identical whatever --jobs
// was), a summary, and — with --minimize — a 1-minimal reproduction
// schedule for each failing cell. --explore swaps the matrix for the
// coverage-guided search (docs/SEARCH.md) and its report.
//
// Resilience: --timeout-ms / --max-events arm a per-cell watchdog (overruns
// become deterministic `timeout` error records), --isolate forks each cell
// into a child process (crashes become `signal ...` error records),
// --retries re-runs errored cells with backoff, and --resume + the journal
// (an append-only JSONL checkpoint next to the spec) survive SIGINT: the
// first Ctrl-C stops gracefully and flushes completed records, a second
// kills immediately, and the next --resume run executes only the cells the
// journal doesn't already hold.
//
// Exit status: 0 all pass, 1 any fail/error (search: any violation), 2
// usage/spec/no-match or a --submit daemon lost, 130 interrupted.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include <signal.h>
#include <unistd.h>

#include "campaign/executor.hpp"
#include "campaign/flags.hpp"
#include "campaign/journal.hpp"
#include "campaign/minimize.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "campaign/suite.hpp"
#include "fabric/client.hpp"
#include "fabric/coordinator.hpp"
#include "fabric/socket.hpp"
#include "fabric/worker.hpp"
#include "lint/canonical.hpp"
#include "lint/lint.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "search/search.hpp"

using namespace pfi::campaign;

namespace {

volatile std::sig_atomic_t g_interrupted = 0;

extern "C" void handle_sigint(int) {
  if (g_interrupted != 0) _exit(130);  // second Ctrl-C: die now
  g_interrupted = 1;                   // first: finish in-flight cells, flush
}

struct Args {
  std::string spec_path;
  std::string suite;        // conformance-suite directory (replaces the spec)
  std::string filter;
  std::string out;          // empty = stdout
  std::string journal;      // empty = <spec>.journal when journaling
  std::string metrics_out;  // merged metrics JSON (empty = off)
  std::string timeline;     // Chrome trace-event JSON (empty = off)
  std::string flight_out;   // fabric flight-recorder JSONL (empty = off)
  std::string status;       // daemon address: print its STATUS JSON, exit
  int jobs = 1;
  int max_minimize = 8;     // cap on cells minimised per campaign
  int timeout_ms = -1;      // -1 = keep the spec's value
  std::int64_t max_events = -1;
  int retries = -1;
  int lint = 0;  // 0 = off, 1 = --lint (errors), 2 = --lint=strict
  int explore = 0;          // > 0: coverage-guided search with this budget
  int batch = 16;           // --explore: mutants per generation
  std::uint64_t seed = 0;   // --explore: search PRNG seed (0 = spec's)
  bool no_prune = false;    // --explore: simulate equivalent mutants too
  std::string emit_scripts;  // --explore: corpus schedules as .tcl here
  std::string corpus_out;   // --explore: write the corpus JSONL here
  std::string corpus_in;    // --explore: resume from this corpus JSONL
  int workers = 0;          // > 0: distribute over auto-spawned workers
  std::string listen;       // fabric listen address for external pfi_workers
  std::string token;        // fabric shared secret (HELLO auth)
  int heartbeat_ms = 500;   // auto-spawned workers' beat interval
  int dead_after_ms = 5000;      // coordinator's worker-silence threshold
  int reconnect_grace_ms = -1;   // detached-worker grace; -1 = dead-after-ms
  int max_workers = 0;      // --submit: per-job distinct-worker quota
  std::string submit;       // daemon address: execute the cells there
  bool merge_journals = false;  // positional args are journal files to merge
  bool workers_kill_one = false;  // test hook: SIGKILL one worker mid-run
  int workers_flap = 0;     // test hook: sever a worker link every N results
  bool isolate = false;
  bool resume = false;
  bool minimize = false;
  bool list = false;
  bool quiet = false;
};

/// Flags that shape how this host executes cells. Under --submit the
/// daemon's workers execute them with their own settings, so each of these
/// is refused there rather than silently dropped.
constexpr const char* kLocalExecution[] = {
    "--jobs",          "--isolate",          "--retries",
    "--workers",       "--listen",           "--heartbeat-ms",
    "--dead-after-ms", "--reconnect-grace-ms",
    "--workers-flap",  "--workers-kill-one", "--flight-out"};

pfi::campaign::flags::Parser make_parser(Args* a) {
  namespace f = pfi::campaign::flags;
  return f::Parser(
      "pfi_campaign",
      {"<spec-file> [options]", "--suite DIR [options]",
       "--status ADDR [--token SECRET] [--out FILE]",
       "--merge-journals JOURNAL... [--out FILE]"},
      {
      f::number("--jobs", "N", "worker threads / child processes", &a->jobs),
      f::text("--suite", "DIR", "run DIR's .pdt timelines x each vendor",
              &a->suite),
      f::text("--filter", "SUBSTR", "run only cells whose id contains SUBSTR",
              &a->filter),
      f::number("--timeout-ms", "N", "per-cell wall-clock budget",
                &a->timeout_ms),
      f::number("--max-events", "N", "per-cell simulation-event budget",
                &a->max_events),
      f::toggle("--isolate", "fork each cell into a child process",
                &a->isolate),
      f::number("--retries", "N", "re-run errored cells up to N extra times",
                &a->retries),
      f::toggle("--resume", "skip journaled cells (journal: <spec>.journal)",
                &a->resume),
      f::text("--journal", "FILE", "journal path (enables journaling)",
              &a->journal),
      f::custom("--lint", "strict", "lint cells first (=strict: warnings too)",
                "strict", [a](std::string_view v) {
                  a->lint = v.empty() ? 1 : 2;
                  return v.empty() || v == "strict";
                }, true),
      f::number("--explore", "N", "coverage-guided search of N executions",
                &a->explore),
      f::custom("--batch", "N", "(--explore) mutants per generation (16)",
                "a positive integer", [a](std::string_view v) {
                  return kv::to_int(v, &a->batch) && a->batch >= 1;
                }),
      f::number("--seed", "N", "(--explore) search PRNG seed", &a->seed),
      f::toggle("--no-prune", "(--explore) simulate equivalent mutants too",
                &a->no_prune),
      f::text("--emit-scripts", "DIR", "(--explore) corpus schedules as .tcl",
              &a->emit_scripts),
      f::text("--corpus-out", "FILE", "(--explore) write the corpus JSONL",
              &a->corpus_out),
      f::text("--corpus-in", "FILE", "(--explore) resume from a corpus JSONL",
              &a->corpus_in),
      f::toggle("--minimize", "delta-debug each failing schedule",
                &a->minimize),
      f::number("--max-minimize", "N", "minimise at most N cells (8)",
                &a->max_minimize),
      f::text("--out", "FILE", "JSON report path (default stdout)", &a->out),
      f::text("--metrics-out", "FILE", "campaign-merged metrics JSON",
              &a->metrics_out),
      f::text("--timeline", "FILE", "Chrome trace-event timeline",
              &a->timeline),
      f::text("--flight-out", "FILE", "fabric flight recorder JSONL",
              &a->flight_out),
      f::number("--workers", "N", "distribute over N local worker processes",
                &a->workers),
      f::text("--listen", "ADDR", "let external pfi_workers join at ADDR",
              &a->listen),
      f::text("--token", "SECRET", "fabric shared secret", &a->token,
              "PFI_FABRIC_TOKEN"),
      f::number("--heartbeat-ms", "N", "local workers' beat interval (500)",
                &a->heartbeat_ms),
      f::number("--dead-after-ms", "N", "worker silence threshold (5000)",
                &a->dead_after_ms),
      f::number("--reconnect-grace-ms", "N", "detached-worker grace",
                &a->reconnect_grace_ms),
      f::text("--submit", "ADDR", "execute cells on a pfi_fabricd daemon",
              &a->submit),
      f::number("--max-workers", "N", "(--submit) distinct-worker quota",
                &a->max_workers),
      f::text("--status", "ADDR", "print a daemon's STATUS JSON", &a->status),
      f::toggle("--merge-journals", "merge the positional journal files",
                &a->merge_journals),
      f::toggle("--list", "print the planned cell ids and exit", &a->list),
      f::toggle("--quiet", "no progress output on stderr", &a->quiet),
      f::toggle("--workers-kill-one", "(test hook) SIGKILL a local worker",
                &a->workers_kill_one),
      f::number("--workers-flap", "N", "(test hook) cut a link every N results",
                &a->workers_flap),
      });
}

void print_error(const std::string& msg) {
  std::fprintf(stderr, "error: %s\n", msg.c_str());
}

std::string journal_path_for(const Args& a) {
  if (!a.journal.empty()) return a.journal;
  return (a.suite.empty() ? a.spec_path : a.suite) + ".journal";
}

int run_status(const Args& a) {
  pfi::fabric::Client client;
  std::string err, status;
  if (!client.connect(a.status, a.token,
                      "pfi_campaign-status-" + std::to_string(getpid()),
                      &err) ||
      !client.status(&status, &err)) {
    print_error(err);
    return 2;
  }
  return write_file_or_stdout(a.out, status + "\n") ? 0 : 2;
}

int run_merge(const Args& a, const std::vector<std::string>& journals) {
  // Offline recovery: workers' (or interrupted runs') journals merge into
  // one byte-deterministic normal form — dedupe by content key, sort.
  int conflicts = 0;
  const auto merged = merge_journals(journals, &conflicts);
  if (!write_file_or_stdout(a.out, journal_jsonl(merged))) return 2;
  if (!a.quiet) {
    std::fprintf(stderr, "merged %zu journal(s): %zu record(s)%s\n",
                 journals.size(), merged.size(),
                 conflicts > 0 ? (", " + std::to_string(conflicts) +
                                  " conflicting record(s) dropped")
                                     .c_str()
                               : "");
  }
  return conflicts > 0 ? 1 : 0;
}

/// --submit: connect to the daemon that will execute this run's cells.
bool connect_submit(const Args& a, const CampaignSpec& spec,
                    pfi::fabric::Client* client) {
  std::string err;
  if (!client->connect(a.submit, a.token,
                       "pfi_campaign-" + std::to_string(getpid()), &err)) {
    print_error(err);
    return false;
  }
  client->set_job(spec.name, a.max_workers);
  return true;
}

/// Coverage-guided mode: the budget buys mutated schedules chasing unseen
/// coverage digests instead of the planner's fixed matrix. Under --submit
/// each generation's batch executes on the daemon; everything else stays
/// here.
int run_explore(const Args& a, const CampaignSpec& spec, int retries) {
  pfi::search::SearchOptions o;
  o.budget = a.explore;
  o.batch = a.batch;
  o.seed = a.seed;
  o.prune_equivalent = !a.no_prune;
  o.jobs = a.jobs;
  o.isolate = a.isolate;
  o.retries = retries;
  o.max_minimize = a.max_minimize;
  o.corpus_in = a.corpus_in;
  if (a.resume || !a.journal.empty()) o.journal_path = journal_path_for(a);
  if (!a.quiet) {
    o.on_progress = [](const std::string& line) {
      std::fprintf(stderr, "  %s\n", line.c_str());
    };
  }
  pfi::fabric::Client client;
  std::string submit_err;
  if (!a.submit.empty()) {
    if (!connect_submit(a, spec, &client)) return 2;
    o.run_batch = [&](const std::vector<RunCell>& cells,
                      const ExecutorOptions& eo) {
      return client.run_cells(cells, eo, &submit_err);
    };
  }
  o.should_stop = [&] { return g_interrupted != 0 || !submit_err.empty(); };
  std::signal(SIGINT, handle_sigint);
  const auto t0 = std::chrono::steady_clock::now();
  const pfi::search::SearchResult res = pfi::search::explore(spec, o);
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  std::signal(SIGINT, SIG_DFL);
  if (!res.error.empty()) {
    print_error(res.error);
    if (res.executed == 0) return 2;
  }
  if (!a.corpus_out.empty() &&
      !write_file_or_stdout(a.corpus_out, res.corpus.to_jsonl())) {
    return 2;
  }
  if (!a.emit_scripts.empty()) {
    const int emitted =
        pfi::search::write_corpus_scripts(res.corpus, a.emit_scripts);
    if (emitted < 0) return 2;
    if (!a.quiet) {
      std::fprintf(stderr, "emitted %d corpus script(s) to %s\n", emitted,
                   a.emit_scripts.c_str());
    }
  }
  if (!write_file_or_stdout(
          a.out, pfi::search::report_json(spec, o, res) + "\n")) {
    return 2;
  }
  if (!a.quiet) {
    std::fprintf(stderr,
                 "explore %s: %d executed (%d cached, %d dup, %d "
                 "lint-skipped) -> %zu digests, %zu violation(s) in %.0f ms\n",
                 spec.name.c_str(), res.executed, res.journal_hits,
                 res.duplicates, res.lint_skipped, res.corpus.size(),
                 res.violations.size(), wall_ms);
  }
  if (!submit_err.empty()) {
    print_error(submit_err);
    return 2;
  }
  if (res.interrupted) return 130;
  return res.violations.empty() ? 0 : 1;
}

/// Group key of a planned schedule-mode cell for --lint's equivalence
/// report; groups of 2+ are provably equivalent *runs*: cell_key over the
/// canonicalized schedule folds in every run parameter (seed, warmup,
/// duration, jitter, oracle, ...), so two cells only collide when nothing
/// observable distinguishes them. The simulation seed is dropped from the
/// key only when it is provably inert: the sim PRNG feeds jitter draws and
/// corrupt actions' byte draws, so with jitter 0 and no kCorrupt event the
/// seed cannot reach behaviour (the same fact behind the planner matrix
/// collapsing to a handful of digests — docs/SEARCH.md).
std::string equiv_group_key(const RunCell& cell) {
  RunCell canon = cell;
  canon.schedule = pfi::lint::canonicalize(canon.schedule, canon.protocol);
  const bool seed_inert =
      canon.jitter == 0 &&
      std::none_of(canon.schedule.events.begin(), canon.schedule.events.end(),
                   [](const auto& e) {
                     return e.kind == pfi::core::scriptgen::FaultKind::kCorrupt;
                   });
  if (seed_inert) canon.seed = 0;
  return cell_key(canon);
}

/// The static matrix: plan, lint, journal, execute (in process, over the
/// fabric or on a daemon), then write the report and the side-channel
/// documents.
int run_matrix(const Args& a, const CampaignSpec& spec, int retries) {
  std::string err;
  std::vector<RunCell> planned;
  if (!a.suite.empty()) {
    auto suite_cells = plan_suite(a.suite, &err);
    if (!suite_cells) {
      print_error(err);
      return 2;
    }
    planned = std::move(*suite_cells);
  } else {
    planned = plan(spec);
  }
  // plan(), plan_suite() and filter_cells() number cells 0..n-1, so a
  // result's index is its slot in `cells`; a fabric result echoing any
  // other index has no slot.
  const auto cells = filter_cells(std::move(planned), a.filter);
  const auto has_slot = [&](const RunResult& r) {
    return r.index >= 0 && static_cast<std::size_t>(r.index) < cells.size();
  };
  if (a.list) {
    for (const auto& c : cells) std::printf("%s\n", c.id.c_str());
    return 0;
  }
  if (cells.empty()) {
    print_error("no cells match");
    return 2;
  }

  // ---- journal: content keys, prior records, the todo subset --------------
  const bool journaling = a.resume || !a.journal.empty();
  const std::string journal_path = journal_path_for(a);
  std::map<std::string, std::string> prior;
  if (a.resume) prior = load_journal(journal_path);
  JournalSplit split = split_by_journal(cells, journaling ? &prior : nullptr);
  CampaignReport report;
  report.jobs = std::max(1, a.jobs);
  // records[i] is plan slot i's JSON record; empty = not run (interrupted).
  report.records = std::move(split.records);
  report.resumed = split.answered;
  std::vector<RunCell> todo;
  std::map<std::string, std::vector<std::string>> equiv_groups;
  for (RunCell& cell : split.todo) {
    if (a.lint > 0) {
      // Lint runs sequentially over the plan, before the worker pool, so
      // rejected cells produce records that are byte-identical whatever
      // --jobs or --isolate was — the timeout-record discipline.
      const auto diags = pfi::lint::check_cell(cell);
      if (pfi::lint::has_errors(diags) || (a.lint == 2 && !diags.empty())) {
        report.records[static_cast<std::size_t>(cell.index)] =
            record_json(pfi::lint::lint_error_result(cell, diags));
        ++report.lint_rejected;
        if (!a.quiet) {
          std::fprintf(stderr, "  lint %-40s %s\n", cell.id.c_str(),
                       pfi::lint::format_text(diags.front()).c_str());
        }
        continue;
      }
      if (cell.script_file.empty() && cell.conform_file.empty()) {
        equiv_groups[equiv_group_key(cell)].push_back(cell.id);
      }
    }
    todo.push_back(std::move(cell));  // keeps its plan index
  }
  for (const auto& [key, ids] : equiv_groups) {
    if (ids.size() < 2) continue;
    report.equiv_cells += static_cast<int>(ids.size()) - 1;
    if (!a.quiet) {
      std::string list = ids.front();
      for (std::size_t i = 1; i < ids.size(); ++i) list += ", " + ids[i];
      std::fprintf(stderr,
                   "  lint %zu cells are provably equivalent (identical "
                   "canonical schedule and run parameters): %s\n",
                   ids.size(), list.c_str());
    }
  }
  if (!a.timeline.empty()) {
    // Only freshly-executed cells can contribute timeline fragments —
    // journaled records don't carry one.
    for (RunCell& c : todo) c.capture_timeline = true;
  }

  if (!a.quiet) {
    std::fprintf(stderr, "campaign %s: %zu cells, %d job(s)%s%s\n",
                 spec.name.c_str(), cells.size(), report.jobs,
                 a.isolate ? ", isolated" : "",
                 a.resume ? (", " + std::to_string(report.resumed) +
                             " journaled, " + std::to_string(todo.size()) +
                             " to run")
                                .c_str()
                          : "");
  }

  pfi::fabric::Client client;
  if (!a.submit.empty() && !connect_submit(a, spec, &client)) return 2;
  Journal journal;
  if (journaling && !todo.empty() && !journal.open(journal_path)) {
    print_error("cannot append to journal " + journal_path);
    return 2;
  }

  const bool use_fabric = a.workers > 0 || !a.listen.empty();
  int done = 0;
  // Live telemetry (stderr only — wall-clock never reaches a record). On a
  // tty the line redraws in place; otherwise a full line every 50 cells.
  // Under --workers the line grows per-worker cells/s cells (a worker at
  // less than half the fleet's best rate is flagged `!` as a straggler).
  int live_pass = 0, live_fail = 0, live_err = 0;
  std::map<std::string, int> fleet_done;  // worker id -> results delivered
  const bool tty = isatty(2) != 0;
  const auto progress_t0 = std::chrono::steady_clock::now();
  auto progress_line = [&]() -> std::string {
    const double el = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - progress_t0)
                          .count();
    const double rate = el > 0 ? done / el : 0.0;
    const long eta =
        rate > 0
            ? std::lround((static_cast<double>(todo.size()) - done) / rate)
            : 0;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "  [%d/%zu] pass %d | fail %d | error %d | %.1f cells/s | "
                  "ETA %lds",
                  done, todo.size(), live_pass, live_fail, live_err, rate,
                  eta);
    std::string line = buf;
    if (use_fabric && !fleet_done.empty() && el > 0) {
      double best = 0.0;
      for (const auto& [id, n] : fleet_done) best = std::max(best, n / el);
      line += " |";
      int shown = 0;
      for (const auto& [id, n] : fleet_done) {
        if (++shown > 4) {
          line += " +" + std::to_string(fleet_done.size() - 4) + " more";
          break;
        }
        const double wr = n / el;
        std::snprintf(buf, sizeof buf, " %s%s %.1f/s", id.c_str(),
                      wr < 0.5 * best ? "!" : "", wr);
        line += buf;
      }
    }
    return line;
  };
  ExecutorOptions opts;
  opts.jobs = a.jobs;
  opts.isolate = a.isolate;
  opts.retries = retries;
  opts.should_stop = [] { return g_interrupted != 0; };
  opts.on_result = [&](const RunResult& r) {
    ++done;
    ++(r.errored() ? live_err : r.pass ? live_pass : live_fail);
    if (journal.is_open() && has_slot(r)) {
      journal.append(split.keys[static_cast<std::size_t>(r.index)],
                     record_json(r));
    }
    if (a.quiet) return;
    if (!r.pass || r.errored()) {
      std::fprintf(stderr, "%s  %-40s %s%s\n", tty ? "\r\x1b[K" : "",
                   r.id.c_str(), r.errored() ? "ERROR" : "FAIL",
                   r.attempts > 1
                       ? (" (attempt " + std::to_string(r.attempts) + ")")
                             .c_str()
                       : "");
    }
    if (tty) {
      std::fprintf(stderr, "\r\x1b[K%s", progress_line().c_str());
      if (done == static_cast<int>(todo.size())) std::fputc('\n', stderr);
    } else if (done % 50 == 0 || done == static_cast<int>(todo.size())) {
      std::fprintf(stderr, "%s\n", progress_line().c_str());
    }
  };
  if (!a.quiet) {
    opts.on_retry = [&](const RunResult& r, int attempt, int max_attempts) {
      std::fprintf(stderr, "  retry %-40s attempt %d/%d failed: %s\n",
                   r.id.c_str(), attempt, max_attempts, r.error.c_str());
    };
  }

  // ---- execution: in-process pool, the distributed fabric, or a daemon -----
  // Every way `results` comes back slot-ordered, so everything downstream
  // (records, journal, metrics, summary) is byte-identical.
  pfi::fabric::Listener listener;
  pfi::fabric::LocalWorkerPool pool;
  if (use_fabric) {
    // --listen publishes a real address for external pfi_worker processes;
    // plain --workers keeps the fabric on an ephemeral loopback port.
    if (!listener.open(a.listen.empty() ? "127.0.0.1:0" : a.listen, &err)) {
      print_error(err);
      return 2;
    }
    if (!a.quiet && !a.listen.empty()) {
      std::fprintf(stderr, "fabric: listening on %s\n",
                   listener.address().c_str());
    }
    if (a.workers > 0) {
      pfi::fabric::WorkerOptions wopts;
      wopts.connect = listener.address();
      wopts.isolate = a.isolate;
      wopts.retries = retries;
      wopts.heartbeat_ms = a.heartbeat_ms;
      wopts.token = a.token;  // the local fleet authenticates like anyone
      // Spawned before any threads exist (the poll-loop coordinator never
      // spawns its own): fork() from a single-threaded parent only.
      if (!pfi::fabric::spawn_local_workers(wopts, a.workers, listener.fd(),
                                            &pool, &err)) {
        print_error(err);
        return 2;
      }
    }
  }

  std::signal(SIGINT, handle_sigint);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<RunResult> results;
  std::string submit_err;  // --submit: why the daemon job ended early
  // Fleet observability state (side channel only — feeds --flight-out,
  // --metrics-out's fabric/fleet sections and the --timeline flight lane,
  // never the report or journal).
  pfi::fabric::FlightRecorder flight;
  pfi::obs::Registry fabric_obs;
  std::map<std::string, std::vector<pfi::obs::MetricSample>> worker_stats;
  pfi::fabric::FabricStats fstats;
  if (use_fabric) {
    pfi::fabric::FabricOptions fopts;
    fopts.no_worker_timeout_ms = 60000;
    fopts.dead_after_ms = a.dead_after_ms;
    fopts.reconnect_grace_ms = a.reconnect_grace_ms;
    fopts.heartbeat_ms = a.heartbeat_ms;
    fopts.token = a.token;
    fopts.flap_every = a.workers_flap;
    fopts.should_stop = opts.should_stop;
    fopts.on_result = opts.on_result;
    fopts.flight = &flight;
    fopts.obs = &fabric_obs;
    if (!a.metrics_out.empty()) fopts.worker_stats_out = &worker_stats;
    fopts.on_result_worker = [&](const std::string& id) { ++fleet_done[id]; };
    if (a.workers_kill_one) {
      // SIGKILL one auto-spawned worker after the first result arrives;
      // the survivors absorb its leases.
      bool killed = false;
      fopts.on_result = [&, inner = opts.on_result](const RunResult& r) {
        if (!killed && !pool.pids.empty()) {
          killed = true;
          kill(pool.pids.front(), SIGKILL);
        }
        if (inner) inner(r);
      };
    }
    if (!a.quiet) {
      fopts.on_log = [&](const std::string& msg) {
        std::fprintf(stderr, "%s  fabric: %s\n", tty ? "\r\x1b[K" : "",
                     msg.c_str());
      };
    }
    results = pfi::fabric::run_fabric(&listener, todo, fopts, &fstats);
    pfi::fabric::reap_local_workers(&pool);
    if (!a.quiet) {
      std::fprintf(stderr,
                   "fabric: %d worker(s) joined, %d lost, %d lease(s), "
                   "%d cell(s) requeued\n",
                   fstats.workers_joined, fstats.workers_lost,
                   fstats.leases_granted, fstats.cells_requeued);
      if (fstats.links_dropped > 0) {
        std::fprintf(stderr,
                     "fabric: %d link(s) dropped, %d reattach(es), "
                     "%d stale result(s)\n",
                     fstats.links_dropped, fstats.workers_reattached,
                     fstats.stale_results);
      }
      if (fstats.unknown_frames > 0) {
        std::fprintf(stderr, "fabric: %d unknown frame(s) ignored\n",
                     fstats.unknown_frames);
      }
    }
  } else if (!a.submit.empty()) {
    results = client.run_cells(todo, opts, &submit_err);
  } else {
    results = run_cells(todo, opts);
  }
  report.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  std::signal(SIGINT, SIG_DFL);
  report.interrupted = g_interrupted != 0 || !submit_err.empty();
  if (!submit_err.empty()) print_error(submit_err);
  if (!a.quiet && tty && done != static_cast<int>(todo.size())) {
    std::fputc('\n', stderr);  // leave the partial progress line intact
  }

  // ---- observability outputs ----------------------------------------------
  // Results come back in cell order, so both documents are deterministic
  // whatever --jobs or --isolate was.
  if (!a.metrics_out.empty()) {
    std::function<void(pfi::campaign::json::Writer*)> fleet;
    if (use_fabric) {
      fleet = [&](pfi::campaign::json::Writer* w) {
        pfi::fabric::write_fleet_sections(w, fstats, worker_stats,
                                          &fabric_obs);
      };
    } else if (!a.submit.empty()) {
      fleet = [&](pfi::campaign::json::Writer* w) { client.fleet_sections(w); };
    }
    if (!write_file_or_stdout(
            a.metrics_out,
            metrics_json(spec.name, static_cast<int>(cells.size()), results,
                         fleet) +
                "\n")) {
      return 2;
    }
  }
  // Always written (empty ring = just the flight-meta line) so consumers
  // can treat the file's existence as unconditional.
  if (!a.flight_out.empty() &&
      !write_file_or_stdout(a.flight_out, flight.to_jsonl())) {
    return 2;
  }
  if (!a.timeline.empty()) {
    std::vector<std::string> fragments;
    for (const RunResult& r : results) {
      if (r.index >= 0 && !r.timeline.empty()) fragments.push_back(r.timeline);
    }
    if (use_fabric) {
      // The flight lane rides above the per-cell lanes: pid = cells.size()
      // can't collide with any cell's pid (those are plan indices).
      const std::string ft =
          flight.to_trace_events("fabric", static_cast<int>(cells.size()));
      if (!ft.empty()) fragments.push_back(ft);
    }
    if (!write_file_or_stdout(
            a.timeline, pfi::obs::timeline_document(fragments) + "\n")) {
      return 2;
    }
  }

  // Skipped cells (index -1: claimed by nobody before the interrupt) leave
  // their slot empty; the summary counts journaled and fresh records alike.
  splice_records(cells, results, &report.records);
  const RecordTally tally = tally_records(report.records);

  if (a.minimize) {
    // Only freshly-executed failures are minimised: a journaled failure was
    // (or can be) minimised by the run that produced it.
    //
    // When journaling, warm ddmin's probe cache from the journal file (it
    // already holds this run's flushed records plus any prior runs') and
    // keep appending fresh probe records, so re-minimising after --resume
    // answers repeated subsets without re-executing them.
    std::map<std::string, std::string> mincache;
    if (journaling) mincache = load_journal(journal_path);
    MinimizeOptions mopts;
    mopts.cache = &mincache;
    if (journal.is_open()) mopts.journal = &journal;
    report.minimized.emplace();
    for (const RunResult& f : results) {
      if (report.interrupted ||
          static_cast<int>(report.minimized->size()) >= a.max_minimize) {
        break;
      }
      // Errors are infrastructure, not a repro; literal .tcl cells have no
      // schedule to cut.
      if (!has_slot(f) || f.pass || f.errored()) continue;
      const RunCell& cell = cells[static_cast<std::size_t>(f.index)];
      if (cell.schedule.empty()) continue;
      if (!a.quiet) {
        std::fprintf(stderr, "  minimizing %s (%zu events)...\n",
                     cell.id.c_str(), cell.schedule.size());
      }
      const MinimizeResult m = minimize_schedule(cell, mopts);
      if (!a.quiet) {
        std::fprintf(stderr, "    -> %zu event(s), reproduced=%s: %s\n",
                     m.minimal_events, m.reproduced ? "yes" : "NO",
                     m.schedule.summary().c_str());
      }
      report.minimized->emplace_back(cell.id, m);
    }
  }
  journal.close();

  if (!write_file_or_stdout(a.out, report_json(spec, report, tally) + "\n")) {
    return 2;
  }
  if (!a.quiet) {
    std::fprintf(stderr, "%d/%d pass, %d fail, %d error%s in %.0f ms\n",
                 tally.pass, static_cast<int>(cells.size()), tally.fail,
                 tally.error,
                 tally.skipped > 0
                     ? (", " + std::to_string(tally.skipped) + " skipped")
                           .c_str()
                     : "",
                 report.wall_ms);
  }
  if (!submit_err.empty()) return 2;
  if (report.interrupted) return 130;
  return tally.fail + tally.error > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  auto parser = make_parser(&a);
  if (const int rc = parser.parse(argc, argv); rc >= 0) return rc;
  const auto& positionals = parser.positionals();

  if (!a.status.empty()) return run_status(a);
  if (a.merge_journals) {
    if (positionals.empty()) {
      return parser.fail("--merge-journals needs journal files");
    }
    return run_merge(a, positionals);
  }

  if (positionals.size() > 1) {
    return parser.fail("unexpected argument " + positionals[1]);
  }
  if (!positionals.empty()) a.spec_path = positionals.front();
  if (a.spec_path.empty() && a.suite.empty()) {
    return parser.fail("needs a spec file or --suite DIR (see --help)");
  }
  if (!a.suite.empty() && (!a.spec_path.empty() || a.explore > 0)) {
    return parser.fail(
        "--suite replaces the spec; it combines with neither a spec file "
        "nor --explore");
  }
  for (const char* flag : {"--batch", "--seed", "--no-prune",
                           "--emit-scripts"}) {
    if (parser.given(flag) && a.explore <= 0) {
      return parser.fail(std::string(flag) + " applies only to --explore");
    }
  }
  if (a.submit.empty() && parser.given("--max-workers")) {
    return parser.fail("--max-workers applies only to --submit");
  }
  for (const char* flag : kLocalExecution) {
    if (!a.submit.empty() && parser.given(flag)) {
      return parser.fail(std::string(flag) +
                         " does not travel with --submit: the daemon's "
                         "workers execute the cells with their own settings");
    }
  }
  std::string err;
  std::optional<CampaignSpec> spec;
  if (!a.suite.empty()) {
    spec = suite_spec(a.suite);
  } else {
    spec = load_spec_file(a.spec_path, &err);
    if (!spec) {
      print_error(err);
      return 2;
    }
  }
  // CLI overrides win over the spec's own resilience knobs; the planned
  // cells carry them, to a daemon too.
  if (a.timeout_ms >= 0) spec->timeout_ms = a.timeout_ms;
  if (a.max_events >= 0) {
    spec->max_sim_events = static_cast<std::uint64_t>(a.max_events);
  }
  if ((a.workers > 0 || !a.listen.empty()) && a.explore > 0) {
    return parser.fail(
        "--workers applies to the static matrix; distribute --explore "
        "through pfi_fabricd + --submit instead");
  }
  const int retries = a.retries >= 0 ? a.retries : spec->retries;
  if (a.explore > 0) return run_explore(a, *spec, retries);
  return run_matrix(a, *spec, retries);
}
