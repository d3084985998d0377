// pfi_campaign — plan, execute and report a fault-injection campaign.
//
//   $ ./pfi_campaign ../scripts/campaign_gmp_omission.spec --jobs 4
//   $ ./pfi_campaign spec.file --filter gmp-commit --minimize --out out.json
//   $ ./pfi_campaign spec.file --isolate --timeout-ms 5000 --retries 2
//   $ ./pfi_campaign spec.file --resume        # skip journaled cells
//
// Reads a campaign spec (docs/CAMPAIGN.md), expands the run matrix, executes
// every cell on a worker pool, and writes one JSON document: per-run records
// (byte-identical whatever --jobs was), a summary, and — with --minimize —
// a 1-minimal reproduction schedule for each failing cell.
//
// Resilience: --timeout-ms / --max-events arm a per-cell watchdog (overruns
// become deterministic `timeout` error records), --isolate forks each cell
// into a child process (crashes become `signal ...` error records),
// --retries re-runs errored cells with backoff, and --resume + the journal
// (an append-only JSONL checkpoint next to the spec) survive SIGINT: the
// first Ctrl-C stops gracefully and flushes completed records, a second
// kills immediately, and the next --resume run executes only the cells the
// journal doesn't already hold.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <cerrno>

#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <fstream>
#include <sstream>

#include "campaign/executor.hpp"
#include "campaign/journal.hpp"
#include "campaign/json.hpp"
#include "campaign/minimize.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "campaign/suite.hpp"
#include "fabric/coordinator.hpp"
#include "fabric/socket.hpp"
#include "fabric/wire.hpp"
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
  long long max_events = -1;
  int retries = -1;
  int lint = 0;  // 0 = off, 1 = --lint (errors), 2 = --lint=strict
  int explore = 0;          // > 0: coverage-guided search with this budget
  std::string corpus_out;   // --explore: write the corpus JSONL here
  std::string corpus_in;    // --explore: resume from this corpus JSONL
  int workers = 0;          // > 0: distribute over auto-spawned workers
  std::string listen;       // fabric listen address for external pfi_workers
  std::string token;        // fabric shared secret (HELLO auth)
  int heartbeat_ms = 500;   // auto-spawned workers' beat interval
  int dead_after_ms = 5000;      // coordinator's worker-silence threshold
  int reconnect_grace_ms = -1;   // detached-worker grace; -1 = dead-after-ms
  int max_workers = 0;      // --submit: per-job distinct-worker quota
  std::string submit;       // daemon address: run the spec as a fabric job
  bool merge_journals = false;  // positional args are journal files to merge
  bool workers_kill_one = false;  // test hook: SIGKILL one worker mid-run
  int workers_flap = 0;     // test hook: sever a worker link every N results
  bool isolate = false;
  bool resume = false;
  bool minimize = false;
  bool list = false;
  bool quiet = false;
};

int usage(int code) {
  std::printf(
      "usage: pfi_campaign <spec-file> [options]\n"
      "       pfi_campaign --suite DIR [options]\n"
      "  --jobs N          worker threads / child processes (default 1)\n"
      "  --suite DIR       run DIR's *.pdt conformance timelines instead of\n"
      "                    a spec: each timeline x each vendor TcpProfile is\n"
      "                    one cell under the `conformance` oracle\n"
      "                    (docs/CONFORMANCE.md)\n"
      "  --filter SUBSTR   run only cells whose id contains SUBSTR\n"
      "  --timeout-ms N    per-cell wall-clock budget; overruns become\n"
      "                    deterministic `timeout` error records\n"
      "  --max-events N    per-cell simulation-event budget (same reporting)\n"
      "  --isolate         fork each cell into a child process: crashes\n"
      "                    (SIGSEGV, aborts) become `signal` error records\n"
      "  --retries N       re-run errored cells (never oracle failures) up\n"
      "                    to N extra times with capped backoff\n"
      "  --resume          skip cells whose record is already journaled;\n"
      "                    implies journaling to <spec>.journal\n"
      "  --journal FILE    journal path (enables journaling)\n"
      "  --lint            statically check each cell's schedule/script\n"
      "                    before running; violations become deterministic\n"
      "                    `lint` error records and the cell is skipped.\n"
      "                    Also reports groups of planned cells whose\n"
      "                    canonical schedules are provably equivalent\n"
      "  --lint=strict     as --lint, but warnings also reject a cell\n"
      "  --explore=N       coverage-guided search instead of the static\n"
      "                    matrix: spend N cell executions mutating fault\n"
      "                    schedules toward unseen coverage digests; the\n"
      "                    search report replaces the campaign report\n"
      "  --corpus-out FILE (--explore) write the final corpus as JSONL\n"
      "  --corpus-in FILE  (--explore) resume from a corpus JSONL\n"
      "  --minimize        delta-debug each failing schedule to a minimal\n"
      "                    reproduction (schedule-mode cells only)\n"
      "  --max-minimize N  minimise at most N failing cells (default 8)\n"
      "  --out FILE        write the JSON report to FILE (default stdout)\n"
      "  --metrics-out FILE  write campaign-merged metrics (counters sum,\n"
      "                    gauges max across cells) as one JSON document\n"
      "  --timeline FILE   write a Chrome trace-event timeline of the\n"
      "                    executed cells (open in about:tracing / Perfetto);\n"
      "                    with --workers, fabric flight events splice in as\n"
      "                    their own process lane\n"
      "  --flight-out FILE write the fabric flight recorder (control-plane\n"
      "                    events: connects, grants, results, requeues...) as\n"
      "                    JSONL; side channel only, never affects the report\n"
      "  --workers N       distribute cells over N auto-spawned local worker\n"
      "                    processes (docs/FABRIC.md); the report is\n"
      "                    byte-identical to --jobs 1\n"
      "  --listen ADDR     coordinate over ADDR (HOST:PORT or unix:PATH) so\n"
      "                    external pfi_worker processes can join; combines\n"
      "                    with --workers N local ones\n"
      "  --token SECRET    fabric shared secret: required of every worker\n"
      "                    (--workers/--listen) and presented to the daemon\n"
      "                    (--submit); or set PFI_FABRIC_TOKEN\n"
      "  --heartbeat-ms N  auto-spawned workers' beat interval (default 500)\n"
      "  --dead-after-ms N worker silence threshold (default 5000)\n"
      "  --reconnect-grace-ms N  how long a disconnected worker may stay\n"
      "                    away before its leases requeue (default:\n"
      "                    dead-after-ms)\n"
      "  --submit ADDR     send the spec to a pfi_fabricd daemon at ADDR\n"
      "                    (HOST:PORT or unix:PATH) instead of executing\n"
      "                    locally; streams progress and live journal\n"
      "                    chunks, writes the returned artifacts to\n"
      "                    --out/--journal/--metrics-out; with --resume,\n"
      "                    sends journaled keys so only the rest execute\n"
      "  --max-workers N   (--submit) cap the distinct workers serving this\n"
      "                    job so concurrent jobs share the pool\n"
      "  --status ADDR     query a pfi_fabricd daemon's STATUS API and print\n"
      "                    the JSON reply (queue depth, jobs, workers, fleet\n"
      "                    metrics) to --out or stdout; no spec needed\n"
      "  --merge-journals  treat the positional arguments as journal JSONL\n"
      "                    files: dedupe by content key, sort, write one\n"
      "                    byte-deterministic journal to --out (or stdout)\n"
      "  --list            print the planned cell ids and exit\n"
      "  --quiet           no progress output on stderr\n");
  return code;
}

/// Write `bytes` to `path` ("" or "-" = stdout). False on I/O failure.
bool write_file_or_stdout(const std::string& path, const std::string& bytes) {
  if (path.empty() || path == "-") {
    std::fwrite(bytes.data(), 1, bytes.size(), stdout);
    return true;
  }
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::vector<std::string> positionals;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (a == "--jobs") {
      args.jobs = std::atoi(next());
    } else if (a == "--suite") {
      args.suite = next();
    } else if (a == "--filter") {
      args.filter = next();
    } else if (a == "--timeout-ms") {
      args.timeout_ms = std::atoi(next());
    } else if (a == "--max-events") {
      args.max_events = std::atoll(next());
    } else if (a == "--isolate") {
      args.isolate = true;
    } else if (a == "--retries") {
      args.retries = std::atoi(next());
    } else if (a == "--resume") {
      args.resume = true;
    } else if (a == "--journal") {
      args.journal = next();
    } else if (a == "--lint") {
      args.lint = 1;
    } else if (a == "--lint=strict") {
      args.lint = 2;
    } else if (a.rfind("--explore=", 0) == 0) {
      args.explore = std::atoi(a.c_str() + std::strlen("--explore="));
    } else if (a == "--explore") {
      args.explore = std::atoi(next());
    } else if (a == "--corpus-out") {
      args.corpus_out = next();
    } else if (a == "--corpus-in") {
      args.corpus_in = next();
    } else if (a == "--minimize") {
      args.minimize = true;
    } else if (a == "--max-minimize") {
      args.max_minimize = std::atoi(next());
    } else if (a == "--out") {
      args.out = next();
    } else if (a == "--metrics-out") {
      args.metrics_out = next();
    } else if (a == "--timeline") {
      args.timeline = next();
    } else if (a == "--flight-out") {
      args.flight_out = next();
    } else if (a == "--status") {
      args.status = next();
    } else if (a == "--workers") {
      args.workers = std::atoi(next());
    } else if (a == "--listen") {
      args.listen = next();
    } else if (a == "--token") {
      args.token = next();
    } else if (a == "--heartbeat-ms") {
      args.heartbeat_ms = std::atoi(next());
    } else if (a == "--dead-after-ms") {
      args.dead_after_ms = std::atoi(next());
    } else if (a == "--reconnect-grace-ms") {
      args.reconnect_grace_ms = std::atoi(next());
    } else if (a == "--max-workers") {
      args.max_workers = std::atoi(next());
    } else if (a == "--workers-kill-one") {
      // Test hook (CI worker-death smoke): SIGKILL one auto-spawned worker
      // after the first result arrives; the survivors absorb its leases.
      args.workers_kill_one = true;
    } else if (a == "--workers-flap") {
      // Test hook (CI/bench link-flap smoke): sever one worker's link every
      // N results; the workers reconnect and the report must not change.
      args.workers_flap = std::atoi(next());
    } else if (a == "--submit") {
      args.submit = next();
    } else if (a == "--merge-journals") {
      args.merge_journals = true;
    } else if (a == "--list") {
      args.list = true;
    } else if (a == "--quiet") {
      args.quiet = true;
    } else if (a == "--help" || a == "-h") {
      return usage(0);
    } else if (!a.empty() && a[0] == '-') {
      return usage(2);
    } else {
      positionals.push_back(a);
    }
  }
  if (args.token.empty()) {
    const char* env = std::getenv("PFI_FABRIC_TOKEN");
    if (env != nullptr) args.token = env;
  }

  if (!args.status.empty()) {
    // STATUS mode: one round trip to a pfi_fabricd daemon — HELLO as a
    // client, send an empty STATUS frame, print the JSON reply. No spec.
    std::string serr;
    const int fd = pfi::fabric::dial(args.status, &serr);
    if (fd < 0) {
      std::fprintf(stderr, "error: %s\n", serr.c_str());
      return 2;
    }
    pfi::fabric::FrameReader reader;
    auto read_frame = [&](pfi::fabric::Frame* out) {
      for (;;) {
        if (reader.next(out)) return true;
        if (reader.corrupt()) return false;
        char buf[65536];
        const ssize_t n = recv(fd, buf, sizeof buf, 0);
        if (n <= 0) {
          if (n < 0 && errno == EINTR) continue;
          return false;
        }
        reader.feed(buf, static_cast<std::size_t>(n));
      }
    };
    pfi::fabric::Hello hello;
    hello.role = "client";
    hello.name = "pfi_campaign-status-" + std::to_string(getpid());
    hello.token = args.token;
    const std::string hf = pfi::fabric::encode_frame(
        pfi::fabric::FrameType::kHello, pfi::fabric::encode_hello(hello));
    pfi::fabric::Frame f;
    if (!pfi::fabric::send_all(fd, hf.data(), hf.size()) || !read_frame(&f)) {
      std::fprintf(stderr, "error: daemon handshake failed\n");
      close(fd);
      return 2;
    }
    if (f.type == pfi::fabric::FrameType::kBye) {
      std::fprintf(stderr, "error: daemon refused: %s\n",
                   pfi::fabric::decode_bye(f.payload).c_str());
      close(fd);
      return 2;
    }
    const std::string sf =
        pfi::fabric::encode_frame(pfi::fabric::FrameType::kStatus, "");
    if (!pfi::fabric::send_all(fd, sf.data(), sf.size())) {
      std::fprintf(stderr, "error: status request failed\n");
      close(fd);
      return 2;
    }
    while (read_frame(&f)) {
      if (f.type == pfi::fabric::FrameType::kStatus) {
        write_file_or_stdout(args.out,
                             pfi::fabric::decode_json_line(f.payload) + "\n");
        close(fd);
        return 0;
      }
      if (f.type == pfi::fabric::FrameType::kBye) break;
    }
    std::fprintf(stderr, "error: no STATUS reply (daemon too old?)\n");
    close(fd);
    return 2;
  }

  if (args.merge_journals) {
    // Offline recovery: workers' (or interrupted runs') journals merge into
    // one byte-deterministic normal form — dedupe by content key, sort.
    if (positionals.empty()) return usage(2);
    int conflicts = 0;
    const auto merged = merge_journals(positionals, &conflicts);
    if (!write_file_or_stdout(args.out, journal_jsonl(merged))) return 2;
    if (!args.quiet) {
      std::fprintf(stderr, "merged %zu journal(s): %zu record(s)%s\n",
                   positionals.size(), merged.size(),
                   conflicts > 0 ? (", " + std::to_string(conflicts) +
                                    " conflicting record(s) dropped")
                                       .c_str()
                                 : "");
    }
    return conflicts > 0 ? 1 : 0;
  }

  if (!positionals.empty()) args.spec_path = positionals.front();
  if (args.spec_path.empty() && args.suite.empty()) return usage(2);
  if (!args.suite.empty() &&
      (!args.spec_path.empty() || !args.submit.empty() || args.explore > 0)) {
    std::fprintf(stderr,
                 "error: --suite replaces the spec and runs locally; it "
                 "combines with neither a spec file, --submit nor "
                 "--explore\n");
    return 2;
  }

  std::string err;
  std::optional<CampaignSpec> spec;
  if (!args.suite.empty()) {
    spec = suite_spec(args.suite);
  } else {
    spec = load_spec_file(args.spec_path, &err);
    if (!spec) {
      std::fprintf(stderr, "error: %s\n", err.c_str());
      return 2;
    }
  }
  // CLI overrides win over the spec's own resilience knobs.
  if (args.timeout_ms >= 0) spec->timeout_ms = args.timeout_ms;
  if (args.max_events >= 0) {
    spec->max_sim_events = static_cast<std::uint64_t>(args.max_events);
  }
  const int retries = args.retries >= 0 ? args.retries : spec->retries;

  if (!args.submit.empty()) {
    // Client mode: the daemon parses, plans and executes; we stream its
    // progress and write the returned artifacts where the local flags
    // would have put them.
    std::ifstream in(args.spec_path);
    std::ostringstream text;
    text << in.rdbuf();

    const int fd = pfi::fabric::dial(args.submit, &err);
    if (fd < 0) {
      std::fprintf(stderr, "error: %s\n", err.c_str());
      return 2;
    }
    pfi::fabric::FrameReader reader;
    auto read_frame = [&](pfi::fabric::Frame* out) {
      for (;;) {
        if (reader.next(out)) return true;
        if (reader.corrupt()) return false;
        char buf[65536];
        const ssize_t n = recv(fd, buf, sizeof buf, 0);
        if (n <= 0) {
          if (n < 0 && errno == EINTR) continue;
          return false;
        }
        reader.feed(buf, static_cast<std::size_t>(n));
      }
    };
    auto send_frame = [&](const std::string& bytes) {
      return pfi::fabric::send_all(fd, bytes.data(), bytes.size());
    };

    pfi::fabric::Hello hello;
    hello.role = "client";
    hello.name = "pfi_campaign-" + std::to_string(getpid());
    hello.token = args.token;
    pfi::fabric::Frame f;
    if (!send_frame(pfi::fabric::encode_frame(
            pfi::fabric::FrameType::kHello,
            pfi::fabric::encode_hello(hello))) ||
        !read_frame(&f)) {
      std::fprintf(stderr, "error: daemon handshake failed\n");
      close(fd);
      return 2;
    }
    if (f.type == pfi::fabric::FrameType::kBye) {
      std::fprintf(stderr, "error: daemon refused: %s\n",
                   pfi::fabric::decode_bye(f.payload).c_str());
      close(fd);
      return 2;
    }

    const bool journaling = args.resume || !args.journal.empty();
    const std::string journal_path =
        args.journal.empty() ? args.spec_path + ".journal" : args.journal;

    pfi::fabric::Submit s;
    s.spec_text = text.str();
    s.filter = args.filter;
    s.timeout_ms = args.timeout_ms;
    s.max_events = args.max_events;
    s.retries = args.retries;
    s.explore = args.explore;
    s.max_workers = args.max_workers;
    if (args.resume) {
      // Hand the daemon what we already hold: it executes only the rest.
      // (A previous submit killed mid-stream left its delivered records in
      // the journal — exactly the chunks the daemon streamed to us.)
      for (const auto& [key, record] : load_journal(journal_path)) {
        (void)record;
        s.have.push_back(key);
      }
    }
    if (!send_frame(pfi::fabric::encode_frame(
            pfi::fabric::FrameType::kSubmit, pfi::fabric::encode_submit(s)))) {
      std::fprintf(stderr, "error: submit failed\n");
      close(fd);
      return 2;
    }

    // Live journal stream: each chunk is one flushed record line, so a
    // client killed mid-run already holds every record that reached it and
    // the next --resume submit skips those cells. Opened lazily (first
    // chunk or the final artifact); --resume appends to the prior journal,
    // a fresh run truncates it.
    FILE* jf = nullptr;
    auto journal_write = [&](const std::string& bytes) {
      if (!journaling) return;
      if (jf == nullptr) {
        jf = std::fopen(journal_path.c_str(), args.resume ? "a" : "w");
        if (jf == nullptr) {
          std::fprintf(stderr, "error: cannot write %s\n",
                       journal_path.c_str());
          return;
        }
      }
      std::fwrite(bytes.data(), 1, bytes.size(), jf);
      std::fflush(jf);
    };

    int rc = 2;  // no DONE = daemon died on us
    while (read_frame(&f)) {
      if (f.type == pfi::fabric::FrameType::kProgress) {
        if (!args.quiet) {
          std::fprintf(stderr, "  %s\n",
                       pfi::fabric::decode_json_line(f.payload).c_str());
        }
      } else if (f.type == pfi::fabric::FrameType::kArtifact) {
        std::string name, bytes, chunk;
        if (!pfi::fabric::decode_artifact(f.payload, &name, &bytes, &chunk)) {
          continue;
        }
        if (name == "report") {
          if (!write_file_or_stdout(args.out, bytes)) rc = 2;
        } else if (name == "journal") {
          // Chunk or final document alike: append, dedupe on close. The
          // final artifact re-sends this job's records, so a run whose
          // chunks were lost still ends up with a complete journal.
          journal_write(bytes);
        } else if (name == "metrics" && !args.metrics_out.empty()) {
          write_file_or_stdout(args.metrics_out, bytes);
        } else if (name == "corpus" && !args.corpus_out.empty()) {
          write_file_or_stdout(args.corpus_out, bytes);
        }
      } else if (f.type == pfi::fabric::FrameType::kDone) {
        const std::string done = pfi::fabric::decode_json_line(f.payload);
        const auto doc = json::parse(done);
        const std::string status =
            doc ? doc->str_or("status", "error") : "error";
        if (!args.quiet) {
          std::fprintf(stderr, "%s\n", done.c_str());
        }
        // Read only past the "error" status, so `doc` parsed. Counts
        // default to 0 when absent; a malformed one reads as a failure.
        const auto count = [&](const char* key) {
          std::uint64_t n = 0;
          return doc->int_field(key, &n) ? n : 1;
        };
        if (status == "error") {
          const std::string msg = doc ? doc->str_or("error", "") : "";
          if (!msg.empty()) std::fprintf(stderr, "error: %s\n", msg.c_str());
          rc = 2;
        } else if (status == "interrupted") {
          rc = 130;
        } else if (args.explore > 0) {
          rc = count("violations") > 0 ? 1 : 0;
        } else {
          rc = count("fail") + count("error") > 0 ? 1 : 0;
        }
        break;
      } else if (f.type == pfi::fabric::FrameType::kBye) {
        break;
      }
    }
    if (jf != nullptr) {
      std::fclose(jf);
      // The file now holds overlapping sets (prior records on --resume,
      // streamed chunks, the final artifact). Rewrite as the sorted,
      // deduped normal form every other journal consumer emits.
      write_file_or_stdout(journal_path,
                           journal_jsonl(load_journal(journal_path)));
    }
    close(fd);
    return rc;
  }

  if ((args.workers > 0 || !args.listen.empty()) && args.explore > 0) {
    std::fprintf(stderr,
                 "error: --workers applies to the static matrix; distribute "
                 "--explore through pfi_fabricd + --submit instead\n");
    return 2;
  }

  if (args.explore > 0) {
    // Coverage-guided mode: the budget buys mutated schedules chasing
    // unseen coverage digests instead of the planner's fixed matrix.
    pfi::search::SearchOptions sopts;
    sopts.budget = args.explore;
    sopts.jobs = args.jobs;
    sopts.isolate = args.isolate;
    sopts.retries = retries;
    sopts.max_minimize = args.max_minimize;
    sopts.corpus_in = args.corpus_in;
    if (args.resume || !args.journal.empty()) {
      sopts.journal_path =
          args.journal.empty() ? args.spec_path + ".journal" : args.journal;
    }
    if (!args.quiet) {
      sopts.on_progress = [](const std::string& line) {
        std::fprintf(stderr, "  %s\n", line.c_str());
      };
    }
    sopts.should_stop = [] { return g_interrupted != 0; };
    std::signal(SIGINT, handle_sigint);
    const auto t0 = std::chrono::steady_clock::now();
    const pfi::search::SearchResult sres = pfi::search::explore(*spec, sopts);
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    std::signal(SIGINT, SIG_DFL);
    if (!sres.error.empty()) {
      std::fprintf(stderr, "error: %s\n", sres.error.c_str());
      if (sres.executed == 0) return 2;
    }
    if (!args.corpus_out.empty()) {
      FILE* f = std::fopen(args.corpus_out.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     args.corpus_out.c_str());
        return 2;
      }
      const std::string jsonl = sres.corpus.to_jsonl();
      std::fwrite(jsonl.data(), 1, jsonl.size(), f);
      std::fclose(f);
    }
    const std::string doc = pfi::search::report_json(*spec, sopts, sres);
    if (args.out.empty()) {
      std::printf("%s\n", doc.c_str());
    } else {
      FILE* f = std::fopen(args.out.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "error: cannot write %s\n", args.out.c_str());
        return 2;
      }
      std::fprintf(f, "%s\n", doc.c_str());
      std::fclose(f);
    }
    if (!args.quiet) {
      std::fprintf(stderr,
                   "explore %s: %d executed -> %zu digests, %zu violation(s) "
                   "in %.0f ms\n",
                   spec->name.c_str(), sres.executed, sres.corpus.size(),
                   sres.violations.size(), wall_ms);
    }
    if (sres.interrupted) return 130;
    return sres.violations.empty() ? 0 : 1;
  }

  std::vector<RunCell> planned;
  if (!args.suite.empty()) {
    auto suite_cells = plan_suite(args.suite, &err);
    if (!suite_cells) {
      std::fprintf(stderr, "error: %s\n", err.c_str());
      return 2;
    }
    planned = std::move(*suite_cells);
  } else {
    planned = plan(*spec);
  }
  const auto cells = filter_cells(std::move(planned), args.filter);
  if (args.list) {
    for (const auto& c : cells) std::printf("%s\n", c.id.c_str());
    return 0;
  }
  if (cells.empty()) {
    std::fprintf(stderr, "error: no cells match\n");
    return 2;
  }

  // ---- journal: content keys, prior records, the todo subset --------------
  const bool journaling = args.resume || !args.journal.empty();
  const std::string journal_path =
      !args.journal.empty()
          ? args.journal
          : (args.suite.empty() ? args.spec_path : args.suite) + ".journal";
  std::vector<std::string> keys;
  std::map<std::string, std::string> prior;
  if (journaling) {
    keys.reserve(cells.size());
    for (const auto& c : cells) keys.push_back(cell_key(c));
    if (args.resume) prior = load_journal(journal_path);
  }
  // records[i] is plan slot i's JSON record; empty = not run (interrupted).
  std::vector<std::string> records(cells.size());
  std::vector<RunCell> todo;
  int resumed = 0;
  int lint_rejected = 0;
  int equiv_cells = 0;
  // Group key -> ids of planned schedule-mode cells in that class; groups
  // of 2+ are provably equivalent *runs*: cell_key over the canonicalized
  // schedule folds in every run parameter (seed, warmup, duration, jitter,
  // oracle, ...), so two cells only collide when nothing observable
  // distinguishes them. The simulation seed is dropped from the key only
  // when it is provably inert: the sim PRNG feeds jitter draws and corrupt
  // actions' byte draws, so with jitter 0 and no kCorrupt event the seed
  // cannot reach behaviour (the same fact behind the planner matrix
  // collapsing to a handful of digests — docs/SEARCH.md).
  const auto equiv_group_key = [](const RunCell& cell) {
    RunCell canon = cell;
    canon.schedule =
        pfi::lint::canonicalize(canon.schedule, canon.protocol);
    const bool seed_inert =
        canon.jitter == 0 &&
        std::none_of(canon.schedule.events.begin(),
                     canon.schedule.events.end(), [](const auto& e) {
                       return e.kind ==
                              pfi::core::scriptgen::FaultKind::kCorrupt;
                     });
    if (seed_inert) canon.seed = 0;
    return cell_key(canon);
  };
  std::map<std::string, std::vector<std::string>> equiv_groups;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto hit = journaling ? prior.find(keys[i]) : prior.end();
    if (hit != prior.end()) {
      records[i] = rewrite_index(hit->second, cells[i].index);
      ++resumed;
      continue;
    }
    if (args.lint > 0) {
      // Lint runs sequentially over the plan, before the worker pool, so
      // rejected cells produce records that are byte-identical whatever
      // --jobs or --isolate was — the timeout-record discipline.
      const auto diags = pfi::lint::check_cell(cells[i]);
      const bool reject = pfi::lint::has_errors(diags) ||
                          (args.lint == 2 && !diags.empty());
      if (reject) {
        records[i] =
            record_json(pfi::lint::lint_error_result(cells[i], diags));
        ++lint_rejected;
        if (!args.quiet) {
          std::fprintf(stderr, "  lint %-40s %s\n", cells[i].id.c_str(),
                       pfi::lint::format_text(diags.front()).c_str());
        }
        continue;
      }
      if (cells[i].script_file.empty() && cells[i].conform_file.empty()) {
        equiv_groups[equiv_group_key(cells[i])].push_back(cells[i].id);
      }
    }
    todo.push_back(cells[i]);  // keeps its plan index
  }
  if (args.lint > 0) {
    for (const auto& [key, ids] : equiv_groups) {
      if (ids.size() < 2) continue;
      equiv_cells += static_cast<int>(ids.size()) - 1;
      if (!args.quiet) {
        std::string list = ids.front();
        for (std::size_t i = 1; i < ids.size(); ++i) list += ", " + ids[i];
        std::fprintf(stderr,
                     "  lint %zu cells are provably equivalent "
                     "(identical canonical schedule and run parameters): "
                     "%s\n",
                     ids.size(), list.c_str());
      }
    }
  }
  if (!args.timeline.empty()) {
    // Only freshly-executed cells can contribute timeline fragments —
    // journaled records don't carry one.
    for (RunCell& c : todo) c.capture_timeline = true;
  }

  if (!args.quiet) {
    std::fprintf(stderr, "campaign %s: %zu cells, %d job(s)%s%s\n",
                 spec->name.c_str(), cells.size(), std::max(1, args.jobs),
                 args.isolate ? ", isolated" : "",
                 args.resume ? (", " + std::to_string(resumed) +
                                " journaled, " + std::to_string(todo.size()) +
                                " to run")
                                   .c_str()
                             : "");
  }

  Journal journal;
  if (journaling && !todo.empty() && !journal.open(journal_path)) {
    std::fprintf(stderr, "error: cannot append to journal %s\n",
                 journal_path.c_str());
    return 2;
  }
  std::map<int, const std::string*> key_of_index;  // plan index -> cell key
  if (journaling) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      key_of_index[cells[i].index] = &keys[i];
    }
  }

  const bool use_fabric = args.workers > 0 || !args.listen.empty();
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
      for (const auto& [id, n] : fleet_done) {
        best = std::max(best, n / el);
      }
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
  opts.jobs = args.jobs;
  opts.isolate = args.isolate;
  opts.retries = retries;
  opts.should_stop = [] { return g_interrupted != 0; };
  opts.on_result = [&](const RunResult& r) {
    ++done;
    if (r.errored()) {
      ++live_err;
    } else if (r.pass) {
      ++live_pass;
    } else {
      ++live_fail;
    }
    if (journal.is_open()) {
      const auto it = key_of_index.find(r.index);
      if (it != key_of_index.end()) {
        journal.append(*it->second, record_json(r));
      }
    }
    if (args.quiet) return;
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
  if (!args.quiet) {
    opts.on_retry = [&](const RunResult& r, int attempt, int max_attempts) {
      std::fprintf(stderr, "  retry %-40s attempt %d/%d failed: %s\n",
                   r.id.c_str(), attempt, max_attempts, r.error.c_str());
    };
  }

  // ---- execution: in-process pool, or the distributed fabric --------------
  // Either way `results` comes back slot-ordered, so everything downstream
  // (records, journal, metrics, summary) is byte-identical.
  pfi::fabric::Listener listener;
  pfi::fabric::LocalWorkerPool pool;
  if (use_fabric) {
    std::string ferr;
    // --listen publishes a real address for external pfi_worker processes;
    // plain --workers keeps the fabric on an ephemeral loopback port.
    if (!listener.open(args.listen.empty() ? "127.0.0.1:0" : args.listen,
                       &ferr)) {
      std::fprintf(stderr, "error: %s\n", ferr.c_str());
      return 2;
    }
    if (!args.quiet && !args.listen.empty()) {
      std::fprintf(stderr, "fabric: listening on %s\n",
                   listener.address().c_str());
    }
    if (args.workers > 0) {
      pfi::fabric::WorkerOptions wopts;
      wopts.connect = listener.address();
      wopts.isolate = args.isolate;
      wopts.retries = retries;
      wopts.heartbeat_ms = args.heartbeat_ms;
      wopts.token = args.token;  // the local fleet authenticates like anyone
      // Spawned before any threads exist (the poll-loop coordinator never
      // spawns its own): fork() from a single-threaded parent only.
      if (!pfi::fabric::spawn_local_workers(wopts, args.workers,
                                            listener.fd(), &pool, &ferr)) {
        std::fprintf(stderr, "error: %s\n", ferr.c_str());
        return 2;
      }
    }
  }

  std::signal(SIGINT, handle_sigint);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<RunResult> results;
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
    fopts.dead_after_ms = args.dead_after_ms;
    fopts.reconnect_grace_ms = args.reconnect_grace_ms;
    fopts.heartbeat_ms = args.heartbeat_ms;
    fopts.token = args.token;
    fopts.flap_every = args.workers_flap;
    fopts.should_stop = opts.should_stop;
    fopts.on_result = opts.on_result;
    fopts.flight = &flight;
    fopts.obs = &fabric_obs;
    if (!args.metrics_out.empty()) fopts.worker_stats_out = &worker_stats;
    fopts.on_result_worker = [&](const std::string& id) {
      ++fleet_done[id];
    };
    if (args.workers_kill_one) {
      bool killed = false;
      fopts.on_result = [&, inner = opts.on_result](const RunResult& r) {
        if (!killed && !pool.pids.empty()) {
          killed = true;
          kill(pool.pids.front(), SIGKILL);
        }
        if (inner) inner(r);
      };
    }
    if (!args.quiet) {
      fopts.on_log = [&](const std::string& msg) {
        std::fprintf(stderr, "%s  fabric: %s\n", tty ? "\r\x1b[K" : "",
                     msg.c_str());
      };
    }
    results = pfi::fabric::run_fabric(&listener, todo, fopts, &fstats);
    pfi::fabric::reap_local_workers(&pool);
    if (!args.quiet) {
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
  } else {
    results = run_cells(todo, opts);
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  std::signal(SIGINT, SIG_DFL);
  const bool interrupted = g_interrupted != 0;
  if (!args.quiet && tty && done != static_cast<int>(todo.size())) {
    std::fputc('\n', stderr);  // leave the partial progress line intact
  }

  // ---- observability outputs ----------------------------------------------
  // Results come back in cell order, so both documents are deterministic
  // whatever --jobs or --isolate was.
  if (!args.metrics_out.empty()) {
    std::map<std::string, pfi::obs::MetricSample> merged;
    int measured = 0;
    for (const RunResult& r : results) {
      if (r.index < 0 || r.metrics.empty()) continue;
      ++measured;
      pfi::obs::merge_samples(&merged, r.metrics);
    }
    json::Writer mw;
    mw.begin_object();
    mw.kv("campaign", spec->name);
    mw.kv("cells", static_cast<int>(cells.size()));
    mw.kv("cells_measured", measured);
    // The "metrics" object is built solely from per-result records, so its
    // bytes match a --jobs 1 run whatever the worker count. The fabric and
    // fleet sections below are the wall-clock side channel.
    mw.key("metrics").begin_object();
    for (const auto& [name, m] : merged) mw.kv(name, m.value);
    mw.end_object();
    if (use_fabric) {
      mw.key("fabric").value_raw(fstats.to_json());
      std::map<std::string, pfi::obs::MetricSample> fleet;
      for (const auto& [id, samples] : worker_stats) {
        pfi::obs::merge_samples(&fleet, samples);
      }
      pfi::obs::merge_samples(&fleet, fabric_obs.snapshot());
      mw.key("fleet").begin_object();
      mw.key("merged").begin_object();
      for (const auto& [name, m] : fleet) mw.kv(name, m.value);
      mw.end_object();
      mw.key("workers").begin_object();
      for (const auto& [id, samples] : worker_stats) {
        mw.key(id).begin_object();
        for (const auto& m : samples) mw.kv(m.name, m.value);
        mw.end_object();
      }
      mw.end_object();
      mw.end_object();
    }
    mw.end_object();
    FILE* f = std::fopen(args.metrics_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   args.metrics_out.c_str());
      return 2;
    }
    std::fprintf(f, "%s\n", mw.str().c_str());
    std::fclose(f);
  }
  if (!args.flight_out.empty()) {
    // Always written (empty ring = just the flight-meta line) so consumers
    // can treat the file's existence as unconditional.
    if (!write_file_or_stdout(args.flight_out, flight.to_jsonl())) return 2;
  }
  if (!args.timeline.empty()) {
    std::vector<std::string> fragments;
    for (const RunResult& r : results) {
      if (r.index >= 0 && !r.timeline.empty()) fragments.push_back(r.timeline);
    }
    if (use_fabric) {
      // The flight lane rides above the per-cell lanes: pid = cells.size()
      // can't collide with any cell's pid (those are plan indices).
      const std::string ft = flight.to_trace_events(
          "fabric", static_cast<int>(cells.size()));
      if (!ft.empty()) fragments.push_back(ft);
    }
    FILE* f = std::fopen(args.timeline.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", args.timeline.c_str());
      return 2;
    }
    std::fprintf(f, "%s\n",
                 pfi::obs::timeline_document(fragments).c_str());
    std::fclose(f);
  }

  // Splice freshly-executed records into their plan slots. Skipped cells
  // (index -1: claimed by nobody before the interrupt) leave the slot empty.
  std::map<int, std::size_t> slot_of_index;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    slot_of_index[cells[i].index] = i;
  }
  for (const RunResult& r : results) {
    if (r.index < 0) continue;
    records[slot_of_index[r.index]] = record_json(r);
  }

  // Summary over the merged set — journaled and fresh records count alike.
  Summary sum;
  sum.total = static_cast<int>(cells.size());
  for (const RunResult& r : results) {
    if (r.index >= 0 && (r.errored() || !r.pass)) sum.failures.push_back(&r);
  }
  std::vector<std::string> failing_ids;
  for (const std::string& rec : records) {
    if (rec.empty()) {
      ++sum.skipped;
      continue;
    }
    const auto doc = json::parse(rec);
    const std::string verdict = doc ? doc->str_or("verdict", "error") : "error";
    if (verdict == "pass") {
      ++sum.passed;
    } else {
      if (verdict == "error") {
        ++sum.errored;
      } else {
        ++sum.failed;
      }
      failing_ids.push_back(doc ? doc->str_or("id", "") : "");
    }
  }

  pfi::campaign::json::Writer w;
  w.begin_object();
  w.kv("campaign", spec->name);
  w.kv("protocol", spec->protocol);
  w.kv("oracle", spec->oracle);
  w.kv("cells", sum.total);
  w.key("runs").begin_array();
  for (const std::string& rec : records) {
    if (!rec.empty()) w.value_raw(rec);
  }
  w.end_array();
  w.key("summary").begin_object();
  w.kv("pass", sum.passed);
  w.kv("fail", sum.failed);
  w.kv("error", sum.errored);
  if (sum.skipped > 0) w.kv("skipped", sum.skipped);
  if (lint_rejected > 0) w.kv("lint_rejected", lint_rejected);
  if (equiv_cells > 0) w.kv("equiv_cells", equiv_cells);
  if (resumed > 0) w.kv("resumed", resumed);
  if (interrupted) w.kv("interrupted", true);
  w.kv("jobs", std::max(1, args.jobs));
  w.kv("wall_ms", wall_ms);
  w.key("failing_ids").begin_array();
  for (const std::string& id : failing_ids) w.value(id);
  w.end_array();
  w.end_object();

  if (args.minimize) {
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
    int minimized = 0;
    w.key("minimized").begin_array();
    for (const RunResult* f : sum.failures) {
      if (interrupted || minimized >= args.max_minimize) break;
      if (f->errored()) continue;  // infrastructure error, not a repro
      const std::size_t slot = slot_of_index[f->index];
      const RunCell& cell = cells[slot];
      if (cell.schedule.empty()) continue;  // literal .tcl: nothing to cut
      if (!args.quiet) {
        std::fprintf(stderr, "  minimizing %s (%zu events)...\n",
                     cell.id.c_str(), cell.schedule.size());
      }
      const MinimizeResult m = minimize_schedule(cell, mopts);
      ++minimized;
      w.begin_object();
      w.kv("id", cell.id);
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
      if (!args.quiet) {
        std::fprintf(stderr, "    -> %zu event(s), reproduced=%s: %s\n",
                     m.minimal_events, m.reproduced ? "yes" : "NO",
                     m.schedule.summary().c_str());
      }
    }
    w.end_array();
  }
  w.end_object();
  journal.close();

  const std::string& doc = w.str();
  if (args.out.empty()) {
    std::printf("%s\n", doc.c_str());
  } else {
    FILE* f = std::fopen(args.out.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "error: cannot write %s\n", args.out.c_str());
      return 2;
    }
    std::fprintf(f, "%s\n", doc.c_str());
    std::fclose(f);
  }
  if (!args.quiet) {
    std::fprintf(stderr, "%d/%d pass, %d fail, %d error%s in %.0f ms\n",
                 sum.passed, sum.total, sum.failed, sum.errored,
                 sum.skipped > 0
                     ? (", " + std::to_string(sum.skipped) + " skipped")
                           .c_str()
                     : "",
                 wall_ms);
  }
  if (interrupted) return 130;
  return sum.failed + sum.errored > 0 ? 1 : 0;
}
