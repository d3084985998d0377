// pfi_fabricd — the campaign-as-a-service daemon.
//
//   $ ./pfi_fabricd --listen 0.0.0.0:7700 --workers 4
//   $ ./pfi_fabricd --listen unix:/tmp/fabricd.sock
//
// One socket, two populations: workers (pfi_worker, or --workers N
// auto-spawned local ones) join the lease pool; clients
// (`pfi_campaign spec --submit ADDR`) submit campaign or search specs as
// jobs. Up to --max-active jobs run concurrently over the shared pool
// (leases round-robin across them, per-job --max-workers quotas honoured);
// more queue FIFO. Each client streams PROGRESS lines and live journal
// chunks while its job runs and receives the final artifacts (report,
// journal, metrics / corpus) when it finishes. --token gates every HELLO;
// --allow restricts TCP peers. SIGINT/SIGTERM drains the active jobs and
// BYEs every connection.
#include <csignal>
#include <cstdio>
#include <string>

#include "campaign/flags.hpp"
#include "campaign/report.hpp"
#include "fabric/service.hpp"
#include "fabric/socket.hpp"
#include "fabric/worker.hpp"
#include "obs/metrics.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

extern "C" void handle_stop(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  namespace f = pfi::campaign::flags;
  std::string listen;
  std::string flight_out;
  int workers = 0;
  pfi::fabric::WorkerOptions wopts;
  pfi::fabric::ServiceOptions sopts;
  bool quiet = false;
  f::Parser parser(
      "pfi_fabricd", {"--listen HOST:PORT|unix:PATH [options]"},
      {
      f::text("--listen", "ADDR", "accept workers and clients on ADDR",
              &listen),
      f::number("--workers", "N", "auto-spawn N local workers", &workers),
      f::number("--jobs", "N", "executor threads per local worker",
                &wopts.jobs),
      f::toggle("--isolate", "local workers fork-sandbox each cell",
                &wopts.isolate),
      f::number("--retries", "N", "local workers' retry policy",
                &wopts.retries),
      f::number("--lease-batch", "N", "max cells per lease grant (8)",
                &sopts.lease_batch),
      f::number("--dead-after-ms", "N", "worker silence threshold (5000)",
                &sopts.dead_after_ms),
      f::number("--reconnect-grace-ms", "N", "detached-worker grace",
                &sopts.reconnect_grace_ms),
      f::custom("--heartbeat-ms", "N", "beat interval, both directions (500)",
                "an integer", [&](std::string_view v) {
                  namespace kv = pfi::campaign::kv;
                  return kv::to_int(v, &wopts.heartbeat_ms) &&
                         kv::to_int(v, &sopts.heartbeat_ms);
                }),
      f::text("--token", "SECRET", "shared secret every HELLO must carry",
              &sopts.token, "PFI_FABRIC_TOKEN"),
      f::repeated("--allow", "ADDR", "allowlist a TCP peer (repeatable)",
                  &sopts.allow),
      f::number("--max-active", "N", "jobs running concurrently (4)",
                &sopts.max_active),
      f::text("--flight-out", "FILE", "flight recorder JSONL at shutdown",
              &flight_out),
      f::toggle("--quiet", "no job/worker log lines on stderr", &quiet),
      });
  if (const int rc = parser.parse(argc, argv); rc >= 0) return rc;
  if (!parser.positionals().empty()) {
    return parser.fail("unexpected argument " + parser.positionals()[0]);
  }
  if (listen.empty()) return parser.fail("needs --listen ADDR");
  wopts.token = sopts.token;  // the local fleet authenticates like anyone

  std::string err;
  pfi::fabric::Listener listener;
  if (!listener.open(listen, &err)) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    return 2;
  }
  if (!quiet) {
    sopts.on_log = [](const std::string& msg) {
      std::fprintf(stderr, "pfi_fabricd: %s\n", msg.c_str());
    };
    std::fprintf(stderr, "pfi_fabricd: listening on %s\n",
                 listener.address().c_str());
  }

  // Spawn local workers *before* the service starts any threads: the
  // children come from fork() and must not inherit a multithreaded parent.
  pfi::fabric::LocalWorkerPool pool;
  if (workers > 0) {
    wopts.connect = listener.address();
    if (!pfi::fabric::spawn_local_workers(wopts, workers, listener.fd(),
                                          &pool, &err)) {
      std::fprintf(stderr, "error: %s\n", err.c_str());
      return 2;
    }
  }

  std::signal(SIGINT, handle_stop);
  std::signal(SIGTERM, handle_stop);
  sopts.should_stop = [] { return g_stop != 0; };
  // Observability plane: flight events and coordinator stage timings feed
  // the STATUS API and every campaign job's fleet metrics artifact.
  pfi::fabric::FlightRecorder flight;
  pfi::obs::Registry obs;
  sopts.flight = &flight;
  sopts.obs = &obs;
  pfi::fabric::ServiceStats stats;
  const int rc = pfi::fabric::run_service(&listener, sopts, &stats);
  pfi::fabric::reap_local_workers(&pool);
  if (!flight_out.empty()) {
    pfi::campaign::write_file_or_stdout(flight_out, flight.to_jsonl());
  }
  if (!quiet) {
    std::fprintf(stderr,
                 "pfi_fabricd: %d job(s) accepted, %d completed, %d "
                 "rejected; %d worker join(s), %d lost\n",
                 stats.jobs_accepted, stats.jobs_completed,
                 stats.jobs_rejected, stats.fabric.workers_joined,
                 stats.fabric.workers_lost);
  }
  return rc;
}
