// pfi_worker — join a campaign fabric and execute leased cells.
//
//   $ ./pfi_worker --connect 10.0.0.5:7700 --jobs 4 --isolate
//   $ ./pfi_worker --connect unix:/tmp/fabricd.sock
//
// Connects to a coordinator (`pfi_campaign --workers N` auto-spawns these
// locally; this binary is the remote/manual form), pulls cell leases, runs
// them through the ordinary campaign executor — so --jobs, --isolate,
// --retries and the per-cell watchdog all apply *inside* the worker — and
// streams each result back as it finishes. The initial connect and any
// mid-campaign link loss retry with capped exponential backoff; finished
// results survive the flap and are re-submitted after the reconnect.
// Exits 0 when the coordinator says BYE, 2 if the protocol versions
// disagree, 3 if the coordinator rejected our --token.
#include <cstdio>
#include <string>

#include "campaign/flags.hpp"
#include "campaign/report.hpp"
#include "fabric/worker.hpp"

int main(int argc, char** argv) {
  namespace f = pfi::campaign::flags;
  pfi::fabric::WorkerOptions opts;
  std::string flight_out;
  bool quiet = false;
  f::Parser parser(
      "pfi_worker", {"--connect HOST:PORT|unix:PATH [options]"},
      {
      f::text("--connect", "ADDR", "coordinator or daemon to join",
              &opts.connect),
      f::number("--jobs", "N", "executor threads / child processes",
                &opts.jobs),
      f::toggle("--isolate", "fork-sandbox each cell", &opts.isolate),
      f::number("--retries", "N", "re-run errored cells up to N extra times",
                &opts.retries),
      f::number("--lease", "N", "cells per lease (default 2*jobs, min 2)",
                &opts.lease_want),
      f::text("--token", "SECRET", "shared secret for HELLO auth",
              &opts.token, "PFI_FABRIC_TOKEN"),
      f::number("--connect-retries", "N", "extra (re)connect attempts (5)",
                &opts.connect_retries),
      f::number("--heartbeat-ms", "N", "liveness beat interval (500)",
                &opts.heartbeat_ms),
      f::number("--idle-timeout-ms", "N", "reconnect after this much silence",
                &opts.idle_timeout_ms),
      f::text("--name", "LABEL", "name sent in HELLO (default pid-<pid>)",
              &opts.name),
      f::text("--flight-out", "FILE", "flight recorder JSONL at exit",
              &flight_out),
      f::custom("--no-stats", "", "don't ship STATS metrics snapshots", "",
                [&](std::string_view) {
                  opts.ship_stats = false;
                  return true;
                }),
      f::toggle("--quiet", "no per-lease log lines on stderr", &quiet),
      });
  if (const int rc = parser.parse(argc, argv); rc >= 0) return rc;
  if (!parser.positionals().empty()) {
    return parser.fail("unexpected argument " + parser.positionals()[0]);
  }
  if (opts.connect.empty()) return parser.fail("needs --connect ADDR");
  if (!quiet) {
    opts.on_log = [](const std::string& msg) {
      std::fprintf(stderr, "pfi_worker: %s\n", msg.c_str());
    };
  }
  pfi::fabric::FlightRecorder flight;
  if (!flight_out.empty()) opts.flight = &flight;
  const int rc = pfi::fabric::run_worker(opts);
  if (!flight_out.empty() &&
      !pfi::campaign::write_file_or_stdout(flight_out, flight.to_jsonl())) {
    return rc != 0 ? rc : 2;
  }
  return rc;
}
