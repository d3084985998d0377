// The client side of the campaign-as-a-service daemon (`pfi_fabricd`).
//
// One connection: dial, HELLO as a client (a BYE reply carries the
// refusal reason), then any number of STATUS round trips and run_cells
// calls. run_cells is campaign::run_cells executed on the daemon's worker
// pool: the caller plans, lints, journals, minimises and reports exactly
// as it would locally, and the daemon only executes the cells it is sent.
// `pfi_campaign --status` / `--submit` and the daemon's tests speak
// through this class; docs/FABRIC.md describes the frames.
#pragma once

#include <string>
#include <vector>

#include "campaign/executor.hpp"
#include "campaign/json.hpp"
#include "fabric/wire.hpp"

namespace pfi::fabric {

class Client {
 public:
  Client() = default;
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Dial `address` and complete the client HELLO. False with *err set to
  /// the dial error, "daemon handshake failed" or "daemon refused: REASON".
  bool connect(const std::string& address, const std::string& token,
               const std::string& name, std::string* err);

  /// One STATUS round trip: *json gets the daemon's document.
  bool status(std::string* json, std::string* err);

  /// Label every later SUBMIT: the job's name in STATUS and the daemon's
  /// log, and its distinct-worker quota (0 = none).
  void set_job(const std::string& name, int max_workers);

  /// Run `cells` as one daemon job, with campaign::run_cells' contract:
  /// results come back slot-ordered (results[i] is cells[i]), unfinished
  /// slots keep index == -1, opts.on_result fires once per result as it
  /// arrives, and opts.should_stop is sampled while waiting — on true the
  /// client hangs up (the daemon cancels the job's queued cells) and
  /// returns what arrived. The other executor knobs (jobs, isolate,
  /// retries) belong to the daemon's workers. *err is set when the job was
  /// refused or the connection failed before DONE; the connection is
  /// closed then, and later calls return at once.
  std::vector<campaign::RunResult> run_cells(
      const std::vector<campaign::RunCell>& cells,
      const campaign::ExecutorOptions& opts, std::string* err);

  /// Append the last finished job's "fabric" and "fleet" metrics sections,
  /// as its DONE frame carried them, to a metrics document (the `side`
  /// hook of campaign::metrics_json). Writes nothing before a DONE.
  void fleet_sections(campaign::json::Writer* w) const;

 private:
  bool send(const std::string& frame_bytes);
  void hang_up();

  int fd_ = -1;
  FrameReader reader_;
  std::string job_name_;
  int max_workers_ = 0;
  std::string done_;  // the last job's DONE document
};

}  // namespace pfi::fabric
