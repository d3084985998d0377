// Campaign-as-a-service daemon (`pfi_fabricd`): a remote run_cells.
//
// One long-lived Engine accepts *both* kinds of connection on one socket:
// workers (HELLO role=worker) join the lease pool exactly as they would for
// a one-shot coordinator, and clients (HELLO role=client) SUBMIT jobs. A
// job is a list of cells the client planned; the daemon plans, filters,
// lints, journals and reports nothing, so a submitted run goes through the
// same client-side code as a local one (`pfi_campaign --submit`). Up to
// max_active jobs run **concurrently** over the shared worker pool — each
// job's cells are a separate Engine batch, leases are granted round-robin
// across jobs, and a job's `max_workers` quota caps how many distinct
// workers serve it at once. Further submissions queue FIFO behind the
// active set.
//
// Each finished cell goes back to its client as one RESULT frame (the
// worker's frame, slot = the cell's position in the SUBMIT), so the
// execution path — and therefore every record — is byte-identical to
// `pfi_campaign --workers N`, which is byte-identical to `--jobs 1`. When
// every cell has a result the client gets one DONE frame: the job id, its
// status and the fleet's "fabric"/"fleet" metrics sections. A client that
// disconnects mid-job has its still-queued cells cancelled (cells a worker
// already holds finish unseen), and its queued never-started jobs are
// dropped. On shutdown every connection gets a BYE; a client whose job had
// not finished reports its unfinished cells as never run.
//
// Any client may also send an empty STATUS frame at any time and gets back
// one STATUS frame carrying a deterministic-schema JSON document: daemon
// counters, every active/queued job with its progress tallies, every known
// worker's lease/reattach/last-seen state, the FabricStats counters, and
// the fleet-merged metrics. `pfi_campaign --status ADDR` is the CLI for
// it; docs/FABRIC.md "Fleet observability" pins the schema.
#pragma once

#include <functional>

#include "fabric/coordinator.hpp"
#include "fabric/socket.hpp"

namespace pfi::fabric {

struct ServiceStats {
  int jobs_accepted = 0;
  int jobs_completed = 0;
  int jobs_rejected = 0;   // SUBMITs that failed to decode
  int peak_active = 0;     // most jobs ever running concurrently
  FabricStats fabric;      // copied from the engine at shutdown
};

struct ServiceOptions {
  /// The daemon's Engine: lease sizing, liveness, auth, logging and the
  /// observability plane (`flight`/`obs` also feed STATUS and every DONE's
  /// fleet sections). The client hooks (`accept_clients`,
  /// `on_client_frame`, `on_client_closed`) are the service's own.
  Engine::Options engine;
  /// Jobs running concurrently over the shared pool; more queue FIFO.
  int max_active = 4;
  /// Sampled every loop iteration; true BYEs every connection.
  std::function<bool()> should_stop;
};

/// Run the daemon event loop until should_stop. Returns 0 on a clean
/// shutdown. The listener stays owned by the caller.
int run_service(Listener* listener, const ServiceOptions& opts,
                ServiceStats* stats = nullptr);

}  // namespace pfi::fabric
