// Socket coordinator: leases cells to worker processes, splices results.
//
// The Engine is the single-threaded event core shared by the one-shot
// coordinator (`pfi_campaign --workers N`) and the campaign-as-a-service
// daemon (service.hpp). It owns the listening socket and every connection,
// speaks the worker side of the wire protocol (wire.hpp), and dispatches
// any number of concurrent *batches* (jobs) over one worker pool:
//
//   * pull-based work stealing — an idle worker sends LEASE {want}; the
//     request parks until cells exist, so fast workers drain the queue and
//     a late joiner is handed the next available (or requeued) cells.
//   * fair multi-job scheduling — each grant serves exactly one job,
//     chosen round-robin across jobs with queued cells, subject to the
//     job's max_workers quota (distinct workers holding its leases).
//   * authentication — when a token is configured, a HELLO whose token
//     fails the constant-time compare gets a BYE and no state of any
//     kind; TCP listeners can additionally allowlist peer addresses.
//   * reconnect-and-resume — a worker presents a stable id on HELLO;
//     losing the link *detaches* it (leases stay put, the worker keeps
//     computing) and a reconnect within reconnect_grace_ms reattaches it,
//     finished results re-sent by the worker deduped by (job, slot,
//     epoch). Only grace expiry requeues, and only that counts as a lost
//     worker.
//   * results are deduped by slot — if a "dead" worker's results race its
//     replacement's, the first to arrive wins; since records are pure
//     functions of the cell, both copies are byte-identical anyway.
//
// Determinism: the coordinator never reorders anything that reaches a
// report. Results land in their dispatch slot; run_fabric() returns the
// same slot-ordered vector run_cells() would have, so everything
// downstream (records, journal, metrics, summary) is byte-identical to a
// single-process run at any worker count — link flaps included
// (test-asserted).
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "fabric/flight.hpp"
#include "fabric/socket.hpp"
#include "fabric/wire.hpp"
#include "obs/metrics.hpp"

namespace pfi::fabric {

struct FabricStats {
  int workers_joined = 0;      // completed HELLO handshakes (fresh ids only)
  int workers_lost = 0;        // reconnect grace expired; leases requeued
  int links_dropped = 0;       // connections lost (worker may reattach)
  int workers_reattached = 0;  // reconnects resumed by stable worker id
  int leases_granted = 0;
  int cells_requeued = 0;      // slots re-queued from lost workers
  int duplicate_results = 0;   // raced/re-sent results dropped by dedupe
  int stale_results = 0;       // accepted results from a superseded epoch
  int version_rejected = 0;    // HELLOs refused by version negotiation
  int auth_rejected = 0;       // HELLOs refused by token mismatch
  int addr_rejected = 0;       // TCP peers refused by the allowlist
  int handshake_timeouts = 0;  // pre-HELLO connections dropped as stalled
  int unknown_frames = 0;      // well-framed types we ignored (v2/v4 peers)

  /// One flat JSON object, keys sorted by name — the form `--metrics-out`
  /// and the daemon's metrics artifact embed under "fabric".
  [[nodiscard]] std::string to_json() const;
};

/// A point-in-time view of one worker's durable state, for STATUS replies
/// and the fleet progress line. Wall-clock field (`last_seen_ms`) included:
/// this is side-channel output by construction.
struct WorkerSnapshot {
  std::string id;
  std::string name;
  bool connected = false;  // live link right now (vs detached-in-grace)
  int outstanding = 0;     // leased cells without a result yet
  int leases = 0;          // grants ever sent to this id
  int reattaches = 0;      // reconnects resumed under this id
  long long last_seen_ms = 0;  // ms since last byte (or since detach)
};

class Engine {
 public:
  struct Options {
    /// Max cells per LEASE grant (a worker's `want` caps it further).
    int lease_batch = 8;
    /// A worker silent this long is dead; the link drops and the grace
    /// clock starts. Workers heartbeat every ~500 ms even while computing.
    int dead_after_ms = 5000;
    /// How long a detached worker (link lost) may stay away before its
    /// leases requeue and its id is forgotten. -1 = use dead_after_ms.
    int reconnect_grace_ms = -1;
    /// Coordinator -> worker liveness beats. A parked worker otherwise
    /// reads nothing and cannot tell "no work yet" from a silently dead
    /// link; regular beats let its idle detector fire in seconds instead
    /// of TCP's many-minute retransmission timeout. 0 = off.
    int heartbeat_ms = 500;
    /// A connection that has not completed HELLO within this window of
    /// being accepted is dropped, so unauthenticated peers cannot park
    /// fds (or trickle bytes) indefinitely. <= 0 = never.
    int handshake_timeout_ms = 2000;
    /// Shared secret; "" = no authentication. A HELLO that fails the
    /// constant-time compare is BYEd before any state exists.
    std::string token;
    /// Peer addresses (dotted quads) allowed to connect over TCP; empty =
    /// all. AF_UNIX peers ("unix") always pass — filesystem permissions
    /// gate those.
    std::vector<std::string> allow;
    /// Accept HELLO {role=client} connections (the daemon). When false,
    /// clients are turned away with BYE.
    bool accept_clients = false;
    std::function<void(const std::string&)> on_log;
    /// Daemon hooks: a decoded frame from a handshaken client / a client
    /// connection that went away.
    std::function<void(int fd, const Frame&)> on_client_frame;
    std::function<void(int fd)> on_client_closed;
    /// Observability plane (both optional, both side-channel only):
    /// control-plane events land in `flight`, stage timings (per-slot
    /// queue wait) in `obs`. Neither influences dispatch or results.
    FlightRecorder* flight = nullptr;
    obs::Registry* obs = nullptr;
    /// Fires per accepted result with the worker that computed it — the
    /// fleet progress line's per-worker throughput feed.
    std::function<void(const std::string& worker_id)> on_worker_result;
  };

  Engine(Listener* listener, Options opts);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Dispatch `cells` as a new job (kept alive by the caller until the
  /// batch finishes). on_cell fires once per slot as results arrive
  /// (arrival order); on_done fires from within step() once every slot has
  /// a result. max_workers > 0 caps how many distinct workers may hold
  /// this job's leases at once. Returns the job id carried by its leases.
  int add_batch(const std::vector<campaign::RunCell>* cells,
                std::function<void(int slot, campaign::RunResult)> on_cell,
                std::function<void()> on_done, int max_workers = 0);

  /// Single-batch compatibility shim over add_batch().
  void set_batch(const std::vector<campaign::RunCell>* cells,
                 std::function<void(int slot, campaign::RunResult)> on_cell,
                 std::function<void()> on_done) {
    add_batch(cells, std::move(on_cell), std::move(on_done));
  }

  [[nodiscard]] bool batch_active() const { return !batches_.empty(); }
  [[nodiscard]] int active_batches() const {
    return static_cast<int>(batches_.size());
  }

  /// Drop every still-queued (never leased, not requeue-pending) slot of
  /// `job`: the slots are marked filled with no on_cell call, so the job
  /// completes with those results absent (index == -1 downstream). Cells
  /// a worker is already computing are left to finish.
  void cancel_queued(int job);

  /// One event-loop iteration: poll (≤ timeout_ms), accept, read frames,
  /// detect dead workers, grant parked leases, fire completion.
  void step(int timeout_ms);

  /// BYE every connection and close it. Idempotent.
  void shutdown(const std::string& reason);

  [[nodiscard]] int worker_count() const;

  /// Chaos hook: close the link of one connected worker that holds leased
  /// cells, without telling it (simulates a network partition — the worker
  /// must notice, back off, and reconnect). Only a lease holder is cut, so
  /// the batch cannot finish until that worker reattaches or its grace
  /// expires. Returns true if a link was severed.
  bool sever_worker_link();

  /// Send raw frame bytes to a client connection (daemon replies). False
  /// if the fd is gone or the write failed (the conn is then dropped).
  bool send_to_client(int fd, const std::string& frame_bytes);

  /// Every worker id the engine currently remembers (connected or within
  /// its reconnect grace), sorted by id — STATUS replies iterate this.
  [[nodiscard]] std::vector<WorkerSnapshot> worker_snapshots() const;

  /// Latest STATS snapshot per worker id. Snapshots are cumulative, so
  /// each entry *replaces* its predecessor; a worker that never shipped
  /// one (v2 peer, or died early) is simply absent.
  [[nodiscard]] const std::map<std::string, std::vector<obs::MetricSample>>&
  worker_stats() const {
    return worker_stats_;
  }

  /// Valid STATS frames accepted, ever. run_fabric's end-of-run drain
  /// steps until this stops advancing (the fleet's last snapshots landed).
  [[nodiscard]] std::uint64_t stats_frames() const { return stats_frames_; }

  /// Fleet-wide merge: every worker's latest STATS folded together with
  /// the coordinator's own registry (when Options.obs is set) via
  /// merge_samples, sorted by name.
  [[nodiscard]] std::vector<obs::MetricSample> fleet_samples() const;

  FabricStats stats;

 private:
  struct Conn {
    int fd = -1;
    FrameReader reader;
    enum class Role { kUnknown, kWorker, kClient } role = Role::kUnknown;
    std::string name;
    std::string worker_id;         // key into workers_ once handshaken
    std::uint32_t version = kProtocolVersion;  // negotiated on HELLO
    int pending_want = 0;          // parked LEASE request
    std::chrono::steady_clock::time_point last_seen;
    /// Accept time: the handshake deadline anchors here, so a pre-auth
    /// peer trickling bytes cannot keep resetting its clock.
    std::chrono::steady_clock::time_point accepted_at;
  };

  /// A job's dispatch state. `cells` stays owned by the caller.
  struct Batch {
    const std::vector<campaign::RunCell>* cells = nullptr;
    std::deque<int> queue;         // slots awaiting lease
    std::vector<char> filled;
    std::vector<std::int64_t> epoch;  // latest grant epoch per slot
    /// When each slot last entered the queue — feeds the
    /// fabric.coord.queue_wait_us histogram at grant time. Side channel:
    /// never read for dispatch decisions.
    std::vector<std::chrono::steady_clock::time_point> enqueued_at;
    std::size_t remaining = 0;
    int max_workers = 0;           // 0 = no quota
    std::function<void(int, campaign::RunResult)> on_cell;
    std::function<void()> on_done;
  };

  /// A worker's durable identity: survives link loss until the reconnect
  /// grace expires. fd == -1 means detached (no live connection).
  struct WorkerState {
    std::string name;
    int fd = -1;
    /// (job, slot) -> epoch of the grant this worker holds.
    std::map<std::pair<int, int>, std::int64_t> outstanding;
    std::chrono::steady_clock::time_point detached_at;
    int leases = 0;      // grants ever sent to this id
    int reattaches = 0;  // reconnects resumed under this id
  };

  [[nodiscard]] std::size_t find_conn(int fd) const;
  void accept_pending();
  void service_conn(int fd);       // read + dispatch; drops dead conns
  bool handle_frame(std::size_t i, const Frame& f);
  bool handle_hello(std::size_t i, const Hello& h);
  void drop_conn(std::size_t i, bool requeue);
  void forget_worker(const std::string& id);  // grace expired: requeue
  void grant_leases();
  void reap_dead();
  void beat_workers();
  [[nodiscard]] int pick_job_for(const std::string& worker_id);
  [[nodiscard]] int lease_holders(int job) const;

  Listener* listener_;
  Options opts_;
  std::vector<Conn> conns_;

  std::map<int, Batch> batches_;             // job id -> dispatch state
  std::map<std::string, WorkerState> workers_;
  /// worker id -> latest cumulative STATS snapshot (v3 workers only).
  std::map<std::string, std::vector<obs::MetricSample>> worker_stats_;
  std::uint64_t stats_frames_ = 0;
  std::vector<int> rr_jobs_;                 // round-robin ring of job ids
  std::size_t rr_pos_ = 0;
  int job_seq_ = 0;
  int worker_seq_ = 0;
  std::int64_t epoch_seq_ = 0;
  std::string beat_frame_;  // pre-encoded coordinator -> worker heartbeat
  std::chrono::steady_clock::time_point last_beat_;
};

/// One-shot coordinator options (`pfi_campaign --workers N`).
struct FabricOptions {
  int lease_batch = 8;
  int dead_after_ms = 5000;
  /// Detached-worker grace before requeue; -1 = dead_after_ms.
  int reconnect_grace_ms = -1;
  /// Coordinator -> worker liveness beat interval (0 = off).
  int heartbeat_ms = 500;
  /// Shared secret workers must present ("" = no auth).
  std::string token;
  /// Abort (returning the partial result vector) when no worker has been
  /// connected for this long while work remains. 0 = wait forever.
  int no_worker_timeout_ms = 0;
  /// Chaos: sever one lease-holding worker's link after every N accepted
  /// results (0 = never). Proves reconnect-and-resume keeps reports
  /// byte-identical.
  int flap_every = 0;
  /// Completion-order stream, same contract as ExecutorOptions::on_result.
  std::function<void(const campaign::RunResult&)> on_result;
  /// Slot-order stream, same contract as ExecutorOptions::on_result_ordered.
  std::function<void(const campaign::RunResult&)> on_result_ordered;
  std::function<bool()> should_stop;
  std::function<void(const std::string&)> on_log;
  /// Observability plane (all optional, all side-channel): control-plane
  /// events, coordinator stage timings, per-worker STATS snapshots after
  /// the run, and a per-result worker-id feed for the fleet progress line.
  FlightRecorder* flight = nullptr;
  obs::Registry* obs = nullptr;
  std::map<std::string, std::vector<obs::MetricSample>>* worker_stats_out =
      nullptr;
  std::function<void(const std::string& worker_id)> on_result_worker;
};

/// Run `cells` over whatever workers connect to `listener` until every cell
/// has a result (or should_stop / the no-worker timeout fires). Returns the
/// slot-ordered result vector — byte-for-byte what run_cells() returns for
/// the same cells; unfinished slots keep index == -1.
std::vector<campaign::RunResult> run_fabric(Listener* listener,
                                            const std::vector<campaign::RunCell>& cells,
                                            const FabricOptions& opts,
                                            FabricStats* stats = nullptr);

}  // namespace pfi::fabric
