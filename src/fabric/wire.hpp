// The fabric wire format: length-prefixed frames over a stream socket.
//
// Every message is one frame:
//
//   uint32 length   (big endian; length = 1 + payload size)
//   uint8  type     (FrameType)
//   bytes  payload  (kv entries, see campaign/kv.hpp)
//
// The conversation (docs/FABRIC.md has the full state machine):
//
//   worker -> coordinator   HELLO {v, role=worker, name, token?, id?}
//                           `token` authenticates (shared secret, checked
//                           in constant time); `id` is the stable worker id
//                           a reconnecting worker presents to resume its
//                           leases
//   coordinator -> worker   HELLO {v, role=coordinator, id}  (or BYE on a
//                           version/auth mismatch — negotiation is "exact
//                           match or go away"; the BYE reason names the
//                           version the coordinator expected)
//   worker -> coordinator   LEASE {want=N}        pull-based work stealing:
//                           an idle worker asks; the coordinator parks the
//                           request until cells exist, so a fast worker
//                           drains the queue and a late joiner still gets
//                           the next requeued batch
//   coordinator -> worker   LEASE {job, n, slot+epoch+cell ...}  all cells
//                           of one grant belong to one job; every slot is
//                           stamped with a fresh lease epoch
//   worker -> coordinator   RESULT {job, slot, epoch, res}  one per cell,
//                           streamed as the executor completes them; after
//                           a reconnect the whole batch is re-sent and the
//                           coordinator dedupes by (job, slot, epoch)
//   worker -> coordinator   HEARTBEAT {}          liveness while computing
//   either direction        BYE {reason}          graceful close; from the
//                           coordinator it means "campaign finished" (or
//                           on a client/daemon socket, "job rejected")
//
// The daemon speaks the same framing with three more types on client
// connections: SUBMIT (a job: its name, a per-job worker quota and the
// cells the client planned), RESULT back to the client (one per finished
// cell, the worker's frame with the job's slot) and DONE (job status plus
// the fleet's metrics sections). The daemon plans nothing: it executes the
// cells it is sent, so a submitted run goes through the client's own
// planning, journaling and reporting code. Types 7 and 8 (v3's PROGRESS
// and ARTIFACT) are retired into the reserved window.
//
// v3 adds the fleet observability plane (docs/OBSERVABILITY.md):
//
//   worker -> coordinator   STATS {n, s...}  a cumulative obs::Registry
//                           snapshot of the worker process, shipped from
//                           the worker's main thread (never the
//                           pre-encoded heartbeat thread) so the
//                           coordinator can fold fleet-wide metrics
//   client -> daemon        STATUS {}        status request; the daemon
//                           replies with a STATUS frame carrying one JSON
//                           document (queue depth, jobs, per-worker state)
//
// A HELLO must carry exactly kProtocolVersion; anything else earns a BYE
// naming the expected version. A well-framed but unknown frame type in the
// reserved window is ignored with a counter bump instead of corrupting the
// stream.
//
// Cells and results travel as kv payloads; RunResult reuses the fork
// sandbox's exact serialisation (campaign/sandbox.hpp wire_encode), so a
// record that crossed the fabric is byte-identical to one computed
// in-process — the whole "merging distributed results is a dedupe and a
// sort" story rests on that. Every decoder reads numbers through the strict
// reads of campaign/kv.hpp into the field's own type: a token that is not
// a number, carries trailing bytes or does not fit the field rejects the
// whole frame.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "obs/metrics.hpp"

namespace pfi::fabric {

/// Bumped on any incompatible change to frames or payloads (v2 added auth
/// tokens, worker ids, lease epochs, job-scoped leases; v3 added
/// STATS/STATUS; v4 made SUBMIT carry cells and retired PROGRESS and
/// ARTIFACT). Both ends speak exactly this version.
constexpr std::uint32_t kProtocolVersion = 4;

/// Frames above this are garbage (or an attack), not campaigns.
constexpr std::uint32_t kMaxFramePayload = 64u << 20;

/// Until a connection completes HELLO, this is all a frame may claim: a
/// handshake is a few short kv entries, and an unauthenticated peer must
/// not be able to park a 64 MB buffer allocation per connection.
constexpr std::uint32_t kMaxHelloPayload = 4096;

enum class FrameType : std::uint8_t {
  kHello = 1,
  kLease = 2,
  kResult = 3,
  kHeartbeat = 4,
  kBye = 5,
  // Daemon (client connections) only; 7 and 8 are retired (reserved):
  kSubmit = 6,
  kDone = 9,
  // v3 observability plane:
  kStats = 10,   // worker -> coordinator: cumulative metrics snapshot
  kStatus = 11,  // client -> daemon: empty request; reply carries JSON
};

/// Frame types in (kStatus, kMaxReservedFrameType], and the retired 7 and
/// 8, parse as well-formed frames that the current code ignores (with a
/// FabricStats counter on worker links) — the forward-compatibility window
/// for future protocol versions. Types above it are garbage and mark the
/// stream corrupt, as an impossible length does.
constexpr std::uint8_t kMaxReservedFrameType = 31;

struct Frame {
  FrameType type = FrameType::kHeartbeat;
  std::string payload;
};

/// Serialise one frame (header + payload).
std::string encode_frame(FrameType type, std::string_view payload);

/// Incremental frame parser: feed() whatever recv() produced — any split,
/// down to one byte at a time — and pop complete frames with next().
class FrameReader {
 public:
  void feed(const char* data, std::size_t n) { buf_.append(data, n); }

  /// Extract the next complete frame. False = need more bytes (or the
  /// stream is corrupt; check corrupt()).
  bool next(Frame* out);

  /// An impossible length or unknown type was seen; the connection is
  /// unusable and should be closed.
  [[nodiscard]] bool corrupt() const { return corrupt_; }

  /// Tighten (or restore) the per-frame payload ceiling. The coordinator
  /// caps pre-handshake connections at kMaxHelloPayload and lifts the cap
  /// to kMaxFramePayload once HELLO succeeds; the check fires on the 4
  /// header bytes, before any payload accumulates.
  void set_max_payload(std::uint32_t n) { max_payload_ = n; }

 private:
  std::string buf_;
  std::size_t pos_ = 0;  // consumed prefix, compacted lazily
  std::uint32_t max_payload_ = kMaxFramePayload;
  bool corrupt_ = false;
};

// --- handshake -------------------------------------------------------------

struct Hello {
  std::uint32_t version = kProtocolVersion;
  std::string role;   // "worker" | "client" | "coordinator"
  std::string name;   // diagnostic label (worker pid, client id)
  std::string token;  // shared secret; compared in constant time
  std::string id;     // worker: stable id when reconnecting ("" = new);
                      // coordinator reply: the id the worker must keep
};

std::string encode_hello(const Hello& h);
bool decode_hello(std::string_view payload, Hello* out);

/// Constant-time token equality (length still leaks; contents do not).
bool tokens_equal(std::string_view a, std::string_view b);

// --- leases ----------------------------------------------------------------

/// Worker -> coordinator: "I can take up to `want` cells."
std::string encode_lease_request(int want);
bool decode_lease_request(std::string_view payload, int* want);

/// Coordinator -> worker: a batch of (slot, epoch, cell), all belonging to
/// one `job`. Slots are coordinator bookkeeping (position in the job's
/// dispatch queue); the epoch stamps this particular grant of the slot so
/// re-sent results after a reconnect dedupe exactly. Both are echoed back
/// in RESULT frames; cell.index keeps its campaign-plan meaning untouched.
std::string encode_lease_grant(int job, const std::vector<int>& slots,
                               const std::vector<std::int64_t>& epochs,
                               const std::vector<campaign::RunCell>& cells);
bool decode_lease_grant(std::string_view payload, int* job,
                        std::vector<int>* slots,
                        std::vector<std::int64_t>* epochs,
                        std::vector<campaign::RunCell>* cells);

// --- cells and results -----------------------------------------------------

/// Exact kv serialisation of a RunCell, schedule events included.
std::string encode_cell(const campaign::RunCell& cell);
bool decode_cell(std::string_view payload, campaign::RunCell* out);

/// RESULT payload: the job, dispatch slot and lease epoch the cell was
/// granted under, plus the sandbox wire bytes of the result.
std::string encode_result(int job, int slot, std::int64_t epoch,
                          const campaign::RunResult& r);
bool decode_result(std::string_view payload, int* job, int* slot,
                   std::int64_t* epoch, campaign::RunResult* out);

// --- stats (v3) ------------------------------------------------------------

/// A STATS payload refuses more samples than this: a metrics snapshot is a
/// few hundred entries, not a data channel. Decoders reject anything
/// larger; the sender never produces it (the registry is bounded by the
/// instruments the code declares).
constexpr std::size_t kMaxStatsSamples = 4096;

/// Worker -> coordinator: a *cumulative* obs::Registry snapshot of the
/// worker process. Cumulative so the frame is idempotent — the coordinator
/// replaces (never adds) the sender's previous snapshot, and a lost or
/// duplicated STATS costs freshness, not correctness. Encoded and sent from
/// the worker's main thread only; the heartbeat thread stays pre-encoded
/// and allocation-free.
std::string encode_stats(const std::vector<obs::MetricSample>& samples);
bool decode_stats(std::string_view payload,
                  std::vector<obs::MetricSample>* out);

// STATUS needs no codec of its own: the request is an empty-payload kStatus
// frame, and the reply is a kStatus frame carrying one JSON document via
// encode_json_line/decode_json_line below.

// --- bye -------------------------------------------------------------------

std::string encode_bye(std::string_view reason);
std::string decode_bye(std::string_view payload);  // reason ("" = graceful)

// --- daemon: submit / done ------------------------------------------------

/// A job submission: the cells to execute, exactly as the client planned
/// them (plan indices, budgets and schedules included).
struct Submit {
  std::string name;     // the job's label in STATUS and the daemon's log
  int max_workers = 0;  // > 0: cap on workers leasing this job at once
  std::vector<campaign::RunCell> cells;
};

std::string encode_submit(const Submit& s);
bool decode_submit(std::string_view payload, Submit* out);

/// STATUS replies and DONE carry one JSON document.
std::string encode_json_line(FrameType type, std::string_view json);
std::string decode_json_line(std::string_view payload);

}  // namespace pfi::fabric
