// The traced run: one campaign cell rebuilt from the public testbed API
// (experiments::GmpTestbed / TcpTestbed, mirroring campaign::run_cell's
// run_gmp / run_tcp), with a pass-through probe layer spliced at every
// layer boundary of every stack. Each probe records a span around the
// synchronous push/pop it forwards; the benchmark drives
// Scheduler::run_until itself and times the calls it makes into the
// stub, coverage, and conformance layers directly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "spans.hpp"

namespace perfbench {

/// What a span is charged to. kPfi is the PFI layer whose node carries the
/// cell's scripts; the other nodes' PFI layers pass messages through
/// unscripted and are kept apart as kPfiIdle.
enum class Layer : std::uint8_t {
  kGmp, kPfi, kPfiIdle, kNet, kTcp, kSpec, kProbe, kOther, kCount
};

struct Sink {
  std::string name;  // "gmd-2/pfi.push"
  Layer layer = Layer::kOther;
  bool frame = false;    // crossing the device boundary (ip <-> netdev)
  bool segment = false;  // crossing directly below a TCP layer
};

struct TracedCell {
  std::string error;  // cell shape the traced path does not mirror
  bool pass = false;
  std::string digest;  // coverage digest
  std::int64_t wall_ns = 0;
  std::int64_t sched_ns = 0;          // inside Scheduler::run_until
  std::int64_t sched_covered_ns = 0;  // ... of which under a root probe span
  std::uint64_t events = 0;
  std::uint64_t trace_records = 0;
  std::int64_t coverage_ns = 0;  // obs::compute_coverage
  std::int64_t compile_ns = 0;   // conformance::compile (conformance cells)
  std::int64_t evaluate_ns = 0;  // conformance::evaluate (conformance cells)
  std::int64_t stub_ns = 0;      // PacketStub::type_of over captured msgs
  std::uint64_t stub_calls = 0;
  std::vector<Sink> sinks;
  std::vector<Span> spans;
};

TracedCell run_traced(const pfi::campaign::RunCell& cell);

}  // namespace perfbench
