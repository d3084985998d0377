#include "fabric/flight.hpp"

#include <algorithm>
#include <cstring>
#include <map>

#include "campaign/json.hpp"

namespace pfi::fabric {

const char* flight_event_name(FlightEvent e) {
  switch (e) {
    case FlightEvent::kConnect: return "connect";
    case FlightEvent::kAddrReject: return "addr-reject";
    case FlightEvent::kVersionReject: return "version-reject";
    case FlightEvent::kAuthReject: return "auth-reject";
    case FlightEvent::kHandshakeTimeout: return "handshake-timeout";
    case FlightEvent::kJoin: return "join";
    case FlightEvent::kLeaseRequest: return "lease-request";
    case FlightEvent::kLeaseGrant: return "lease-grant";
    case FlightEvent::kResult: return "result";
    case FlightEvent::kStats: return "stats";
    case FlightEvent::kDetach: return "detach";
    case FlightEvent::kReattach: return "reattach";
    case FlightEvent::kRequeue: return "requeue";
    case FlightEvent::kHeartbeatMiss: return "heartbeat-miss";
    case FlightEvent::kIdleTimeout: return "idle-timeout";
    case FlightEvent::kBye: return "bye";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      t0_(std::chrono::steady_clock::now()) {
  ring_.resize(capacity_);
}

void FlightRecorder::set_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity == 0) capacity = 1;
  // Re-linearise (oldest first) into a fresh ring; anything that does not
  // fit is the oldest tail and counts as dropped, exactly as TraceLog's
  // shrink path counts its front eviction.
  std::vector<FlightRecord> ordered = snapshot_locked();
  if (ordered.size() > capacity) {
    const std::size_t evict = ordered.size() - capacity;
    ordered.erase(ordered.begin(),
                  ordered.begin() + static_cast<std::ptrdiff_t>(evict));
    dropped_ += evict;
  }
  capacity_ = capacity;
  ring_.assign(capacity_, FlightRecord{});
  std::copy(ordered.begin(), ordered.end(), ring_.begin());
  size_ = ordered.size();
  head_ = size_ % capacity_;
}

std::size_t FlightRecorder::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

std::size_t FlightRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return size_;
}

std::uint64_t FlightRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::uint64_t FlightRecorder::total_added() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_ + size_;
}

void FlightRecorder::record(FlightEvent event, std::string_view worker,
                            int job, int slot, std::int64_t epoch) {
  const auto t_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0_)
          .count());
  std::lock_guard<std::mutex> lock(mu_);
  FlightRecord& r = ring_[head_];
  r.t_us = t_us;
  r.event = event;
  const std::size_t n = std::min(worker.size(), sizeof r.worker - 1);
  // A defaulted string_view has a null data(); memcpy must not see it.
  if (n > 0) std::memcpy(r.worker, worker.data(), n);
  r.worker[n] = '\0';
  r.job = job;
  r.slot = slot;
  r.epoch = epoch;
  head_ = (head_ + 1) % capacity_;
  if (size_ < capacity_) {
    ++size_;
  } else {
    ++dropped_;  // overwrote the oldest record
  }
}

std::vector<FlightRecord> FlightRecorder::snapshot_locked() const {
  std::vector<FlightRecord> out;
  out.reserve(size_);
  const std::size_t start = (head_ + capacity_ - size_) % capacity_;
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(start + i) % capacity_]);
  }
  return out;
}

std::vector<FlightRecord> FlightRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_locked();
}

std::string FlightRecorder::to_jsonl() const {
  std::vector<FlightRecord> records;
  std::uint64_t dropped = 0;
  std::uint64_t total = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    records = snapshot_locked();
    dropped = dropped_;
    total = dropped_ + size_;
  }
  std::string out;
  for (const FlightRecord& r : records) {
    campaign::json::Writer w;
    w.begin_object();
    w.kv("t_us", r.t_us);
    w.kv("event", flight_event_name(r.event));
    w.kv("worker", std::string_view(r.worker));
    w.kv("job", r.job);
    w.kv("slot", r.slot);
    w.kv("epoch", r.epoch);
    w.end_object();
    out += w.str();
    out += '\n';
  }
  campaign::json::Writer w;
  w.begin_object();
  w.kv("event", "flight-meta");
  w.kv("recorded", total);
  w.kv("dropped", dropped);
  w.end_object();
  out += w.str();
  out += '\n';
  return out;
}

std::string FlightRecorder::to_trace_events(std::string_view process_label,
                                            int pid) const {
  const std::vector<FlightRecord> records = snapshot();
  using campaign::json::Writer;
  // Thread lanes: tid 0 for untagged events, workers get 1..N in id order
  // so the lane layout is stable whatever order workers first appeared in.
  std::map<std::string, int> tid_of;
  for (const FlightRecord& r : records) {
    if (r.worker[0] != '\0') tid_of.emplace(r.worker, 0);
  }
  int next_tid = 1;
  for (auto& [id, tid] : tid_of) tid = next_tid++;

  Writer w;
  bool first = true;
  auto sep = [&] {
    if (!first) w.value_raw(",");
    first = false;
  };
  auto meta = [&](const char* what, int tid, std::string_view name) {
    sep();
    w.begin_object();
    w.kv("name", what);
    w.kv("ph", "M");
    w.kv("pid", pid);
    w.kv("tid", tid);
    w.key("args").begin_object().kv("name", name).end_object();
    w.end_object();
  };
  meta("process_name", 0, process_label);
  meta("thread_name", 0, "fabric");
  for (const auto& [id, tid] : tid_of) meta("thread_name", tid, id);

  for (const FlightRecord& r : records) {
    sep();
    w.begin_object();
    w.kv("name", flight_event_name(r.event));
    w.kv("cat", "fabric");
    w.kv("ph", "i");
    w.kv("ts", r.t_us);
    w.kv("pid", pid);
    w.kv("tid", r.worker[0] != '\0' ? tid_of.at(r.worker) : 0);
    w.kv("s", "t");
    w.key("args").begin_object();
    w.kv("job", r.job);
    w.kv("slot", r.slot);
    w.kv("epoch", r.epoch);
    w.end_object();
    w.end_object();
  }
  return records.empty() ? std::string() : w.str();
}

}  // namespace pfi::fabric
