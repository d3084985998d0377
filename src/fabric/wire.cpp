#include "fabric/wire.hpp"

#include <cstring>

#include "campaign/kv.hpp"
#include "campaign/sandbox.hpp"

namespace pfi::fabric {

namespace kv = campaign::kv;

namespace {

bool known_type(std::uint8_t t) {
  // The whole reserved window frames cleanly; handlers ignore (and count)
  // types they do not implement, so a newer peer's frames degrade instead
  // of corrupting the stream. Above the window is garbage.
  return t >= static_cast<std::uint8_t>(FrameType::kHello) &&
         t <= kMaxReservedFrameType;
}

}  // namespace

std::string encode_frame(FrameType type, std::string_view payload) {
  std::string out;
  out.reserve(5 + payload.size());
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size()) + 1;
  out.push_back(static_cast<char>((len >> 24) & 0xFF));
  out.push_back(static_cast<char>((len >> 16) & 0xFF));
  out.push_back(static_cast<char>((len >> 8) & 0xFF));
  out.push_back(static_cast<char>(len & 0xFF));
  out.push_back(static_cast<char>(type));
  out.append(payload.data(), payload.size());
  return out;
}

bool FrameReader::next(Frame* out) {
  if (corrupt_) return false;
  // Compact once the consumed prefix dominates the buffer.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  if (buf_.size() - pos_ < 4) return false;
  const auto* b = reinterpret_cast<const unsigned char*>(buf_.data() + pos_);
  const std::uint32_t len = (static_cast<std::uint32_t>(b[0]) << 24) |
                            (static_cast<std::uint32_t>(b[1]) << 16) |
                            (static_cast<std::uint32_t>(b[2]) << 8) |
                            static_cast<std::uint32_t>(b[3]);
  if (len == 0 || len > max_payload_ + 1) {
    corrupt_ = true;
    return false;
  }
  if (buf_.size() - pos_ < 4 + len) return false;
  const std::uint8_t type = static_cast<std::uint8_t>(buf_[pos_ + 4]);
  if (!known_type(type)) {
    corrupt_ = true;
    return false;
  }
  out->type = static_cast<FrameType>(type);
  out->payload.assign(buf_, pos_ + 5, len - 1);
  pos_ += 4 + len;
  return true;
}

// --- handshake -------------------------------------------------------------

std::string encode_hello(const Hello& h) {
  std::string out;
  kv::put_u64(&out, "v", h.version);
  kv::put(&out, "role", h.role);
  kv::put(&out, "name", h.name);
  if (!h.token.empty()) kv::put(&out, "token", h.token);
  if (!h.id.empty()) kv::put(&out, "id", h.id);
  return out;
}

bool decode_hello(std::string_view payload, Hello* out) {
  kv::Scan scan{payload};
  std::string key, value;
  bool has_version = false;
  kv::Num num;
  Hello h;
  while (scan.next(&key, &value)) {
    if (key == "v") {
      num.read(value, &h.version);
      has_version = true;
    } else if (key == "role") {
      h.role = value;
    } else if (key == "name") {
      h.name = value;
    } else if (key == "token") {
      h.token = value;
    } else if (key == "id") {
      h.id = value;
    }
  }
  if (!num.ok || !has_version || h.role.empty()) return false;
  *out = h;
  return true;
}

bool tokens_equal(std::string_view a, std::string_view b) {
  // Accumulate every byte difference so the comparison touches all of both
  // strings regardless of where the first mismatch sits. Length differences
  // short-circuit — the secret's length is not treated as secret.
  if (a.size() != b.size()) return false;
  unsigned char diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff = static_cast<unsigned char>(
        diff | (static_cast<unsigned char>(a[i]) ^
                static_cast<unsigned char>(b[i])));
  }
  return diff == 0;
}

// --- leases ----------------------------------------------------------------

std::string encode_lease_request(int want) {
  std::string out;
  kv::put_i64(&out, "want", want);
  return out;
}

bool decode_lease_request(std::string_view payload, int* want) {
  kv::Scan scan{payload};
  std::string key, value;
  while (scan.next(&key, &value)) {
    if (key == "want") return kv::to_int(value, want) && *want > 0;
  }
  return false;
}

std::string encode_lease_grant(int job, const std::vector<int>& slots,
                               const std::vector<std::int64_t>& epochs,
                               const std::vector<campaign::RunCell>& cells) {
  std::string out;
  kv::put_i64(&out, "job", job);
  kv::put_u64(&out, "n", slots.size());
  for (std::size_t i = 0;
       i < slots.size() && i < epochs.size() && i < cells.size(); ++i) {
    kv::put_i64(&out, "slot", slots[i]);
    kv::put_i64(&out, "epoch", epochs[i]);
    kv::put(&out, "cell", encode_cell(cells[i]));
  }
  return out;
}

bool decode_lease_grant(std::string_view payload, int* job,
                        std::vector<int>* slots,
                        std::vector<std::int64_t>* epochs,
                        std::vector<campaign::RunCell>* cells) {
  slots->clear();
  epochs->clear();
  cells->clear();
  *job = 0;
  kv::Scan scan{payload};
  std::string key, value;
  std::uint64_t n = 0;
  int pending_slot = -1;
  std::int64_t pending_epoch = 0;
  bool have_slot = false, have_epoch = false;
  kv::Num num;
  while (scan.next(&key, &value)) {
    if (key == "job") {
      num.read(value, job);
    } else if (key == "n") {
      num.read(value, &n);
    } else if (key == "slot") {
      num.read(value, &pending_slot);
      have_slot = true;
    } else if (key == "epoch") {
      num.read(value, &pending_epoch);
      have_epoch = true;
    } else if (key == "cell") {
      campaign::RunCell cell;
      if (!have_slot || !have_epoch || !decode_cell(value, &cell)) {
        return false;
      }
      slots->push_back(pending_slot);
      epochs->push_back(pending_epoch);
      cells->push_back(std::move(cell));
      have_slot = have_epoch = false;
    }
  }
  return num.ok && slots->size() == n;
}

// --- cells -----------------------------------------------------------------

std::string encode_cell(const campaign::RunCell& cell) {
  std::string out;
  kv::put_i64(&out, "index", cell.index);
  kv::put(&out, "id", cell.id);
  kv::put(&out, "protocol", cell.protocol);
  kv::put(&out, "oracle", cell.oracle);
  kv::put(&out, "vendor", cell.vendor);
  kv::put(&out, "script_file", cell.script_file);
  // Optional axes only travel when set; decoders skip unknown keys.
  if (!cell.conform_file.empty()) kv::put(&out, "conform", cell.conform_file);
  if (!cell.scenario.empty()) kv::put(&out, "scenario", cell.scenario);
  kv::put_u64(&out, "seed", cell.seed);
  kv::put_i64(&out, "nodes", cell.nodes);
  kv::put_i64(&out, "target", cell.target_node);
  kv::put_i64(&out, "warmup", cell.warmup);
  kv::put_i64(&out, "duration", cell.duration);
  kv::put_i64(&out, "jitter", cell.jitter);
  kv::put(&out, "buggy", cell.buggy ? "1" : "0");
  kv::put_i64(&out, "timeout_ms", cell.timeout_ms);
  kv::put_u64(&out, "max_events", cell.max_sim_events);
  kv::put(&out, "timeline", cell.capture_timeline ? "1" : "0");
  kv::put_u64(&out, "nev", cell.schedule.events.size());
  for (const campaign::FaultEvent& e : cell.schedule.events) {
    std::string ev;
    kv::put(&ev, "type", e.type);
    kv::put(&ev, "kind", core::scriptgen::to_string(e.kind));
    kv::put_i64(&ev, "occ", e.occurrence);
    kv::put(&ev, "send", e.on_send ? "1" : "0");
    kv::put_i64(&ev, "delay", e.delay);
    kv::put_i64(&ev, "copies", e.copies);
    kv::put_u64(&ev, "corrupt_off", e.corrupt_offset);
    kv::put_i64(&ev, "batch", e.batch);
    kv::put(&out, "ev", ev);
  }
  return out;
}

namespace {

bool parse_kind(const std::string& s, core::scriptgen::FaultKind* out) {
  using core::scriptgen::FaultKind;
  for (FaultKind k : {FaultKind::kDrop, FaultKind::kDelay,
                      FaultKind::kDuplicate, FaultKind::kCorrupt,
                      FaultKind::kReorder}) {
    if (core::scriptgen::to_string(k) == s) {
      *out = k;
      return true;
    }
  }
  return false;
}

bool decode_event(std::string_view payload, campaign::FaultEvent* out) {
  kv::Scan scan{payload};
  std::string key, value;
  campaign::FaultEvent e;
  kv::Num num;
  while (scan.next(&key, &value)) {
    if (key == "type") {
      e.type = value;
    } else if (key == "kind") {
      if (!parse_kind(value, &e.kind)) return false;
    } else if (key == "occ") {
      num.read(value, &e.occurrence);
    } else if (key == "send") {
      e.on_send = value == "1";
    } else if (key == "delay") {
      num.read(value, &e.delay);
    } else if (key == "copies") {
      num.read(value, &e.copies);
    } else if (key == "corrupt_off") {
      num.read(value, &e.corrupt_offset);
    } else if (key == "batch") {
      num.read(value, &e.batch);
    }
  }
  if (!num.ok) return false;
  *out = std::move(e);
  return true;
}

}  // namespace

bool decode_cell(std::string_view payload, campaign::RunCell* out) {
  kv::Scan scan{payload};
  std::string key, value;
  campaign::RunCell cell;
  std::uint64_t nev = 0;
  kv::Num num;
  while (scan.next(&key, &value)) {
    if (key == "index") {
      num.read(value, &cell.index);
    } else if (key == "id") {
      cell.id = value;
    } else if (key == "protocol") {
      cell.protocol = value;
    } else if (key == "oracle") {
      cell.oracle = value;
    } else if (key == "vendor") {
      cell.vendor = value;
    } else if (key == "script_file") {
      cell.script_file = value;
    } else if (key == "conform") {
      cell.conform_file = value;
    } else if (key == "scenario") {
      cell.scenario = value;
    } else if (key == "seed") {
      num.read(value, &cell.seed);
    } else if (key == "nodes") {
      num.read(value, &cell.nodes);
    } else if (key == "target") {
      num.read(value, &cell.target_node);
    } else if (key == "warmup") {
      num.read(value, &cell.warmup);
    } else if (key == "duration") {
      num.read(value, &cell.duration);
    } else if (key == "jitter") {
      num.read(value, &cell.jitter);
    } else if (key == "buggy") {
      cell.buggy = value == "1";
    } else if (key == "timeout_ms") {
      num.read(value, &cell.timeout_ms);
    } else if (key == "max_events") {
      num.read(value, &cell.max_sim_events);
    } else if (key == "timeline") {
      cell.capture_timeline = value == "1";
    } else if (key == "nev") {
      num.read(value, &nev);
    } else if (key == "ev") {
      campaign::FaultEvent e;
      if (!decode_event(value, &e)) return false;
      cell.schedule.events.push_back(std::move(e));
    }
  }
  if (!num.ok || cell.schedule.events.size() != nev) return false;
  if (cell.id.empty() || cell.protocol.empty()) return false;
  *out = std::move(cell);
  return true;
}

// --- results ---------------------------------------------------------------

std::string encode_result(int job, int slot, std::int64_t epoch,
                          const campaign::RunResult& r) {
  std::string out;
  kv::put_i64(&out, "job", job);
  kv::put_i64(&out, "slot", slot);
  kv::put_i64(&out, "epoch", epoch);
  kv::put(&out, "res", campaign::wire_encode(r));
  return out;
}

bool decode_result(std::string_view payload, int* job, int* slot,
                   std::int64_t* epoch, campaign::RunResult* out) {
  kv::Scan scan{payload};
  std::string key, value;
  bool have_slot = false, have_res = false;
  *job = 0;
  *epoch = 0;
  kv::Num num;
  while (scan.next(&key, &value)) {
    if (key == "job") {
      num.read(value, job);
    } else if (key == "slot") {
      num.read(value, slot);
      have_slot = true;
    } else if (key == "epoch") {
      num.read(value, epoch);
    } else if (key == "res") {
      if (!campaign::wire_decode(value, out)) return false;
      have_res = true;
    }
  }
  return num.ok && have_slot && have_res;
}

// --- stats (v3) ------------------------------------------------------------

std::string encode_stats(const std::vector<obs::MetricSample>& samples) {
  std::string out;
  kv::put_u64(&out, "n", samples.size());
  for (const obs::MetricSample& m : samples) {
    std::string entry;
    kv::put(&entry, "name", m.name);
    kv::put(&entry, "k", std::string_view(&m.kind, 1));
    kv::put_u64(&entry, "v", m.value);
    kv::put(&out, "s", entry);
  }
  return out;
}

bool decode_stats(std::string_view payload,
                  std::vector<obs::MetricSample>* out) {
  out->clear();
  kv::Scan scan{payload};
  std::string key, value;
  std::uint64_t n = 0;
  bool have_n = false;
  kv::Num num;
  while (scan.next(&key, &value)) {
    if (key == "n") {
      num.read(value, &n);
      have_n = true;
      if (n > kMaxStatsSamples) return false;
    } else if (key == "s") {
      if (out->size() >= kMaxStatsSamples) return false;
      kv::Scan inner{value};
      std::string ik, iv;
      obs::MetricSample m;
      bool have_name = false, have_kind = false, have_value = false;
      while (inner.next(&ik, &iv)) {
        if (ik == "name") {
          m.name = iv;
          have_name = true;
        } else if (ik == "k") {
          if (iv.size() != 1) return false;
          m.kind = iv[0];
          have_kind = true;
        } else if (ik == "v") {
          num.read(iv, &m.value);
          have_value = true;
        }
      }
      if (!have_name || !have_kind || !have_value || m.name.empty()) {
        return false;
      }
      out->push_back(std::move(m));
    }
  }
  // have_n distinguishes a genuinely empty snapshot from a payload the
  // scanner silently produced nothing for (garbage bytes).
  return num.ok && have_n && out->size() == n;
}

// --- bye -------------------------------------------------------------------

std::string encode_bye(std::string_view reason) {
  std::string out;
  kv::put(&out, "reason", reason);
  return out;
}

std::string decode_bye(std::string_view payload) {
  kv::Scan scan{payload};
  std::string key, value;
  while (scan.next(&key, &value)) {
    if (key == "reason") return value;
  }
  return "";
}

// --- daemon ----------------------------------------------------------------

std::string encode_submit(const Submit& s) {
  std::string out;
  kv::put(&out, "name", s.name);
  kv::put_i64(&out, "max_workers", s.max_workers);
  kv::put_u64(&out, "n", s.cells.size());
  for (const campaign::RunCell& c : s.cells) {
    kv::put(&out, "cell", encode_cell(c));
  }
  return out;
}

bool decode_submit(std::string_view payload, Submit* out) {
  kv::Scan scan{payload};
  std::string key, value;
  Submit s;
  std::uint64_t n = 0;
  kv::Num num;
  while (scan.next(&key, &value)) {
    if (key == "name") {
      s.name = value;
    } else if (key == "max_workers") {
      num.read(value, &s.max_workers);
    } else if (key == "n") {
      num.read(value, &n);
    } else if (key == "cell") {
      campaign::RunCell cell;
      if (!decode_cell(value, &cell)) return false;
      s.cells.push_back(std::move(cell));
    }
  }
  if (!num.ok || s.cells.size() != n) return false;
  *out = std::move(s);
  return true;
}

std::string encode_json_line(FrameType type, std::string_view json) {
  std::string out;
  kv::put(&out, "json", json);
  return encode_frame(type, out);
}

std::string decode_json_line(std::string_view payload) {
  kv::Scan scan{payload};
  std::string key, value;
  while (scan.next(&key, &value)) {
    if (key == "json") return value;
  }
  return "";
}

}  // namespace pfi::fabric
