#include "fabric/client.hpp"

#include <cstdint>

#include <unistd.h>

#include "fabric/socket.hpp"

namespace pfi::fabric {

Client::~Client() { hang_up(); }

void Client::hang_up() {
  if (fd_ >= 0) close(fd_);
  fd_ = -1;
}

bool Client::send(const std::string& frame_bytes) {
  return send_all(fd_, frame_bytes.data(), frame_bytes.size());
}

bool Client::connect(const std::string& address, const std::string& token,
                     const std::string& name, std::string* err) {
  fd_ = dial(address, err);
  if (fd_ < 0) return false;
  Hello hello;
  hello.role = "client";
  hello.name = name;
  hello.token = token;
  Frame f;
  if (!send(encode_frame(FrameType::kHello, encode_hello(hello))) ||
      !read_frame(fd_, &reader_, &f)) {
    *err = "daemon handshake failed";
    return false;
  }
  if (f.type == FrameType::kBye) {
    *err = "daemon refused: " + decode_bye(f.payload);
    return false;
  }
  return true;
}

bool Client::status(std::string* json, std::string* err) {
  if (!send(encode_frame(FrameType::kStatus, ""))) {
    *err = "status request failed";
    return false;
  }
  Frame f;
  while (read_frame(fd_, &reader_, &f)) {
    if (f.type == FrameType::kStatus) {
      *json = decode_json_line(f.payload);
      return true;
    }
    if (f.type == FrameType::kBye) break;
  }
  *err = "no STATUS reply (daemon too old?)";
  return false;
}

void Client::set_job(const std::string& name, int max_workers) {
  job_name_ = name;
  max_workers_ = max_workers;
}

std::vector<campaign::RunResult> Client::run_cells(
    const std::vector<campaign::RunCell>& cells,
    const campaign::ExecutorOptions& opts, std::string* err) {
  std::vector<campaign::RunResult> results(cells.size());
  const auto stopped = [&] { return opts.should_stop && opts.should_stop(); };
  if (fd_ < 0) {
    *err = "not connected to a daemon";
    return results;
  }
  if (stopped()) return results;
  Submit s;
  s.name = job_name_;
  s.max_workers = max_workers_;
  s.cells = cells;
  if (!send(encode_frame(FrameType::kSubmit, encode_submit(s)))) {
    *err = "submit failed";
    hang_up();
    return results;
  }
  Frame f;
  for (;;) {
    ReadFail why = ReadFail::kNone;
    if (!read_frame(fd_, &reader_, &f, 250, nullptr, &why)) {
      if (why == ReadFail::kIdle && !stopped()) continue;
      if (why != ReadFail::kIdle) {
        *err = "daemon closed the connection before DONE";
      }
      hang_up();  // on should_stop: the daemon cancels what is queued
      return results;
    }
    if (f.type == FrameType::kResult) {
      int job = 0, slot = -1;
      std::int64_t epoch = 0;
      campaign::RunResult r;
      if (!decode_result(f.payload, &job, &slot, &epoch, &r) || slot < 0 ||
          static_cast<std::size_t>(slot) >= results.size()) {
        *err = "malformed RESULT from the daemon";
        hang_up();
        return results;
      }
      const auto at = static_cast<std::size_t>(slot);
      results[at] = std::move(r);
      if (opts.on_result) opts.on_result(results[at]);
      if (stopped()) {
        hang_up();
        return results;
      }
    } else if (f.type == FrameType::kDone) {
      done_ = decode_json_line(f.payload);
      const auto doc = campaign::json::parse(done_);
      const std::string status = doc ? doc->str_or("status", "") : "";
      if (status != "ok") {
        *err = doc ? doc->str_or("error", "job " + status) : "malformed DONE";
        hang_up();
      }
      return results;
    } else if (f.type == FrameType::kBye) {
      const std::string reason = decode_bye(f.payload);
      *err = "daemon closed the connection before DONE" +
             (reason.empty() ? "" : ": " + reason);
      hang_up();
      return results;
    }
  }
}

void Client::fleet_sections(campaign::json::Writer* w) const {
  const auto doc = campaign::json::parse(done_);
  if (!doc) return;
  for (const char* key : {"fabric", "fleet"}) {
    if (const campaign::json::Value* v = doc->find(key)) {
      w->key(key).value_raw(std::string_view(done_).substr(v->begin,
                                                           v->end - v->begin));
    }
  }
}

}  // namespace pfi::fabric
