#include "fabric/client.hpp"

#include <cstdint>

#include <unistd.h>

#include "campaign/json.hpp"
#include "fabric/socket.hpp"

namespace pfi::fabric {

Client::~Client() {
  if (fd_ >= 0) close(fd_);
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

bool Client::submit(const Submit& s, std::string* err) {
  explore_ = s.explore > 0;
  if (!send(encode_frame(FrameType::kSubmit, encode_submit(s)))) {
    *err = "submit failed";
    return false;
  }
  return true;
}

int Client::wait(const SubmitHandlers& h, std::string* err) {
  Frame f;
  while (read_frame(fd_, &reader_, &f)) {
    if (f.type == FrameType::kProgress) {
      if (h.on_progress) h.on_progress(decode_json_line(f.payload));
    } else if (f.type == FrameType::kArtifact) {
      std::string name, bytes, chunk;
      if (decode_artifact(f.payload, &name, &bytes, &chunk) &&
          h.on_artifact) {
        h.on_artifact(name, bytes, chunk);
      }
    } else if (f.type == FrameType::kDone) {
      const std::string done = decode_json_line(f.payload);
      if (h.on_done) h.on_done(done);
      const auto doc = campaign::json::parse(done);
      const std::string status = doc ? doc->str_or("status", "error") : "error";
      if (status == "error") {
        *err = doc ? doc->str_or("error", "") : "";
        return 2;
      }
      if (status == "interrupted") return 130;
      // Counts default to 0 when absent; a malformed one reads as a failure.
      const auto count = [&](const char* key) {
        std::uint64_t n = 0;
        return doc->int_field(key, &n) ? n : 1;
      };
      if (explore_) return count("violations") > 0 ? 1 : 0;
      return count("fail") + count("error") > 0 ? 1 : 0;
    } else if (f.type == FrameType::kBye) {
      break;
    }
  }
  *err = "daemon closed the connection before DONE";
  return 2;
}

}  // namespace pfi::fabric
