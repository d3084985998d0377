#include "fabric/client.hpp"

#include <cstdint>

#include <unistd.h>

#include "campaign/journal.hpp"
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
  if (!send(encode_frame(FrameType::kSubmit, encode_submit(s)))) {
    *err = "submit failed";
    return false;
  }
  return true;
}

int Client::submit_campaign(Submit s,
                            const std::vector<campaign::RunCell>& cells,
                            std::map<std::string, std::string>* journal,
                            const SubmitHandlers& h,
                            campaign::CampaignReport* report,
                            std::string* err) {
  const campaign::JournalSplit held = campaign::split_by_journal(cells, journal);
  s.have.clear();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!held.records[i].empty()) s.have.push_back(held.keys[i]);
  }
  if (!submit(s, err)) return 2;
  std::map<std::string, std::string> fresh;  // this job's records, by key
  SubmitHandlers absorb = h;
  absorb.on_artifact = [&](const std::string& name, const std::string& bytes,
                           const std::string& chunk) {
    if (name == "journal") campaign::parse_journal(bytes, &fresh);
    if (h.on_artifact) h.on_artifact(name, bytes, chunk);
  };
  const int rc = wait(absorb, err);
  // Journaled records fill their slots by content key, this job's by the
  // plan index they carry, as a local run splices its results: a script
  // cell's key hashes the file as each host reads it, so the daemon's key
  // need not be ours.
  report->records = held.records;
  for (const auto& [key, record] : fresh) {
    (*journal)[key] = record;
    const auto doc = campaign::json::parse(record);
    const campaign::json::Value* index = doc ? doc->find("index") : nullptr;
    std::size_t slot = 0;
    if (index != nullptr && index->to_int(&slot) && slot < cells.size()) {
      report->records[slot] = record;
    }
  }
  report->resumed = held.answered;
  report->interrupted = rc == 130;
  if (rc == 2 || rc == 130) return rc;
  const campaign::RecordTally tally = campaign::tally_records(report->records);
  return tally.fail + tally.error > 0 ? 1 : 0;
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
      // Counts default to 0 when absent (a campaign's DONE has no
      // violations, a search's no fail or error); a malformed one reads as
      // a failure.
      const auto count = [&](const char* key) {
        std::uint64_t n = 0;
        return doc->int_field(key, &n) ? n : 1;
      };
      return count("violations") + count("fail") + count("error") > 0 ? 1 : 0;
    } else if (f.type == FrameType::kBye) {
      break;
    }
  }
  *err = "daemon closed the connection before DONE";
  return 2;
}

}  // namespace pfi::fabric
