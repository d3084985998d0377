// The client side of the campaign-as-a-service daemon (`pfi_fabricd`).
//
// One connection: dial, HELLO as a client (a BYE reply carries the
// refusal reason), then any number of STATUS round trips and SUBMITs. A
// submitted job streams PROGRESS lines and ARTIFACT frames (complete
// documents, and live journal chunks keyed by content hash) to callbacks
// until its DONE, which wait() maps to the campaign exit code. A campaign
// job's report is the client's to build (submit_campaign).
// `pfi_campaign --status` / `--submit` and the daemon's tests speak
// through this class; docs/FABRIC.md describes the frames.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "campaign/report.hpp"
#include "fabric/wire.hpp"

namespace pfi::fabric {

struct SubmitHandlers {
  /// One PROGRESS line (JSON).
  std::function<void(const std::string& json)> on_progress;
  /// One ARTIFACT: a complete document (`chunk` empty) or one live chunk
  /// of a streamed one, keyed by the record's content hash.
  std::function<void(const std::string& name, const std::string& bytes,
                     const std::string& chunk)>
      on_artifact;
  /// The DONE document (JSON), before wait() returns.
  std::function<void(const std::string& json)> on_done;
};

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

  /// Send a SUBMIT; the job's frames arrive through wait().
  bool submit(const Submit& s, std::string* err);

  /// Submit a campaign job and fill `report` as a local run over
  /// `journal` would: the planned keys it answers travel as Submit.have,
  /// every record the daemon returns joins it and fills the slot of the
  /// plan index it carries, and `h` still sees each frame. `cells` must be the daemon's plan of `s` (its spec text with
  /// the budgets applied, then the filter). Returns 2 or 130 as wait()
  /// does, else 1 when the report holds a failure or error.
  int submit_campaign(Submit s, const std::vector<campaign::RunCell>& cells,
                      std::map<std::string, std::string>* journal,
                      const SubmitHandlers& h,
                      campaign::CampaignReport* report, std::string* err);

  /// Stream the submitted job's frames to `h` until its DONE. Returns 0
  /// when every cell passed (a search: no violation), 1 when one failed or
  /// errored (a search: found a violation), 130 when the daemon was
  /// interrupted, 2 when the job was rejected or errored or the connection
  /// dropped before DONE (*err names why when known).
  int wait(const SubmitHandlers& h, std::string* err);

 private:
  bool send(const std::string& frame_bytes);

  int fd_ = -1;
  FrameReader reader_;
};

}  // namespace pfi::fabric
