// Thin POSIX socket layer for the campaign fabric.
//
// Addresses are strings: "HOST:PORT" (TCP; HOST may be a dotted quad or a
// name) or "unix:/path/to.sock" (AF_UNIX). A Listener bound to port 0
// reports the kernel-chosen port through address() — that is how
// `pfi_campaign --workers N` hands auto-spawned workers a rendezvous
// without configuration. All sends use MSG_NOSIGNAL so a worker dying
// mid-write surfaces as an error return, never SIGPIPE.
#pragma once

#include <atomic>
#include <string>

#include "fabric/wire.hpp"

namespace pfi::fabric {

/// Listening socket (TCP loopback/any, or unix-domain). Move-only.
class Listener {
 public:
  Listener() = default;
  ~Listener() { close_(); }
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  Listener(Listener&& o) noexcept { *this = static_cast<Listener&&>(o); }
  Listener& operator=(Listener&& o) noexcept {
    if (this != &o) {
      close_();
      fd_ = o.fd_;
      addr_ = o.addr_;
      unix_path_ = o.unix_path_;
      o.fd_ = -1;
      o.unix_path_.clear();
    }
    return *this;
  }

  /// Bind + listen on `address` ("HOST:PORT", port 0 = ephemeral, or
  /// "unix:PATH"; an existing socket file at PATH is replaced). Returns
  /// false with *err set on failure.
  bool open(const std::string& address, std::string* err);

  /// Accept one pending connection (the caller polled readability), or -1.
  /// When `peer` is non-null it receives the peer's address: the dotted
  /// quad for TCP ("10.0.0.7") or "unix" for AF_UNIX — the Engine's
  /// allowlist matches against exactly this string.
  [[nodiscard]] int accept_one(std::string* peer = nullptr) const;

  [[nodiscard]] int fd() const { return fd_; }
  /// The concrete bound address ("127.0.0.1:41523" once the kernel picked
  /// the port) — dial this.
  [[nodiscard]] const std::string& address() const { return addr_; }

 private:
  void close_();

  int fd_ = -1;
  std::string addr_;
  std::string unix_path_;  // unlinked on close
};

/// Blocking connect to "HOST:PORT" or "unix:PATH". Returns the fd, or -1
/// with *err set.
int dial(const std::string& address, std::string* err);

/// Write all of `data` (MSG_NOSIGNAL, EINTR-retrying). False on error.
bool send_all(int fd, const void* data, std::size_t n);

/// Why read_frame gave up, so the flight recorder can tell an idle
/// timeout from a bounced heartbeat from a plain dead socket.
enum class ReadFail { kNone, kIo, kIdle, kHeartbeat };

/// The one blocking read of the next complete frame off `fd`. It polls in
/// short slices, so with idle_timeout_ms > 0 a silent partition (peer host
/// gone without an RST) surfaces after that long, or the moment
/// *hb_failed reports a failed heartbeat send, instead of blocking in
/// recv() for TCP's many-minute retransmission timeout; idle_timeout_ms 0
/// waits as long as the peer keeps the link open (what a client wants).
/// False on EOF, error, corruption or timeout.
bool read_frame(int fd, FrameReader* reader, Frame* out,
                int idle_timeout_ms = 0,
                const std::atomic<bool>* hb_failed = nullptr,
                ReadFail* why = nullptr);

}  // namespace pfi::fabric
