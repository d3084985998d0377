#include "fabric/socket.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <arpa/inet.h>
#include <netdb.h>
#include <poll.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "campaign/kv.hpp"

namespace pfi::fabric {

namespace {

constexpr const char* kUnixPrefix = "unix:";

bool is_unix(const std::string& address) {
  return address.rfind(kUnixPrefix, 0) == 0;
}

bool split_host_port(const std::string& address, std::string* host,
                     std::string* port) {
  const auto colon = address.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= address.size()) {
    return false;
  }
  *host = address.substr(0, colon);
  *port = address.substr(colon + 1);
  return true;
}

/// Frames are small and latency-bound (a lease round trip gates a worker's
/// next batch): Nagle + delayed ACK would add ~40 ms stalls per exchange.
/// Harmlessly fails on AF_UNIX sockets.
void set_nodelay(int fd) {
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

bool fill_unix_addr(const std::string& path, sockaddr_un* sa,
                    std::string* err) {
  if (path.empty() || path.size() >= sizeof sa->sun_path) {
    *err = "fabric: unix socket path too long: " + path;
    return false;
  }
  std::memset(sa, 0, sizeof *sa);
  sa->sun_family = AF_UNIX;
  std::memcpy(sa->sun_path, path.c_str(), path.size() + 1);
  return true;
}

}  // namespace

bool Listener::open(const std::string& address, std::string* err) {
  close_();
  if (is_unix(address)) {
    const std::string path = address.substr(std::strlen(kUnixPrefix));
    sockaddr_un sa;
    if (!fill_unix_addr(path, &sa, err)) return false;
    fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
      *err = std::string("fabric: socket: ") + std::strerror(errno);
      return false;
    }
    unlink(path.c_str());  // a stale socket file from a dead daemon
    if (bind(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0 ||
        listen(fd_, 64) != 0) {
      *err = "fabric: cannot listen on " + address + ": " +
             std::strerror(errno);
      close_();
      return false;
    }
    unix_path_ = path;
    addr_ = address;
    return true;
  }

  std::string host, port;
  std::uint16_t port_num = 0;
  if (!split_host_port(address, &host, &port) ||
      !campaign::kv::to_int(port, &port_num)) {
    *err = "fabric: bad address (want HOST:PORT or unix:PATH): " + address;
    return false;
  }
  sockaddr_in sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port_num);
  if (inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1) {
    *err = "fabric: bad listen host (want a dotted quad): " + host;
    return false;
  }
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    *err = std::string("fabric: socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (bind(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0 ||
      listen(fd_, 64) != 0) {
    *err = "fabric: cannot listen on " + address + ": " +
           std::strerror(errno);
    close_();
    return false;
  }
  // Report the kernel-chosen port (bind to :0 for an ephemeral one).
  sockaddr_in bound;
  socklen_t len = sizeof bound;
  if (getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s:%u", host.c_str(),
                  static_cast<unsigned>(ntohs(bound.sin_port)));
    addr_ = buf;
  } else {
    addr_ = address;
  }
  return true;
}

int Listener::accept_one(std::string* peer) const {
  if (fd_ < 0) return -1;
  for (;;) {
    sockaddr_storage ss;
    socklen_t len = sizeof ss;
    const int c = accept(fd_, reinterpret_cast<sockaddr*>(&ss), &len);
    if (c >= 0) {
      set_nodelay(c);
      if (peer != nullptr) {
        if (ss.ss_family == AF_INET) {
          char buf[INET_ADDRSTRLEN] = {0};
          const auto* sin = reinterpret_cast<const sockaddr_in*>(&ss);
          inet_ntop(AF_INET, &sin->sin_addr, buf, sizeof buf);
          *peer = buf;
        } else {
          *peer = "unix";
        }
      }
      return c;
    }
    if (errno == EINTR) continue;
    return -1;
  }
}

void Listener::close_() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  if (!unix_path_.empty()) {
    unlink(unix_path_.c_str());
    unix_path_.clear();
  }
  addr_.clear();
}

int dial(const std::string& address, std::string* err) {
  if (is_unix(address)) {
    const std::string path = address.substr(std::strlen(kUnixPrefix));
    sockaddr_un sa;
    if (!fill_unix_addr(path, &sa, err)) return -1;
    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      *err = std::string("fabric: socket: ") + std::strerror(errno);
      return -1;
    }
    if (connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0) {
      *err = "fabric: cannot connect to " + address + ": " +
             std::strerror(errno);
      close(fd);
      return -1;
    }
    return fd;
  }  // AF_UNIX: no Nagle to disable

  std::string host, port;
  if (!split_host_port(address, &host, &port)) {
    *err = "fabric: bad address (want HOST:PORT or unix:PATH): " + address;
    return -1;
  }
  addrinfo hints;
  std::memset(&hints, 0, sizeof hints);
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc = getaddrinfo(host.c_str(), port.c_str(), &hints, &res);
  if (rc != 0 || res == nullptr) {
    *err = "fabric: cannot resolve " + address + ": " + gai_strerror(rc);
    return -1;
  }
  int fd = -1;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    close(fd);
    fd = -1;
  }
  freeaddrinfo(res);
  if (fd < 0) {
    *err = "fabric: cannot connect to " + address + ": " +
           std::strerror(errno);
    return fd;
  }
  set_nodelay(fd);
  return fd;
}

bool send_all(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = send(fd, p + off, n - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(w);
  }
  return true;
}

bool read_frame(int fd, FrameReader* reader, Frame* out, int idle_timeout_ms,
                const std::atomic<bool>* hb_failed, ReadFail* why) {
  if (why != nullptr) *why = ReadFail::kNone;
  int idle_ms = 0;
  for (;;) {
    if (reader->next(out)) return true;
    if (why != nullptr) *why = ReadFail::kIo;
    if (reader->corrupt()) return false;
    struct pollfd p = {fd, POLLIN, 0};
    const int pr = poll(&p, 1, 250);
    if (pr < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (pr == 0) {
      if (hb_failed != nullptr &&
          hb_failed->load(std::memory_order_relaxed)) {
        if (why != nullptr) *why = ReadFail::kHeartbeat;
        return false;  // our own beats bounce: the link is gone
      }
      idle_ms += 250;
      if (idle_timeout_ms > 0 && idle_ms >= idle_timeout_ms) {
        if (why != nullptr) *why = ReadFail::kIdle;
        return false;
      }
      continue;
    }
    char buf[65536];
    const ssize_t n = recv(fd, buf, sizeof buf, 0);
    if (n == 0) return false;
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return false;
    }
    idle_ms = 0;
    reader->feed(buf, static_cast<std::size_t>(n));
  }
}

}  // namespace pfi::fabric
