#include "serve/framing.h"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include "obs/metrics.h"

namespace ndp::serve {

namespace {

[[noreturn]] void sys_error(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Process-wide wire byte totals (obs/metrics.h) — every framed fd in the
/// process (daemon connections, client sockets) accumulates here.
obs::Counter& bytes_read_counter() {
  static obs::Counter& c = obs::Metrics::instance().counter(
      "ndpsim_bytes_read_total", "Bytes read from framed line streams");
  return c;
}

obs::Counter& bytes_written_counter() {
  static obs::Counter& c = obs::Metrics::instance().counter(
      "ndpsim_bytes_written_total", "Bytes written to framed line streams");
  return c;
}

}  // namespace

bool LineReader::take_line(std::string& line) {
  const std::size_t nl = buf_.find('\n', scan_);
  if (nl == std::string::npos) {
    scan_ = buf_.size();
    // Drop the consumed lines when moving the partial one down costs no
    // more than the bytes they held: amortized constant per byte.
    if (head_ >= buf_.size() - head_) {
      buf_.erase(0, head_);
      scan_ -= head_;
      head_ = 0;
    }
    return false;
  }
  line.assign(buf_, head_, nl - head_);
  head_ = scan_ = nl + 1;
  return true;
}

LineReader::Status LineReader::next(std::string& line, int timeout_ms,
                                    int wake_fd) {
  if (take_line(line)) return Status::kLine;
  if (eof_) return Status::kEof;
  char chunk[4096];
  for (;;) {
    pollfd fds[2] = {{fd_, POLLIN, 0}, {wake_fd, POLLIN, 0}};
    const nfds_t nfds = wake_fd >= 0 ? 2 : 1;
    const int ready = ::poll(fds, nfds, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Status::kError;
    }
    if (ready == 0) return Status::kTimeout;
    // Shutdown wake-up wins over pending data: a draining server stops
    // reading new requests even if some are already queued on the wire.
    if (wake_fd >= 0 && (fds[1].revents & (POLLIN | POLLHUP)))
      return Status::kWake;
    const ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::kError;
    }
    if (n == 0) {
      eof_ = true;
      return Status::kEof;
    }
    bytes_read_counter().inc(static_cast<std::uint64_t>(n));
    buf_.append(chunk, static_cast<std::size_t>(n));
    if (take_line(line)) return Status::kLine;
  }
}

bool write_line(int fd, std::string_view payload) {
  std::string framed;
  framed.reserve(payload.size() + 1);
  framed.append(payload.data(), payload.size());
  framed.push_back('\n');
  std::size_t off = 0;
  while (off < framed.size()) {
#ifdef MSG_NOSIGNAL
    // Sockets: suppress SIGPIPE per call so a vanished client is a clean
    // write error, not process death. Falls back to write() for pipes and
    // regular fds, where send() is invalid.
    ssize_t n = ::send(fd, framed.data() + off, framed.size() - off,
                       MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK)
      n = ::write(fd, framed.data() + off, framed.size() - off);
#else
    ssize_t n = ::write(fd, framed.data() + off, framed.size() - off);
#endif
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  bytes_written_counter().inc(framed.size());
  return true;
}

int listen_tcp(std::uint16_t port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) sys_error("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    sys_error("bind port " + std::to_string(port));
  }
  if (::listen(fd, backlog) < 0) {
    ::close(fd);
    sys_error("listen");
  }
  return fd;
}

std::uint16_t local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0)
    sys_error("getsockname");
  return ntohs(addr.sin_port);
}

namespace {

/// One bounded connect attempt: non-blocking connect, poll for
/// writability, then read back SO_ERROR. Returns 0 on success, the
/// connect errno otherwise (ETIMEDOUT when the deadline passed first).
int connect_with_timeout(int fd, const sockaddr* addr, socklen_t len,
                         int timeout_ms) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) return errno;
  int err = 0;
  if (::connect(fd, addr, len) != 0) {
    if (errno != EINPROGRESS) {
      err = errno;
    } else {
      pollfd pfd{fd, POLLOUT, 0};
      const int ready = ::poll(&pfd, 1, timeout_ms);
      if (ready == 0) {
        err = ETIMEDOUT;
      } else if (ready < 0) {
        err = errno;
      } else {
        socklen_t err_len = sizeof err;
        if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) < 0)
          err = errno;
      }
    }
  }
  // Restore blocking mode; all framed I/O here is blocking + poll.
  if (err == 0 && ::fcntl(fd, F_SETFL, flags) < 0) err = errno;
  return err;
}

}  // namespace

int connect_tcp(const std::string& host, std::uint16_t port, int timeout_ms) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc =
      ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints, &res);
  if (rc != 0)
    throw std::runtime_error("resolve " + host + ": " + gai_strerror(rc));
  int fd = -1;
  int saved_errno = 0;
  for (addrinfo* ai = res; ai; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      saved_errno = errno;
      continue;
    }
    if (timeout_ms < 0) {
      if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
      saved_errno = errno;
    } else {
      const int err =
          connect_with_timeout(fd, ai->ai_addr, ai->ai_addrlen, timeout_ms);
      if (err == 0) break;
      saved_errno = err;
    }
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    errno = saved_errno;
    sys_error("connect " + host + ":" + std::to_string(port));
  }
  return fd;
}

}  // namespace ndp::serve
