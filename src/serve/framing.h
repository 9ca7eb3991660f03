// Wire framing for the serve subsystem: newline-delimited JSON over plain
// file descriptors, plus the few POSIX socket helpers the daemon and client
// need. One request or response envelope = one '\n'-terminated line; the
// JSON itself never contains a raw newline (the JsonWriter escapes them),
// so framing is a byte scan, not a parse.
//
// Everything here is transport only — no JSON interpretation (that is
// serve/protocol.h) and no scheduling (serve/daemon.h). The helpers work
// on any fd: a TCP socket, a socketpair end (tests), or stdin/stdout
// (`ndpsim --serve --stdio`).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace ndp::serve {

/// Buffered '\n'-delimited reader over one fd. read() happens only when
/// the buffer has no complete line, and waits via poll() so callers get
/// idle timeouts and shutdown wake-ups without extra threads. Linear in the
/// bytes read: each byte is scanned for '\n' once, and consumed lines are
/// dropped only once they outweigh what remains.
class LineReader {
 public:
  enum class Status {
    kLine,     ///< a complete line was produced
    kEof,      ///< peer closed; no (complete) line remains
    kTimeout,  ///< timeout_ms elapsed with no complete line
    kWake,     ///< wake_fd became readable (shutdown notification)
    kError,    ///< read/poll failed
  };

  explicit LineReader(int fd) : fd_(fd) {}

  /// Next line (without the '\n') into `line`. Waits up to `timeout_ms`
  /// (-1 = forever). When `wake_fd` >= 0 and becomes readable while
  /// waiting, returns kWake — the serve layer passes its shutdown pipe
  /// here so connections notice a drain without polling flags.
  Status next(std::string& line, int timeout_ms = -1, int wake_fd = -1);

  int fd() const { return fd_; }

 private:
  bool take_line(std::string& line);

  int fd_;
  std::string buf_;
  std::size_t head_ = 0;  ///< start of the unconsumed bytes in buf_
  std::size_t scan_ = 0;  ///< buf_[head_, scan_) holds no '\n'
  bool eof_ = false;
};

/// Write `payload` + '\n' fully (handles partial writes and EINTR).
/// False on error (e.g. EPIPE after the peer vanished) — the caller drops
/// the connection; SIGPIPE is suppressed per-call.
bool write_line(int fd, std::string_view payload);

/// Listening TCP socket on `port` (0 = kernel-assigned; read it back with
/// local_port). SO_REUSEADDR so a restarted daemon rebinds immediately.
/// Throws std::runtime_error with errno text on failure.
int listen_tcp(std::uint16_t port, int backlog = 16);

/// The locally bound port of a socket (resolves port-0 binds).
std::uint16_t local_port(int fd);

/// Connect to host:port ("127.0.0.1", "::1", or a hostname). With
/// `timeout_ms` >= 0 the connect itself is bounded (non-blocking connect +
/// poll; the returned fd is blocking again) — the fleet coordinator uses
/// this so one unreachable worker can't stall dispatch. -1 = OS default.
/// Throws std::runtime_error with errno/resolver text on failure.
int connect_tcp(const std::string& host, std::uint16_t port,
                int timeout_ms = -1);

}  // namespace ndp::serve
