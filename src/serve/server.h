// The resident evaluation daemon behind `ndpsim --serve`.
//
// One Server owns one Session (sim/session.h): every run request, from any
// connection, schedules its cells on a run_sweep() worker pool over that
// shared Session, so the system images built for the first request are
// warm for every later one — the interactive analogue of a
// long batch sweep. Result envelopes are byte-identical to what the same
// grid produces under batch `ndpsim --config` (tests/serve_test.cpp pins
// the equality), so "ran it against the daemon" and "ran it standalone"
// yield interchangeable artifacts.
//
// Connections, multiplexing, timeouts and the shutdown drain are the
// shared scaffold's (serve/daemon.h). What is the worker's own: runs over
// the Session with an optional per-request deadline, the `stats` op, and
// `cancel` by request id.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "serve/daemon.h"
#include "sim/session.h"

namespace ndp::serve {

struct ServeOptions {
  std::uint16_t port = 0;       ///< TCP port (0 = kernel-assigned)
  unsigned jobs = 0;            ///< default worker threads per run request
  unsigned max_connections = 16;
  /// Close a connection after this long with no request (-1 = never). The
  /// clock only runs while the connection is quiet — a run in flight on it
  /// suppresses the timeout.
  int idle_timeout_ms = -1;
  /// Cancel a run request after this long (-1 = never). The client gets
  /// the cells completed so far plus a "cancelled" terminal envelope.
  int request_timeout_ms = -1;
  SessionOptions session;  ///< sharing + image store of the shared Session
};

class Server : public Daemon {
 public:
  explicit Server(ServeOptions opts = {});
  ~Server() override;

  Session& session() { return session_; }

 private:
  Reply run(const Request& req, Conn& conn) override;
  Reply handle_op(const Request& req, std::uint64_t conn_id) override;

  ServeOptions opts_;
  Session session_;

  std::mutex runs_mu_;
  /// Cancel flags of the runs in flight, by request id.
  std::map<std::string, std::shared_ptr<std::atomic<bool>>> runs_;
};

}  // namespace ndp::serve
