// The scaffold both JSON-lines daemons run on: the `--serve` worker
// (serve/server.h) and the `--fleet` coordinator (fleet/coordinator.h).
//
// A Daemon owns everything the two share. Subclasses supply only the `run`
// handler, the ops only they serve (`stats`, `cancel`), and the members
// they add to `status`.
//
// Lifecycle: start() binds a TCP listener and accepts on a background
// thread, up to a connection limit (over-limit and draining peers get one
// error envelope and are closed). serve_stream() serves one connection on
// any fd pair instead: stdio for `--stdio`, socketpair ends in tests. Each
// connection has a reader thread, joined once the connection closes.
//
// Multiplexing: every `run` executes on its own thread while the reader
// keeps consuming lines, so several runs and quick ops (status, metrics,
// cancel) interleave on one socket. Every frame carries its request "id",
// and a per-connection write lock keeps frames whole. The idle timeout
// only counts while no run is in flight on the connection.
//
// Robustness: a malformed or invalid request gets one error envelope and
// nothing else; the daemon and its other connections are untouched.
//
// Shutdown: the `shutdown` op or request_shutdown() (async-signal-safe,
// one write() to a self-pipe) starts the drain. New connections and new
// requests (except `status`) are refused, in-flight runs finish and stream
// their envelopes, then the `shutdown` caller gets "bye" and wait() returns
// once every connection has ended.
//
// Observability: log events take the daemon's prefix (serve.accept,
// fleet.accept, ...). Both daemons record ndpsim_requests_total{op,outcome},
// ndpsim_request_latency_seconds{op} and the connection gauges.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "obs/log.h"
#include "serve/protocol.h"

namespace ndp::serve {

class Daemon {
 public:
  virtual ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Bind + listen on the configured port and start the accept loop in a
  /// background thread. Returns the bound port (resolves port 0). Throws
  /// std::runtime_error when the bind fails.
  std::uint16_t start();

  /// Serve exactly one connection on an fd pair, blocking until the peer
  /// closes, a shutdown request arrives, or the idle timeout fires. Composes
  /// with start(): stream and TCP connections drain together.
  void serve_stream(int in_fd, int out_fd);

  /// Begin the graceful drain. Async-signal-safe, so a SIGINT handler may
  /// call it directly.
  void request_shutdown();

  /// Block until the accept loop and every connection thread finished.
  void wait();

  /// The shared counters of the `status` reply.
  ServerStatus status() const;

 private:
  /// Threads joined as they finish: each one joins the thread that finished
  /// before it, so at most one finished thread is ever left unjoined.
  class Threads {
   public:
    Threads() = default;
    ~Threads() { join_all(); }
    Threads(const Threads&) = delete;
    Threads& operator=(const Threads&) = delete;

    void spawn(std::function<void()> body);
    bool busy() const;  ///< some thread is still running
    void join_all();    ///< block until every thread has finished

   private:
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::list<std::thread> running_;
    std::thread finished_;  ///< the last thread to finish, not yet joined
  };

 protected:
  /// `prefix` names the log events ("serve" → serve.accept); `name` is the
  /// daemon in refusals ("server" → "server is shutting down").
  Daemon(const char* prefix, const char* name, std::uint16_t port,
         unsigned max_connections, int idle_timeout_ms);

  /// One client connection, shared by its reader and the runs it spawned.
  struct Conn {
    int out_fd = -1;
    std::uint64_t id = 0;  ///< tags every log line of the connection
    std::mutex write_mu;   ///< one frame at a time: runs stream concurrently
    Threads runs;          ///< this connection's runs

    bool send(std::string_view envelope);
  };

  /// A handler's answer: the terminal envelope ("" sends nothing, e.g. the
  /// client is gone) and the outcome ndpsim_requests_total counts it under.
  struct Reply {
    std::string envelope;
    const char* outcome = "ok";
  };

  /// The `run` op, on its own thread: stream each cell with send_cell()
  /// and return the terminal envelope. An exception becomes an error
  /// envelope (and a `<prefix>.run.error` log line).
  virtual Reply run(const Request& req, Conn& conn) = 0;

  /// The ops the daemons differ on (`stats`, `cancel`), answered inline.
  virtual Reply handle_op(const Request& req, std::uint64_t conn_id) = 0;

  /// JSON members appended to the shared `status` counters, each one led
  /// by a comma.
  virtual std::string status_members() const { return {}; }

  /// Frame one cell envelope of a run and count it into `status`. False
  /// once the client is gone.
  bool send_cell(Conn& conn, std::string_view envelope);

  /// True once a shutdown was requested, or false after `timeout_ms` of
  /// waiting for one — the pacing of a daemon's own background loops.
  bool wait_for_shutdown(int timeout_ms) const;

  /// A log line named `<prefix>.<event>`.
  obs::LogLine log(obs::LogLevel level, std::string_view event) const;

 private:
  void accept_loop();
  void handle_connection(int in_fd, int out_fd, bool own_fds,
                         std::uint64_t conn_id);
  /// One request line → envelopes on the connection. A run is handed to
  /// its own thread; other ops answer inline. False ends the connection
  /// (shutdown acknowledged).
  bool dispatch(const std::string& line, Conn& conn);
  /// A run's thread: the run() hook, then the request's metrics, then its
  /// terminal envelope — in that order, so a scrape issued after the client
  /// reads that envelope reflects this run.
  void run_thread(const Request& req, Conn& conn,
                  std::chrono::steady_clock::time_point start);

  const std::string prefix_;
  const std::string name_;
  const std::uint16_t port_;
  const unsigned max_connections_;
  const int idle_timeout_ms_;
  const std::chrono::steady_clock::time_point start_time_;

  int listen_fd_ = -1;
  int wake_rd_ = -1;  ///< self-pipe: written once on shutdown, never drained,
  int wake_wr_ = -1;  ///< so every poller (accept + readers) sees POLLIN

  mutable std::mutex mu_;
  std::condition_variable drain_cv_;  ///< signaled when a run finishes
  bool draining_ = false;
  unsigned connections_ = 0;
  unsigned active_runs_ = 0;
  unsigned in_flight_requests_ = 0;
  std::uint64_t requests_accepted_ = 0;
  std::uint64_t runs_completed_ = 0;
  std::uint64_t cells_completed_ = 0;
  std::uint64_t next_conn_id_ = 0;

  Threads conns_;  ///< one reader per accepted connection
  std::thread accept_thread_;
};

}  // namespace ndp::serve
