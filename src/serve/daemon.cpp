#include "serve/daemon.h"

#include <cerrno>
#include <stdexcept>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/framing.h"

namespace ndp::serve {

namespace {

const char* op_name(Request::Op op) {
  switch (op) {
    case Request::Op::kRun: return "run";
    case Request::Op::kStatus: return "status";
    case Request::Op::kStats: return "stats";
    case Request::Op::kMetrics: return "metrics";
    case Request::Op::kCancel: return "cancel";
    case Request::Op::kShutdown: return "shutdown";
  }
  return "unknown";
}

/// Daemon connection metrics (obs/metrics.h). Fixed handles, resolved once.
struct ConnMetrics {
  obs::Gauge& active_connections = obs::Metrics::instance().gauge(
      "ndpsim_active_connections", "Currently open serve connections");
  obs::Counter& connections = obs::Metrics::instance().counter(
      "ndpsim_connections_total", "Connections served (TCP accepts + streams)");
  obs::Counter& refused = obs::Metrics::instance().counter(
      "ndpsim_connections_refused_total",
      "Connections refused (drain in progress or connection limit)");

  static ConnMetrics& get() {
    static ConnMetrics m;
    return m;
  }
};

/// Per-op/outcome request accounting. Label children are found-or-created
/// under the registry mutex per call — request dispatch is not a hot path
/// (per-cell work is, and uses fixed handles in the sweep runner).
void record_request(const char* op, const char* outcome,
                    std::chrono::steady_clock::time_point start) {
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  std::string labels = "op=\"";
  labels += op;
  labels += "\",outcome=\"";
  labels += outcome;
  labels += '"';
  obs::Metrics::instance()
      .counter("ndpsim_requests_total",
               "Requests dispatched, by op and outcome", labels)
      .inc();
  std::string op_label = "op=\"";
  op_label += op;
  op_label += '"';
  obs::Metrics::instance()
      .histogram("ndpsim_request_latency_seconds",
                 "Wall seconds from request line to terminal envelope",
                 op_label)
      .observe(seconds);
}

}  // namespace

// --- Threads ------------------------------------------------------------------

void Daemon::Threads::spawn(std::function<void()> body) {
  std::lock_guard<std::mutex> lock(mu_);
  running_.emplace_front();
  const auto self = running_.begin();
  // The new thread touches running_ only under mu_, which this assignment
  // holds, so it never sees its own slot half-written.
  try {
    *self = std::thread([this, self, body = std::move(body)] {
      body();
      std::thread previous;
      {
        std::lock_guard<std::mutex> lock(mu_);
        previous = std::exchange(finished_, std::move(*self));
        running_.erase(self);
        cv_.notify_all();
      }
      if (previous.joinable()) previous.join();
    });
  } catch (...) {
    running_.erase(self);  // no thread: nothing for join_all to wait on
    throw;
  }
}

bool Daemon::Threads::busy() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !running_.empty();
}

void Daemon::Threads::join_all() {
  std::thread last;
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return running_.empty(); });
    last = std::move(finished_);
  }
  if (last.joinable()) last.join();
}

// --- Daemon -------------------------------------------------------------------

bool Daemon::Conn::send(std::string_view envelope) {
  std::lock_guard<std::mutex> lock(write_mu);
  return write_line(out_fd, envelope);
}

Daemon::Daemon(const char* prefix, const char* name, std::uint16_t port,
               unsigned max_connections, int idle_timeout_ms)
    : prefix_(prefix),
      name_(name),
      port_(port),
      max_connections_(max_connections),
      idle_timeout_ms_(idle_timeout_ms),
      start_time_(std::chrono::steady_clock::now()) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error(prefix_ + ": pipe failed");
  wake_rd_ = fds[0];
  wake_wr_ = fds[1];
}

Daemon::~Daemon() {
  request_shutdown();
  wait();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  ::close(wake_rd_);
  ::close(wake_wr_);
}

obs::LogLine Daemon::log(obs::LogLevel level, std::string_view event) const {
  std::string name = prefix_;
  name += '.';
  name += event;
  return obs::LogLine(level, name);
}

std::uint16_t Daemon::start() {
  listen_fd_ = listen_tcp(port_);
  const std::uint16_t port = local_port(listen_fd_);
  log(obs::LogLevel::kInfo, "listen")
      .kv("port", port)
      .kv("max_connections", max_connections_);
  accept_thread_ = std::thread([this] { accept_loop(); });
  return port;
}

void Daemon::request_shutdown() {
  // One byte, never drained: POLLIN stays asserted on wake_rd_ forever, so
  // the accept loop and every connection's LineReader all see it, now and
  // on every later poll.
  const char byte = 0;
  [[maybe_unused]] ssize_t n = ::write(wake_wr_, &byte, 1);
}

bool Daemon::wait_for_shutdown(int timeout_ms) const {
  pollfd fd{wake_rd_, POLLIN, 0};
  return ::poll(&fd, 1, timeout_ms) > 0;
}

void Daemon::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  conns_.join_all();
}

ServerStatus Daemon::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServerStatus s;
  s.connections = connections_;
  s.active_runs = active_runs_;
  s.in_flight_requests = in_flight_requests_;
  s.requests_accepted = requests_accepted_;
  s.runs_completed = runs_completed_;
  s.cells_completed = cells_completed_;
  s.uptime_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count());
  s.draining = draining_;
  return s;
}

bool Daemon::send_cell(Conn& conn, std::string_view envelope) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++cells_completed_;
  }
  return conn.send(envelope);
}

void Daemon::accept_loop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_rd_, POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents & POLLIN) {
      std::lock_guard<std::mutex> lock(mu_);
      draining_ = true;
      log(obs::LogLevel::kInfo, "drain").kv("reason", "shutdown");
      break;
    }
    if (!(fds[0].revents & POLLIN)) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      log(obs::LogLevel::kWarn, "accept.error").kv("errno", errno);
      continue;
    }
    std::uint64_t conn_id = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (draining_ || connections_ >= max_connections_) {
        const std::string why = draining_ ? name_ + " is shutting down"
                                          : "connection limit reached";
        ConnMetrics::get().refused.inc();
        log(obs::LogLevel::kWarn, "refuse")
            .kv("reason", why)
            .kv("connections", connections_);
        write_line(fd, error_envelope("", why));
        ::close(fd);
        continue;
      }
      ++connections_;
      conn_id = next_conn_id_++;
      log(obs::LogLevel::kInfo, "accept")
          .kv("conn", conn_id)
          .kv("fd", fd)
          .kv("connections", connections_);
    }
    conns_.spawn([this, fd, conn_id] {
      handle_connection(fd, fd, /*own_fds=*/true, conn_id);
    });
  }
}

void Daemon::serve_stream(int in_fd, int out_fd) {
  std::uint64_t conn_id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++connections_;
    conn_id = next_conn_id_++;
  }
  log(obs::LogLevel::kInfo, "stream")
      .kv("conn", conn_id)
      .kv("in_fd", in_fd)
      .kv("out_fd", out_fd);
  handle_connection(in_fd, out_fd, /*own_fds=*/false, conn_id);
  // The fds belong to the caller, but a stream peer still deserves a clean
  // EOF: half-close sockets (socketpair tests); ENOTSOCK for stdio pipes
  // is fine — the caller exiting closes those.
  ::shutdown(out_fd, SHUT_WR);
}

void Daemon::handle_connection(int in_fd, int out_fd, bool own_fds,
                               std::uint64_t conn_id) {
  ConnMetrics::get().connections.inc();
  ConnMetrics::get().active_connections.add(1);
  Conn conn;
  conn.out_fd = out_fd;
  conn.id = conn_id;
  LineReader reader(in_fd);
  std::string line;
  const char* close_reason = nullptr;
  while (!close_reason) {
    switch (reader.next(line, idle_timeout_ms_, wake_rd_)) {
      case LineReader::Status::kLine:
        if (!dispatch(line, conn)) close_reason = "bye";
        break;
      case LineReader::Status::kTimeout:
        // A run in flight on this connection means it isn't idle — the
        // client is waiting on envelopes, not the other way round.
        if (conn.runs.busy()) break;
        log(obs::LogLevel::kWarn, "idle_timeout")
            .kv("conn", conn_id)
            .kv("timeout_ms", idle_timeout_ms_);
        conn.send(error_envelope("", "idle timeout, closing"));
        close_reason = "idle_timeout";
        break;
      case LineReader::Status::kWake:
        // Drain in progress: stop reading. Runs already in flight on this
        // connection finish on their own threads and are joined below.
        close_reason = "drain";
        break;
      case LineReader::Status::kEof:
        close_reason = "eof";
        break;
      case LineReader::Status::kError:
        log(obs::LogLevel::kWarn, "read.error")
            .kv("conn", conn_id)
            .kv("errno", errno);
        close_reason = "read_error";
        break;
    }
  }
  // Run threads hold conn (and stream to out_fd): join them before the fd
  // can be closed or the stack frame unwound.
  conn.runs.join_all();
  if (own_fds) ::close(in_fd);  // in_fd == out_fd for TCP connections
  log(obs::LogLevel::kInfo, "close")
      .kv("conn", conn_id)
      .kv("reason", close_reason);
  ConnMetrics::get().active_connections.add(-1);
  std::lock_guard<std::mutex> lock(mu_);
  --connections_;
}

bool Daemon::dispatch(const std::string& line, Conn& conn) {
  const auto start = std::chrono::steady_clock::now();
  Request req;
  try {
    req = parse_request(line);
  } catch (const std::exception& e) {
    // The daemon's first duty: a bad request is that request's problem.
    // Reply with one error envelope (echoing the id when recoverable) and
    // keep serving — and leave a log event carrying the connection and
    // request ids, the daemon-side join key for the client's error line.
    const std::string id = request_id_of(line);
    log(obs::LogLevel::kWarn, "request.malformed")
        .kv("conn", conn.id)
        .kv("req", id)
        .kv("error", e.what());
    conn.send(error_envelope(id, e.what()));
    record_request("invalid", "error", start);
    return true;
  }
  const char* op = op_name(req.op);
  bool refused = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++requests_accepted_;
    refused = draining_ && req.op != Request::Op::kShutdown &&
              req.op != Request::Op::kStatus;
    if (!refused) ++in_flight_requests_;
    // Counted before the run's thread exists, so a drain that starts in
    // between still waits for it.
    if (!refused && req.op == Request::Op::kRun) ++active_runs_;
  }
  if (refused) {
    log(obs::LogLevel::kWarn, "request.refused")
        .kv("conn", conn.id)
        .kv("req", req.id)
        .kv("op", op)
        .kv("reason", "draining");
    conn.send(error_envelope(req.id, name_ + " is shutting down"));
    record_request(op, "refused", start);
    return true;
  }
  log(obs::LogLevel::kDebug, "request")
      .kv("conn", conn.id)
      .kv("req", req.id)
      .kv("op", op);

  if (req.op == Request::Op::kRun) {
    conn.runs.spawn([this, &conn, req = std::move(req), start] {
      run_thread(req, conn, start);
    });
    return true;
  }

  obs::ScopedTraceSpan span(std::string("req:") + op, "request");
  Reply reply;
  bool keep_open = true;
  switch (req.op) {
    case Request::Op::kRun:
      break;  // on its own thread, above
    case Request::Op::kStatus:
      reply.envelope = status_envelope(req.id, status(), status_members());
      break;
    case Request::Op::kMetrics:
      // Rendered before this request is itself recorded (below) — a scrape
      // reflects everything that finished before it, deterministically.
      reply.envelope = metrics_envelope(
          req.id, obs::Metrics::instance().prometheus_text());
      break;
    case Request::Op::kStats:
    case Request::Op::kCancel:
      reply = handle_op(req, conn.id);
      break;
    case Request::Op::kShutdown: {
      log(obs::LogLevel::kInfo, "shutdown")
          .kv("conn", conn.id)
          .kv("req", req.id);
      request_shutdown();
      // Drain: every in-flight run finishes and streams its envelopes on
      // its own connection; only then acknowledge and let the caller stop
      // waiting. Runs multiplexed on *this* connection execute on their
      // own threads, so they drain like any other — no self-deadlock.
      std::unique_lock<std::mutex> lock(mu_);
      draining_ = true;
      drain_cv_.wait(lock, [this] { return active_runs_ == 0; });
      lock.unlock();
      log(obs::LogLevel::kInfo, "drained")
          .kv("conn", conn.id)
          .kv("req", req.id);
      reply.envelope = bye_envelope(req.id);
      keep_open = false;
      break;
    }
  }
  conn.send(reply.envelope);
  record_request(op, reply.outcome, start);
  std::lock_guard<std::mutex> lock(mu_);
  --in_flight_requests_;
  return keep_open;
}

void Daemon::run_thread(const Request& req, Conn& conn,
                        std::chrono::steady_clock::time_point start) {
  obs::ScopedTraceSpan span("req:run", "request");
  Reply reply;
  try {
    reply = run(req, conn);
  } catch (const std::exception& e) {
    log(obs::LogLevel::kWarn, "run.error")
        .kv("conn", conn.id)
        .kv("req", req.id)
        .kv("error", e.what());
    reply = {error_envelope(req.id, e.what()), "error"};
  }
  record_request("run", reply.outcome, start);
  if (!reply.envelope.empty()) conn.send(reply.envelope);
  std::lock_guard<std::mutex> lock(mu_);
  --in_flight_requests_;
  --active_runs_;
  ++runs_completed_;
  drain_cv_.notify_all();
}

}  // namespace ndp::serve
