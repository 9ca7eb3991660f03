#include "serve/server.h"

#include <chrono>
#include <condition_variable>
#include <thread>

#include "obs/log.h"
#include "sim/sweep_runner.h"

namespace ndp::serve {

namespace {

/// Cells of the full `total`-cell grid that land in shard `index` of
/// `count` under round-robin slicing — the denominator for this request's
/// cell stream and cancelled envelope.
std::size_t shard_cell_count(std::size_t total, unsigned index,
                             unsigned count) {
  if (total <= index) return 0;
  return (total - index + count - 1) / count;
}

/// The per-request deadline: sets `cancel` once `timeout_ms` passes (<= 0 =
/// never), unless destroyed first. The pool then stops claiming cells and
/// the client gets a "cancelled" terminal envelope.
class Watchdog {
 public:
  Watchdog(int timeout_ms, std::atomic<bool>& cancel) {
    if (timeout_ms <= 0) return;
    thread_ = std::thread([this, timeout_ms, &cancel] {
      std::unique_lock<std::mutex> lock(mu_);
      if (!cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                        [this] { return done_; }))
        cancel.store(true);
    });
  }

  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

}  // namespace

Server::Server(ServeOptions opts)
    : Daemon("serve", "server", opts.port, opts.max_connections,
             opts.idle_timeout_ms),
      opts_(opts),
      session_(opts.session) {}

Server::~Server() {
  // Connection and run threads use the Session: stop them before it goes.
  request_shutdown();
  wait();
}

Daemon::Reply Server::handle_op(const Request& req, std::uint64_t conn_id) {
  if (req.op == Request::Op::kStats)
    return {stats_envelope(req.id, session_.stats())};
  std::shared_ptr<std::atomic<bool>> target;  // kCancel
  {
    std::lock_guard<std::mutex> lock(runs_mu_);
    auto it = runs_.find(req.target);
    if (it != runs_.end()) target = it->second;
  }
  if (!target) {
    obs::log(obs::LogLevel::kWarn, "serve.cancel.miss")
        .kv("conn", conn_id)
        .kv("req", req.id)
        .kv("target", req.target);
    return {error_envelope(req.id,
                           "no active run with id \"" + req.target + '"'),
            "error"};
  }
  target->store(true);
  obs::log(obs::LogLevel::kInfo, "serve.cancel")
      .kv("conn", conn_id)
      .kv("req", req.id)
      .kv("target", req.target);
  return {ok_envelope(req.id)};
}

Daemon::Reply Server::run(const Request& req, Conn& conn) {
  auto cancel = std::make_shared<std::atomic<bool>>(false);
  if (!req.id.empty()) {
    std::lock_guard<std::mutex> lock(runs_mu_);
    if (!runs_.emplace(req.id, cancel).second) {
      obs::log(obs::LogLevel::kWarn, "serve.run.duplicate")
          .kv("conn", conn.id)
          .kv("req", req.id);
      return {error_envelope(req.id, "a run with id \"" + req.id +
                                         "\" is already active"),
              "error"};
    }
  }
  // Registered runs leave the cancel table on every exit path.
  struct Unregister {
    Server& server;
    const std::string& id;
    ~Unregister() {
      std::lock_guard<std::mutex> lock(server.runs_mu_);
      server.runs_.erase(id);
    }
  } unregister{*this, req.id};

  // The denominator this request streams against: its shard's cell count,
  // which is the whole grid when shard_count is 1.
  const std::size_t total = shard_cell_count(
      req.config.expand().size(), req.shard_index, req.shard_count);
  SweepOptions opts;
  opts.jobs = req.jobs ? req.jobs : opts_.jobs;
  opts.session = &session_;
  opts.cancel = cancel.get();
  opts.shard_index = req.shard_index;
  opts.shard_count = req.shard_count;
  obs::log(obs::LogLevel::kInfo, "serve.run.start")
      .kv("conn", conn.id)
      .kv("req", req.id)
      .kv("cells", total)
      .kv("shard_index", req.shard_index)
      .kv("shard_count", req.shard_count)
      .kv("jobs", opts.jobs);

  // Stream each cell the moment it completes (the callback is serialized
  // by run_sweep's lock, so lines never interleave). A dead client just
  // turns writes into no-ops; the run finishes for the Session's benefit.
  std::size_t completed = 0;
  bool write_failed = false;
  opts.cell_done = [&](std::size_t index, const SweepCell& cell) {
    ++completed;
    if (!send_cell(conn, cell_envelope(req.id, index, total, cell)))
      write_failed = true;
  };
  SweepResults results;
  {
    Watchdog deadline(opts_.request_timeout_ms, *cancel);
    results = run_sweep(req.config, opts);
  }

  if (completed < total) {
    obs::log(obs::LogLevel::kInfo, "serve.run.cancelled")
        .kv("conn", conn.id)
        .kv("req", req.id)
        .kv("completed", completed)
        .kv("total", total);
    return {cancelled_envelope(req.id, completed, total), "cancelled"};
  }
  if (write_failed) {
    obs::log(obs::LogLevel::kWarn, "serve.run.client_gone")
        .kv("conn", conn.id)
        .kv("req", req.id)
        .kv("cells", total);
    return {"", "ok"};
  }
  obs::log(obs::LogLevel::kInfo, "serve.run.done")
      .kv("conn", conn.id)
      .kv("req", req.id)
      .kv("cells", total);
  return {done_envelope(req.id, results)};
}

}  // namespace ndp::serve
