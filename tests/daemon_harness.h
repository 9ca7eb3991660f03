// In-process daemon topologies shared by the serve, fleet and daemon
// lifecycle suites: socketpair connections served on background threads,
// so no TCP is involved.
#pragma once

#include <sys/socket.h>
#include <unistd.h>

#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fleet/worker.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/server.h"

namespace ndp::test {

inline std::pair<int, int> make_socketpair() {
  int sv[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0)
    throw std::runtime_error("socketpair failed");
  return {sv[0], sv[1]};
}

/// One connection to `daemon` over a socketpair, served on a background
/// serve_stream thread — the --stdio topology.
class StreamConnection {
 public:
  explicit StreamConnection(serve::Daemon& daemon) : daemon_(daemon) {
    const auto [client_end, daemon_end] = make_socketpair();
    client_fd_ = client_end;
    daemon_fd_ = daemon_end;
    thread_ = std::thread(
        [this] { daemon_.serve_stream(daemon_fd_, daemon_fd_); });
  }

  ~StreamConnection() {
    daemon_.request_shutdown();
    thread_.join();
    ::close(daemon_fd_);
  }

  StreamConnection(const StreamConnection&) = delete;
  StreamConnection& operator=(const StreamConnection&) = delete;

  /// A Client owning the peer end (call once).
  serve::Client client() {
    return serve::Client(client_fd_, client_fd_, /*own_fds=*/true);
  }

 private:
  serve::Daemon& daemon_;
  int client_fd_ = -1;
  int daemon_fd_ = -1;
  std::thread thread_;
};

/// An in-process worker daemon reachable through WorkerOptions.connect_fn:
/// each connect hands the coordinator one end of a fresh socketpair and
/// serves the other end on a background serve_stream thread — the fleet
/// topology with no TCP involved.
class InProcessWorker {
 public:
  explicit InProcessWorker(serve::ServeOptions opts = {}) : server_(opts) {}

  ~InProcessWorker() {
    server_.request_shutdown();
    std::lock_guard<std::mutex> lock(mu_);
    for (std::thread& t : threads_)
      if (t.joinable()) t.join();
  }

  InProcessWorker(const InProcessWorker&) = delete;
  InProcessWorker& operator=(const InProcessWorker&) = delete;

  fleet::WorkerOptions options(const std::string& label) {
    fleet::WorkerOptions w;
    w.label = label;
    w.connect_retries = 0;
    w.connect_fn = [this] {
      const auto [coord_end, worker_end] = make_socketpair();
      std::lock_guard<std::mutex> lock(mu_);
      threads_.emplace_back([this, fd = worker_end] {
        server_.serve_stream(fd, fd);
        ::close(fd);
      });
      return std::pair<int, int>{coord_end, coord_end};
    };
    return w;
  }

  serve::Server& server() { return server_; }

 private:
  serve::Server server_;
  std::mutex mu_;
  std::vector<std::thread> threads_;
};

}  // namespace ndp::test
