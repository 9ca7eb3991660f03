// Lifecycle contract of the daemon scaffold (src/serve/daemon.h), run
// against both daemons built on it: a worker Server, and a Coordinator over
// two in-process workers. Either one survives malformed and invalid
// requests, closes idle connections, drains in-flight runs on shutdown,
// answers a status sent mid-run on the run's own connection before that
// run ends, and gives back the thread of every connection that closes.
#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "daemon_harness.h"
#include "fleet/coordinator.h"
#include "serve/client.h"
#include "serve/server.h"
#include "sim/run_config.h"
#include "sim/sweep_runner.h"

namespace ndp {
namespace {

/// Small but non-degenerate grid: 8 cells, image sharing in play, and a
/// baseline that engages the aggregate block in the envelope.
RunConfig lifecycle_grid() {
  return RunConfig::from_json(R"json({
    "name": "serve_tiny",
    "mechanisms": ["radix", "ndpage"],
    "workloads": ["RND", "PR"],
    "cores": [1, 2],
    "instructions": 2000,
    "warmup": 150,
    "scale": 0.015625,
    "baseline": "radix"
  })json");
}

/// What a batch `ndpsim --config` run serializes for this grid.
std::string batch_json(const RunConfig& cfg) {
  SweepOptions opts;
  opts.jobs = 1;
  return to_json(run_sweep(cfg, opts));
}

std::string type_of(const std::string& envelope) {
  return JsonValue::parse(envelope).at("type").as_string();
}

/// One numeric field of /proc/self/status: "VmSize:" (kB), "Threads:".
long proc_status(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string key;
  long value = 0;
  while (in >> key) {
    if (key == field) {
      in >> value;
      return value;
    }
    std::getline(in, key);
  }
  return -1;
}

/// The parameter names the daemon under test: "Server" or "Coordinator".
class Lifecycle : public ::testing::TestWithParam<std::string> {
 protected:
  /// Build the daemon under test. Runs use one worker thread either way.
  serve::Daemon& daemon(int idle_timeout_ms = -1) {
    if (GetParam() == "Server") {
      serve::ServeOptions opts;
      opts.jobs = 1;
      opts.idle_timeout_ms = idle_timeout_ms;
      daemon_ = std::make_unique<serve::Server>(opts);
    } else {
      fleet::FleetOptions opts;
      opts.jobs = 1;
      opts.idle_timeout_ms = idle_timeout_ms;
      opts.workers.push_back(w0_.options("w0"));
      opts.workers.push_back(w1_.options("w1"));
      daemon_ = std::make_unique<fleet::Coordinator>(std::move(opts));
    }
    return *daemon_;
  }

 private:
  test::InProcessWorker w0_, w1_;  // outlive the coordinator's links
  std::unique_ptr<serve::Daemon> daemon_;
};

TEST_P(Lifecycle, MalformedAndInvalidRequestsDontKillTheDaemon) {
  test::StreamConnection stream(daemon());
  serve::Client client = stream.client();

  // Not JSON at all: one error envelope (with the parser's position), and
  // the connection stays up.
  ASSERT_TRUE(client.send("this is not json"));
  std::string reply;
  ASSERT_EQ(serve::LineReader::Status::kLine, client.next(reply));
  EXPECT_EQ("error", type_of(reply));

  // Valid JSON, unknown op.
  ASSERT_TRUE(client.send(R"({"op":"frobnicate","id":"q"})"));
  ASSERT_EQ(serve::LineReader::Status::kLine, client.next(reply));
  EXPECT_EQ("error", type_of(reply));
  EXPECT_EQ("q", JsonValue::parse(reply).at("id").as_string());

  // A run naming an unregistered mechanism: the RunConfig validator's
  // message comes back as an error envelope; nothing ran.
  ASSERT_TRUE(client.send(
      R"({"op":"run","id":"bad","config":{"mechanisms":["nonsense"]}})"));
  ASSERT_EQ(serve::LineReader::Status::kLine, client.next(reply));
  EXPECT_EQ("error", type_of(reply));
  EXPECT_NE(std::string::npos,
            JsonValue::parse(reply).at("error").as_string().find("nonsense"));

  // After all that abuse, a real run still works and still matches batch.
  const RunConfig cfg = lifecycle_grid();
  EXPECT_EQ(batch_json(cfg), client.run("good", cfg));

  EXPECT_EQ("bye",
            type_of(client.roundtrip(serve::simple_request_line("shutdown",
                                                                "z"))));
}

TEST_P(Lifecycle, IdleTimeoutClosesTheConnection) {
  test::StreamConnection stream(daemon(/*idle_timeout_ms=*/50));
  serve::Client client = stream.client();

  // Send nothing; the daemon gives up on us with an error envelope and
  // closes its end.
  std::string reply;
  ASSERT_EQ(serve::LineReader::Status::kLine, client.next(reply, 5000));
  EXPECT_EQ("error", type_of(reply));
  EXPECT_EQ(serve::LineReader::Status::kEof, client.next(reply, 5000));
}

TEST_P(Lifecycle, ShutdownDrainsInFlightRuns) {
  serve::Daemon& d = daemon();
  const std::uint16_t port = d.start();

  const RunConfig cfg = lifecycle_grid();
  const std::string batch = batch_json(cfg);

  // Client A submits and reads nothing yet; client B orders a shutdown
  // while A's run is (very likely) still in flight. The drain contract:
  // A's run completes and streams everything, whenever the shutdown lands.
  serve::Client a = serve::Client::connect("127.0.0.1", port);
  ASSERT_TRUE(a.send(serve::run_request_line("inflight", cfg)));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  serve::Client b = serve::Client::connect("127.0.0.1", port);
  EXPECT_EQ("bye",
            type_of(b.roundtrip(serve::simple_request_line("shutdown",
                                                           "drain"))));

  // A still gets its full stream: 8 cell envelopes, then the byte-exact
  // terminal document.
  std::string line;
  std::size_t cells = 0;
  std::string done_envelope;
  while (a.next(line, 30000) == serve::LineReader::Status::kLine) {
    const std::string type = type_of(line);
    if (type == "cell") ++cells;
    if (type == "done") {
      done_envelope = std::string(raw_member(line, "envelope"));
      break;
    }
    ASSERT_NE("error", type);
    ASSERT_NE("cancelled", type);
  }
  EXPECT_EQ(8u, cells);
  EXPECT_EQ(batch, done_envelope);
  d.wait();
}

TEST_P(Lifecycle, StatusMidRunIsAnsweredBeforeThatRunsDone) {
  test::StreamConnection stream(daemon());
  serve::Client client = stream.client();

  RunConfig cfg = lifecycle_grid();
  cfg.instructions = 40000;  // long enough that the status lands mid-run

  // Both lines go down the one connection before any reply is read: the
  // run must not hold up the quick op queued behind it.
  ASSERT_TRUE(client.send(serve::run_request_line("long", cfg)));
  ASSERT_TRUE(client.send(serve::simple_request_line("status", "mid")));

  std::vector<std::string> replies;  // non-cell frames, in arrival order
  std::string line;
  while (client.next(line, 60000) == serve::LineReader::Status::kLine) {
    const JsonValue frame = JsonValue::parse(line);
    const std::string type = frame.at("type").as_string();
    if (type == "cell") continue;
    replies.push_back(type);
    if (type == "status") {
      EXPECT_EQ(1u, frame.at("active_runs").as_u64());
      EXPECT_EQ(2u, frame.at("in_flight_requests").as_u64());
    }
    if (type != "status") break;
  }
  EXPECT_EQ((std::vector<std::string>{"status", "done"}), replies);

  EXPECT_EQ("bye",
            type_of(client.roundtrip(serve::simple_request_line("shutdown",
                                                                "z"))));
}

TEST_P(Lifecycle, ClosedConnectionsGiveBackTheirThreads) {
  serve::Daemon& d = daemon();
  const std::uint16_t port = d.start();
  const long idle_threads = proc_status("Threads:");
  // One connection at a time, each reader gone before the next connects:
  // the allocator then reuses one per-thread arena (64 MB of address space
  // each) instead of adding one whenever two readers happen to overlap, so
  // VmSize moves only with the reader stacks themselves.
  const auto cycle = [&] {
    {
      serve::Client c = serve::Client::connect("127.0.0.1", port);
      EXPECT_EQ("status", type_of(c.roundtrip(
                              serve::simple_request_line("status", "s"))));
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (proc_status("Threads:") > idle_threads &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };

  // Each reader has its own stack (8 MB of address space by default), so
  // 200 readers left unjoined would add ~1.6 GB.
  for (int i = 0; i < 5; ++i) cycle();
  const long before = proc_status("VmSize:");
  for (int i = 0; i < 200; ++i) cycle();
  const long grown_kb = proc_status("VmSize:") - before;
  EXPECT_LT(grown_kb, 100 * 1024) << "VmSize grew " << grown_kb << " kB";

  serve::Client closer = serve::Client::connect("127.0.0.1", port);
  EXPECT_EQ("bye", type_of(closer.roundtrip(
                       serve::simple_request_line("shutdown", "z"))));
  d.wait();
}

INSTANTIATE_TEST_SUITE_P(Serve, Lifecycle,
                         ::testing::Values("Server", "Coordinator"),
                         [](const ::testing::TestParamInfo<std::string>& p) {
                           return p.param;
                         });

}  // namespace
}  // namespace ndp
