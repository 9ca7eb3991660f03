// Fleet-mode contract (src/fleet/): a coordinator sharding grids across
// worker daemons must stream documents byte-identical to single-process
// batch — including after a worker dies mid-run and its shard fails over —
// answer repeated grids from the digest-keyed result cache, and surface a
// merge rejection as an error instead of corrupt bytes. Plus the satellite
// contracts this PR rode in with: daemon connection multiplexing, the
// enriched status envelope, and client connect retries.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "daemon_harness.h"
#include "fleet/coordinator.h"
#include "fleet/worker.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/framing.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "sim/run_config.h"
#include "sim/sweep_runner.h"

namespace ndp {
namespace {

#ifndef NDP_SOURCE_DIR
#error "fleet_test needs NDP_SOURCE_DIR (set by CMakeLists.txt)"
#endif

/// Same small-but-non-degenerate grid the serve suite pins: 8 cells, image
/// sharing in play, baseline aggregate in the envelope.
RunConfig fleet_grid() {
  return RunConfig::from_json(R"json({
    "name": "fleet_tiny",
    "mechanisms": ["radix", "ndpage"],
    "workloads": ["RND", "PR"],
    "cores": [1, 2],
    "instructions": 2000,
    "warmup": 150,
    "scale": 0.015625,
    "baseline": "radix"
  })json");
}

/// One golden grid, budget-reduced the way the golden suite does it.
RunConfig golden_grid(const char* file) {
  RunConfig cfg = RunConfig::load(std::string(NDP_SOURCE_DIR) + "/" + file);
  cfg.instructions = 2000;
  cfg.warmup = 150;
  cfg.scale = 0.015625;
  return cfg;
}

std::string batch_json(const RunConfig& cfg, unsigned jobs = 1) {
  SweepOptions opts;
  opts.jobs = jobs;
  return to_json(run_sweep(cfg, opts));
}

std::string type_of(const std::string& envelope) {
  return JsonValue::parse(envelope).at("type").as_string();
}

using test::InProcessWorker;
using test::make_socketpair;

/// A worker that connects fine, then drops the link as soon as a run
/// request arrives — after streaming one bogus cell frame, so failover
/// dedup is exercised too. Reconnects are refused: once dead, stays dead.
fleet::WorkerOptions dying_worker(std::vector<std::thread>& threads,
                                  std::mutex& threads_mu) {
  fleet::WorkerOptions w;
  w.label = "dying";
  w.connect_retries = 0;
  w.connect_fn = [&threads, &threads_mu,
                  connects = std::make_shared<std::atomic<int>>(0)] {
    if (connects->fetch_add(1) > 0)
      throw std::runtime_error("worker host is gone");
    const auto [coord_end, worker_end] = make_socketpair();
    std::lock_guard<std::mutex> lock(threads_mu);
    threads.emplace_back([fd = worker_end] {
      serve::LineReader reader(fd);
      std::string line;
      while (reader.next(line) == serve::LineReader::Status::kLine) {
        const JsonValue req = JsonValue::parse(line);
        if (req.at("op").as_string() != "run") continue;
        // One cell frame a healthy shard 0 would have produced first, then
        // the "crash": the coordinator must both dedupe this index against
        // the failover re-run and keep the final document byte-identical.
        serve::write_line(fd, serve::cell_envelope_raw(
                                  req.at("id").as_string(), 0, 3,
                                  R"({"fake":"pre-crash cell"})"));
        break;
      }
      ::close(fd);
    });
    return std::pair<int, int>{coord_end, coord_end};
  };
  return w;
}

/// A worker whose "done" envelope embeds a document that cannot merge (no
/// shard provenance) — a corrupt or wrong-version worker.
fleet::WorkerOptions evil_worker(std::vector<std::thread>& threads,
                                 std::mutex& threads_mu,
                                 std::string bad_envelope) {
  fleet::WorkerOptions w;
  w.label = "evil";
  w.connect_retries = 0;
  w.connect_fn = [&threads, &threads_mu,
                  bad = std::move(bad_envelope)] {
    const auto [coord_end, worker_end] = make_socketpair();
    std::lock_guard<std::mutex> lock(threads_mu);
    threads.emplace_back([fd = worker_end, bad] {
      serve::LineReader reader(fd);
      std::string line;
      while (reader.next(line) == serve::LineReader::Status::kLine) {
        const JsonValue req = JsonValue::parse(line);
        if (req.at("op").as_string() != "run") continue;
        serve::write_line(
            fd, serve::done_envelope_raw(req.at("id").as_string(), 0, bad));
      }
      ::close(fd);
    });
    return std::pair<int, int>{coord_end, coord_end};
  };
  return w;
}

// --- fan-out byte-identity --------------------------------------------------

TEST(Fleet, ThreeWorkerRunIsByteIdenticalToBatchOnGoldenGrids) {
  InProcessWorker w0, w1, w2;
  fleet::FleetOptions fopts;
  fopts.workers.push_back(w0.options("w0"));
  fopts.workers.push_back(w1.options("w1"));
  fopts.workers.push_back(w2.options("w2"));
  fopts.cache = false;  // identity is the subject here, not caching
  fleet::Coordinator coordinator(std::move(fopts));

  for (const char* file :
       {"experiments/ci_smoke.json", "experiments/ablation_ech_ways.json"}) {
    const RunConfig cfg = golden_grid(file);
    const std::string batch = batch_json(cfg);

    std::mutex mu;
    std::set<std::size_t> seen;
    std::size_t total_seen = 0;
    const fleet::Coordinator::RunOutcome out = coordinator.run_grid(
        cfg, /*use_cache=*/true, /*jobs=*/1,
        [&](std::size_t index, std::size_t total, std::string_view) {
          std::lock_guard<std::mutex> lock(mu);
          EXPECT_TRUE(seen.insert(index).second) << "cell " << index
                                                 << " forwarded twice";
          total_seen = total;
        });

    EXPECT_EQ(batch, out.envelope) << file;  // byte-identical to batch
    EXPECT_FALSE(out.cache_hit);
    EXPECT_EQ(out.cells, seen.size());  // every cell forwarded exactly once
    EXPECT_EQ(out.cells, total_seen);
  }
}

TEST(Fleet, ClientStreamThroughCoordinatorMatchesBatch) {
  InProcessWorker w0, w1;
  fleet::FleetOptions fopts;
  fopts.workers.push_back(w0.options("w0"));
  fopts.workers.push_back(w1.options("w1"));
  fleet::Coordinator coordinator(std::move(fopts));

  const auto [client_end, coord_end] = make_socketpair();
  std::thread conn([&coordinator, fd = coord_end] {
    coordinator.serve_stream(fd, fd);
    ::close(fd);
  });
  serve::Client client(client_end, client_end, /*own_fds=*/true);

  const RunConfig cfg = fleet_grid();
  std::size_t cells_seen = 0;
  const std::string envelope = client.run(
      "f1", cfg, /*jobs=*/0,
      [&](std::size_t done, std::size_t) { cells_seen = done; });
  EXPECT_EQ(batch_json(cfg), envelope);
  EXPECT_EQ(8u, cells_seen);

  // The coordinator's status envelope: role, protocol, per-worker health,
  // cache stats.
  const JsonValue status = JsonValue::parse(
      client.roundtrip(serve::simple_request_line("status", "st")));
  EXPECT_EQ("status", status.at("type").as_string());
  EXPECT_EQ("coordinator", status.at("role").as_string());
  EXPECT_EQ(serve::kProtocolVersion, status.at("protocol_version").as_u64());
  EXPECT_EQ(2u, status.at("workers").array().size());
  for (const JsonValue& worker : status.at("workers").array())
    EXPECT_TRUE(worker.at("up").as_bool()) << worker.at("worker").as_string();
  EXPECT_EQ(1u, status.at("cache").at("entries").as_u64());

  EXPECT_EQ("bye", type_of(client.roundtrip(
                       serve::simple_request_line("shutdown", "z"))));
  conn.join();
  coordinator.wait();
}

// --- failover ---------------------------------------------------------------

TEST(Fleet, WorkerDeathMidRunFailsOverWithIdenticalBytes) {
  obs::Counter& failovers = obs::Metrics::instance().counter(
      "ndpsim_fleet_failovers_total",
      "Fleet shards re-dispatched after a worker failure");
  const std::uint64_t failovers_before = failovers.value();

  std::vector<std::thread> fake_threads;
  std::mutex fake_mu;
  InProcessWorker w1, w2;
  fleet::FleetOptions fopts;
  // The dying worker is live at dispatch, so the run fans out as 3 shards
  // of 3; its shard must be re-run by a survivor as the same shard of the
  // ORIGINAL 3 for the merge to reproduce batch bytes.
  fopts.workers.push_back(dying_worker(fake_threads, fake_mu));
  fopts.workers.push_back(w1.options("w1"));
  fopts.workers.push_back(w2.options("w2"));
  fopts.cache = false;
  fleet::Coordinator coordinator(std::move(fopts));

  const RunConfig cfg = fleet_grid();
  std::mutex mu;
  std::set<std::size_t> seen;
  const fleet::Coordinator::RunOutcome out = coordinator.run_grid(
      cfg, /*use_cache=*/true, /*jobs=*/1,
      [&](std::size_t index, std::size_t, std::string_view) {
        std::lock_guard<std::mutex> lock(mu);
        EXPECT_TRUE(seen.insert(index).second)
            << "cell " << index << " forwarded twice across the failover";
      });

  EXPECT_EQ(batch_json(cfg), out.envelope);
  EXPECT_EQ(8u, out.cells);
  EXPECT_EQ(8u, seen.size());
  EXPECT_GT(failovers.value(), failovers_before);

  for (std::thread& t : fake_threads) t.join();
}

TEST(Fleet, NoReachableWorkerIsARuntimeError) {
  fleet::WorkerOptions unreachable;
  unreachable.label = "void";
  unreachable.connect_retries = 0;
  unreachable.connect_fn =
      []() -> std::pair<int, int> { throw std::runtime_error("refused"); };
  fleet::FleetOptions fopts;
  fopts.workers.push_back(std::move(unreachable));
  fleet::Coordinator coordinator(std::move(fopts));
  EXPECT_EQ(0u, coordinator.live_workers());
  EXPECT_THROW(coordinator.run_grid(fleet_grid()), std::runtime_error);
}

// --- result cache -----------------------------------------------------------

TEST(Fleet, ResultCacheHitsRepeatedGridsAndHonoursBypass) {
  obs::Counter& hits = obs::Metrics::instance().counter(
      "ndpsim_fleet_cache_hits_total", "Fleet result-cache hits");
  const std::uint64_t hits_before = hits.value();

  InProcessWorker w0;
  fleet::FleetOptions fopts;
  fopts.workers.push_back(w0.options("w0"));
  fleet::Coordinator coordinator(std::move(fopts));

  const RunConfig cfg = fleet_grid();
  const fleet::Coordinator::RunOutcome cold = coordinator.run_grid(cfg);
  EXPECT_FALSE(cold.cache_hit);

  // Identical grid again: answered from the cache, same bytes, no cells.
  std::size_t cells_streamed = 0;
  const fleet::Coordinator::RunOutcome warm = coordinator.run_grid(
      cfg, /*use_cache=*/true, /*jobs=*/0,
      [&](std::size_t, std::size_t, std::string_view) { ++cells_streamed; });
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(cold.envelope, warm.envelope);
  EXPECT_EQ(cold.cells, warm.cells);
  EXPECT_EQ(0u, cells_streamed);
  EXPECT_GT(hits.value(), hits_before);

  // Output-path / description fields don't shape the document: still a hit.
  RunConfig respelled = cfg;
  respelled.description = "same grid, different paperwork";
  respelled.json_output = "elsewhere.json";
  EXPECT_TRUE(coordinator.run_grid(respelled).cache_hit);
  EXPECT_EQ(fleet::Coordinator::key_of(cfg),
            fleet::Coordinator::key_of(respelled));

  // Anything that shapes the document keys differently.
  RunConfig reshaped = cfg;
  reshaped.seed = cfg.seed + 1;
  EXPECT_NE(fleet::Coordinator::key_of(cfg),
            fleet::Coordinator::key_of(reshaped));

  // The bypass knob skips the lookup: the grid re-runs on the worker.
  const fleet::Coordinator::RunOutcome bypass =
      coordinator.run_grid(cfg, /*use_cache=*/false);
  EXPECT_FALSE(bypass.cache_hit);
  EXPECT_EQ(cold.envelope, bypass.envelope);

  const auto stats = coordinator.cache().stats();
  EXPECT_EQ(1u, stats.entries);
  EXPECT_GE(stats.hits, 2u);
}

// --- merge rejection --------------------------------------------------------

TEST(Fleet, UnmergeableWorkerEnvelopeIsRejectedNotSpliced) {
  std::vector<std::thread> fake_threads;
  std::mutex fake_mu;
  InProcessWorker honest;
  // The evil worker answers its shard with an *unsharded* document — no
  // shard provenance, so merge_sharded_envelopes must refuse it.
  const std::string bad = batch_json(fleet_grid());

  fleet::FleetOptions fopts;
  fopts.workers.push_back(honest.options("honest"));
  fopts.workers.push_back(evil_worker(fake_threads, fake_mu, bad));
  fopts.cache = false;
  {
    fleet::Coordinator coordinator(std::move(fopts));

    EXPECT_THROW(coordinator.run_grid(fleet_grid()), std::invalid_argument);

    // Through the wire the same failure is an error envelope, not bytes.
    const auto [client_end, coord_end] = make_socketpair();
    std::thread conn([&coordinator, fd = coord_end] {
      coordinator.serve_stream(fd, fd);
      ::close(fd);
    });
    serve::Client client(client_end, client_end, /*own_fds=*/true);
    ASSERT_TRUE(client.send(serve::run_request_line("bad", fleet_grid())));
    std::string line;
    std::string terminal;
    while (client.next(line, 30000) == serve::LineReader::Status::kLine) {
      const std::string type = type_of(line);
      if (type != "cell") {
        terminal = type;
        break;
      }
    }
    EXPECT_EQ("error", terminal);
    EXPECT_EQ("bye", type_of(client.roundtrip(
                         serve::simple_request_line("shutdown", "z"))));
    conn.join();
    coordinator.wait();
  }
  // The evil worker only sees EOF once the coordinator's links are torn
  // down, so it can only be reaped after the Coordinator is gone.
  for (std::thread& t : fake_threads) t.join();
}

// --- fleet config parsing ---------------------------------------------------

TEST(Fleet, ParseWorkerEndpointValidatesHostAndPort) {
  const fleet::WorkerOptions w = fleet::parse_worker_endpoint("10.0.0.7:7071");
  EXPECT_EQ("10.0.0.7", w.host);
  EXPECT_EQ(7071u, w.port);

  EXPECT_THROW(fleet::parse_worker_endpoint("no-port"),
               std::invalid_argument);
  EXPECT_THROW(fleet::parse_worker_endpoint("host:"), std::invalid_argument);
  EXPECT_THROW(fleet::parse_worker_endpoint("host:0"), std::invalid_argument);
  EXPECT_THROW(fleet::parse_worker_endpoint("host:99999"),
               std::invalid_argument);
  EXPECT_THROW(fleet::parse_worker_endpoint(":7071"), std::invalid_argument);
}

TEST(Fleet, FleetOptionsFromJsonIsStrict) {
  const fleet::FleetOptions opts = fleet::FleetOptions::from_json(R"json({
    "port": 7080,
    "workers": ["127.0.0.1:7071", "127.0.0.1:7072"],
    "jobs": 2,
    "request_timeout_ms": 30000,
    "connect_retries": 5,
    "cache_capacity": 8
  })json");
  EXPECT_EQ(7080u, opts.port);
  ASSERT_EQ(2u, opts.workers.size());
  EXPECT_EQ(7072u, opts.workers[1].port);
  EXPECT_EQ(5u, opts.workers[0].connect_retries);  // applied to every worker
  EXPECT_EQ(2u, opts.jobs);
  EXPECT_EQ(30000, opts.request_timeout_ms);
  EXPECT_EQ(8u, opts.cache_capacity);

  // Unknown keys are errors, same strictness as experiment configs.
  EXPECT_THROW(fleet::FleetOptions::from_json(
                   R"({"workers":["a:1"],"wrokers":true})"),
               std::invalid_argument);
  // "workers" is required and must be non-empty strings.
  EXPECT_THROW(fleet::FleetOptions::from_json(R"({"port":1})"),
               std::invalid_argument);
  EXPECT_THROW(fleet::FleetOptions::from_json(R"({"workers":[7071]})"),
               std::invalid_argument);
}

// --- satellite: daemon connection multiplexing ------------------------------

TEST(Fleet, DaemonMultiplexesRunsOnOneConnection) {
  serve::ServeOptions opts;
  opts.jobs = 1;
  serve::Server server(opts);
  const std::uint16_t port = server.start();
  serve::Client client = serve::Client::connect("127.0.0.1", port);

  const RunConfig cfg = fleet_grid();
  const std::string batch = batch_json(cfg);

  // Two runs and a status ping down the same socket before reading a
  // single reply: the daemon must execute the runs concurrently and
  // interleave frames by request id, not serialize whole requests.
  ASSERT_TRUE(client.send(serve::run_request_line("mux-a", cfg)));
  ASSERT_TRUE(client.send(serve::run_request_line("mux-b", cfg)));
  ASSERT_TRUE(client.send(serve::simple_request_line("status", "mux-s")));

  std::map<std::string, std::string> done;  // id -> embedded document
  bool status_seen = false;
  std::string line;
  while (done.size() < 2 &&
         client.next(line, 60000) == serve::LineReader::Status::kLine) {
    const JsonValue frame = JsonValue::parse(line);
    const std::string type = frame.at("type").as_string();
    if (type == "status") {
      // The ping answered while both runs were still streaming — proof the
      // connection is multiplexed, plus the satellite status fields.
      status_seen = true;
      EXPECT_EQ(serve::kProtocolVersion,
                frame.at("protocol_version").as_u64());
      // Both runs, plus the status request itself while being answered.
      EXPECT_EQ(3u, frame.at("in_flight_requests").as_u64());
      EXPECT_TRUE(frame.find("uptime_ms") != nullptr);
    } else if (type == "done") {
      done[frame.at("id").as_string()] =
          std::string(raw_member(line, "envelope"));
    } else {
      ASSERT_EQ("cell", type) << line;
    }
  }
  ASSERT_TRUE(status_seen);
  ASSERT_EQ(2u, done.size());
  EXPECT_EQ(batch, done["mux-a"]);
  EXPECT_EQ(batch, done["mux-b"]);

  EXPECT_EQ("bye", type_of(client.roundtrip(
                       serve::simple_request_line("shutdown", "z"))));
  server.wait();
}

// --- satellite: client connect retries --------------------------------------

TEST(Fleet, ClientConnectRetriesUntilTheDaemonAppears) {
  // Reserve a port the kernel considers free, release it, and start the
  // daemon there only after a delay — the client's first attempts see
  // connection-refused and must retry with backoff instead of giving up.
  int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(0, ::bind(probe, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)));
  socklen_t len = sizeof(addr);
  ASSERT_EQ(0, ::getsockname(probe, reinterpret_cast<sockaddr*>(&addr),
                             &len));
  const std::uint16_t port = ntohs(addr.sin_port);
  ::close(probe);

  std::unique_ptr<serve::Server> server;
  std::thread late_start([&server, port] {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    serve::ServeOptions opts;
    opts.port = port;
    server = std::make_unique<serve::Server>(opts);
    server->start();
  });

  serve::ConnectRetry retry;
  retry.retries = 40;
  retry.backoff_ms = 50;
  retry.backoff_max_ms = 200;
  serve::Client client = serve::Client::connect("127.0.0.1", port, retry);
  const JsonValue status = JsonValue::parse(
      client.roundtrip(serve::simple_request_line("status", "hi")));
  EXPECT_EQ("status", status.at("type").as_string());
  EXPECT_EQ("bye", type_of(client.roundtrip(
                       serve::simple_request_line("shutdown", "z"))));
  late_start.join();
  server->wait();
}

TEST(Fleet, ClientConnectWithoutRetriesFailsFast) {
  // A port nothing listens on: reserve one, close it, dial it.
  int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(0, ::bind(probe, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)));
  socklen_t len = sizeof(addr);
  ASSERT_EQ(0, ::getsockname(probe, reinterpret_cast<sockaddr*>(&addr),
                             &len));
  const std::uint16_t port = ntohs(addr.sin_port);
  ::close(probe);

  EXPECT_THROW(serve::Client::connect("127.0.0.1", port),
               std::runtime_error);
  serve::ConnectRetry retry;
  retry.retries = 2;
  retry.backoff_ms = 10;
  EXPECT_THROW(serve::Client::connect("127.0.0.1", port, retry),
               std::runtime_error);
}

}  // namespace
}  // namespace ndp
