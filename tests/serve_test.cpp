// Serving-mode contract (src/serve/): a resident daemon over one warm
// Session whose streamed result envelopes are byte-identical to batch
// `run_sweep` output (the lifecycle half — bad requests, idle timeout,
// drain — runs against both daemons in daemon_lifecycle_test.cpp) — plus
// the distributed-sweep half: `--shard i/N` envelopes recombine through
// merge_sharded_envelopes() into the exact single-process document for the
// checked-in golden grids.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "daemon_harness.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/framing.h"
#include "serve/server.h"
#include "sim/run_config.h"
#include "sim/sweep_runner.h"

namespace ndp {
namespace {

#ifndef NDP_SOURCE_DIR
#error "serve_test needs NDP_SOURCE_DIR (set by CMakeLists.txt)"
#endif

/// Small but non-degenerate grid: two mechanisms and two workloads share
/// images per (cores, seed), and a baseline engages the aggregate block in
/// the envelope.
RunConfig serve_grid() {
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
std::string batch_json(const RunConfig& cfg, unsigned jobs = 1) {
  SweepOptions opts;
  opts.jobs = jobs;
  return to_json(run_sweep(cfg, opts));
}

std::string type_of(const std::string& envelope) {
  return JsonValue::parse(envelope).at("type").as_string();
}

// --- streamed envelopes vs batch --------------------------------------------

TEST(Serve, RunEnvelopeIsByteIdenticalToBatch) {
  const RunConfig cfg = serve_grid();
  const std::string batch = batch_json(cfg);

  serve::ServeOptions opts;
  opts.jobs = 2;
  serve::Server server(opts);
  test::StreamConnection stream(server);
  serve::Client client = stream.client();

  std::size_t cells_seen = 0, total_seen = 0;
  const std::string envelope =
      client.run("r1", cfg, /*jobs=*/0, [&](std::size_t done,
                                            std::size_t total) {
        cells_seen = done;
        total_seen = total;
      });
  EXPECT_EQ(8u, cells_seen);   // every cell streamed before "done"
  EXPECT_EQ(8u, total_seen);
  EXPECT_EQ(batch, envelope);  // byte-identical, despite jobs=2 + streaming

  // A second identical run rides the warm Session: same bytes again, and
  // the stats request shows restores instead of builds.
  EXPECT_EQ(batch, client.run("r2", cfg));
  const std::string stats =
      client.roundtrip(serve::simple_request_line("stats", "s1"));
  const JsonValue parsed = JsonValue::parse(stats);
  EXPECT_EQ("stats", parsed.at("type").as_string());
  EXPECT_EQ("s1", parsed.at("id").as_string());
  const JsonValue& session = parsed.at("session");
  EXPECT_GT(session.at("image_hits").as_u64(), 0u);
  EXPECT_GT(session.at("resident_bytes").as_u64(), 0u);

  EXPECT_EQ("bye",
            type_of(client.roundtrip(serve::simple_request_line("shutdown",
                                                                "z1"))));
}

// --- metrics wire op --------------------------------------------------------

TEST(Serve, MetricsOpReturnsPrometheusTextWithRequestLatencies) {
  serve::Server server;
  test::StreamConnection stream(server);
  serve::Client client = stream.client();

  // Populate the request metrics through the daemon itself: one run, one
  // status ping, one malformed line (which must also be counted).
  const RunConfig cfg = serve_grid();
  client.run("m-run", cfg);
  client.roundtrip(serve::simple_request_line("status", "m-ping"));
  ASSERT_TRUE(client.send("not json"));
  std::string discard;
  ASSERT_EQ(serve::LineReader::Status::kLine, client.next(discard));

  const std::string reply =
      client.roundtrip(serve::simple_request_line("metrics", "mx"));
  const JsonValue parsed = JsonValue::parse(reply);
  EXPECT_EQ("metrics", parsed.at("type").as_string());
  EXPECT_EQ("mx", parsed.at("id").as_string());
  const std::string text = parsed.at("text").as_string();

  // Prometheus text exposition: request counters by op and outcome (the
  // registry is process-wide, so values are cumulative across tests —
  // presence plus the histogram count checks below are the stable
  // assertions)…
  EXPECT_NE(std::string::npos,
            text.find("# TYPE ndpsim_requests_total counter"));
  EXPECT_NE(std::string::npos,
            text.find("ndpsim_requests_total{op=\"run\",outcome=\"ok\"}"));
  EXPECT_NE(
      std::string::npos,
      text.find("ndpsim_requests_total{op=\"invalid\",outcome=\"error\"}"));
  // …the request-latency histogram with labeled buckets…
  EXPECT_NE(std::string::npos,
            text.find("# TYPE ndpsim_request_latency_seconds histogram"));
  EXPECT_NE(std::string::npos,
            text.find("ndpsim_request_latency_seconds_bucket{op=\"run\","
                      "le=\"+Inf\"}"));
  EXPECT_NE(std::string::npos,
            text.find("ndpsim_request_latency_seconds_count{op=\"status\"}"));
  // …and the connection/session instrumentation around it.
  EXPECT_NE(std::string::npos, text.find("ndpsim_active_connections"));
  EXPECT_NE(std::string::npos, text.find("ndpsim_session_runs_total"));
  EXPECT_NE(std::string::npos, text.find("ndpsim_bytes_written_total"));

  // The histogram handles the daemon populated are reachable in-process;
  // both ops must have nonzero observation counts by now.
  EXPECT_GT(obs::Metrics::instance()
                .histogram("ndpsim_request_latency_seconds", "", "op=\"run\"")
                .count(),
            0u);
  EXPECT_GT(
      obs::Metrics::instance()
          .histogram("ndpsim_request_latency_seconds", "", "op=\"status\"")
          .count(),
      0u);

  EXPECT_EQ("bye",
            type_of(client.roundtrip(serve::simple_request_line("shutdown",
                                                                "z"))));
}

// --- framing ----------------------------------------------------------------

TEST(Serve, LineReaderReassemblesLinesSplitAnywhere) {
  // Lines from empty to far beyond one read, written in chunks whose
  // boundaries fall anywhere — mid-line, on a newline, several lines at
  // once — must come back whole and in order.
  std::mt19937 rng(7);
  std::vector<std::string> lines;
  std::string wire;
  for (int i = 0; i < 300; ++i) {
    const std::size_t len = i % 50 == 0 ? 100000 + rng() % 50000 : rng() % 300;
    lines.emplace_back(len, static_cast<char>('a' + i % 26));
    wire += lines.back();
    wire += '\n';
  }
  const auto [reader_fd, writer_fd] = test::make_socketpair();
  std::thread writer([&, fd = writer_fd] {
    std::mt19937 chunks(11);
    for (std::size_t off = 0; off < wire.size();) {
      const std::size_t n = std::min<std::size_t>(1 + chunks() % 9000,
                                                  wire.size() - off);
      const ssize_t w = ::write(fd, wire.data() + off, n);
      ASSERT_GT(w, 0);
      off += static_cast<std::size_t>(w);
    }
    ::close(fd);
  });
  serve::LineReader reader(reader_fd);
  std::vector<std::string> got;
  std::string line;
  serve::LineReader::Status status;
  while ((status = reader.next(line, 30000)) ==
         serve::LineReader::Status::kLine)
    got.push_back(line);
  writer.join();
  ::close(reader_fd);
  EXPECT_EQ(serve::LineReader::Status::kEof, status);
  ASSERT_EQ(lines.size(), got.size());
  for (std::size_t i = 0; i < lines.size(); ++i)
    ASSERT_TRUE(lines[i] == got[i]) << "line " << i << " differs";
}

// --- concurrency + graceful shutdown ----------------------------------------

TEST(Serve, ConcurrentClientsShareOneWarmSession) {
  serve::ServeOptions opts;
  opts.jobs = 2;
  serve::Server server(opts);
  const std::uint16_t port = server.start();
  ASSERT_GT(port, 0u);

  const RunConfig cfg = serve_grid();
  const std::string batch = batch_json(cfg);

  std::vector<std::string> envelopes(2);
  std::vector<std::thread> clients;
  for (int i = 0; i < 2; ++i) {
    clients.emplace_back([&, i] {
      serve::Client c = serve::Client::connect("127.0.0.1", port);
      envelopes[i] = c.run("c" + std::to_string(i), cfg);
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(batch, envelopes[0]);
  EXPECT_EQ(batch, envelopes[1]);
  // 16 cells total but only 4 distinct images: the shared Session must have
  // served hits across the two connections.
  EXPECT_GT(server.session().stats().image_hits, 0u);

  serve::Client closer = serve::Client::connect("127.0.0.1", port);
  EXPECT_EQ("bye",
            type_of(closer.roundtrip(serve::simple_request_line("shutdown",
                                                                "zz"))));
  server.wait();
}

TEST(Serve, CancelStopsARunWithATerminalEnvelope) {
  serve::ServeOptions opts;
  opts.jobs = 1;
  serve::Server server(opts);
  const std::uint16_t port = server.start();

  RunConfig cfg = serve_grid();
  cfg.instructions = 40000;  // long enough that the cancel usually lands

  serve::Client a = serve::Client::connect("127.0.0.1", port);
  ASSERT_TRUE(a.send(serve::run_request_line("victim", cfg)));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  serve::Client b = serve::Client::connect("127.0.0.1", port);
  const std::string ack =
      b.roundtrip(serve::cancel_request_line("killer", "victim"));
  // "ok" when the cancel caught the run; "error" if the run already ended
  // (scheduling-dependent) — both leave the daemon healthy.
  EXPECT_TRUE(type_of(ack) == "ok" || type_of(ack) == "error");

  // Either way the victim's stream ends in exactly one terminal envelope.
  std::string line, terminal;
  while (a.next(line, 30000) == serve::LineReader::Status::kLine) {
    const std::string type = type_of(line);
    if (type == "cancelled" || type == "done") {
      terminal = type;
      break;
    }
    ASSERT_EQ("cell", type);
  }
  EXPECT_TRUE(terminal == "cancelled" || terminal == "done") << terminal;
  if (terminal == "cancelled") {
    const JsonValue v = JsonValue::parse(line);
    EXPECT_LT(v.at("completed").as_u64(), v.at("total").as_u64());
  }

  EXPECT_EQ("bye",
            type_of(b.roundtrip(serve::simple_request_line("shutdown",
                                                           "z"))));
  server.wait();
}

// --- sharded sweeps ---------------------------------------------------------

/// One golden grid, budget-reduced the way the golden suite does it so the
/// full three-shard A/B stays fast.
RunConfig golden_grid(const char* file) {
  RunConfig cfg = RunConfig::load(std::string(NDP_SOURCE_DIR) + "/" + file);
  cfg.instructions = 2000;
  cfg.warmup = 150;
  cfg.scale = 0.015625;
  return cfg;
}

void expect_shard_merge_identity(const RunConfig& cfg) {
  SweepOptions opts;
  opts.jobs = 2;
  const std::string unsharded = to_json(run_sweep(cfg, opts));

  std::vector<std::string> envelopes;
  for (unsigned i = 0; i < 3; ++i) {
    SweepOptions shard_opts = opts;
    shard_opts.shard_index = i;
    shard_opts.shard_count = 3;
    envelopes.push_back(to_json(run_sweep(cfg, shard_opts)));
    // The slice serializes provenance instead of an aggregate.
    EXPECT_NE(std::string::npos, envelopes.back().find("\"shard\":"));
    EXPECT_EQ(std::string::npos, envelopes.back().find("\"aggregate\":"));
  }
  // Any input order merges to the same bytes as the single-process run.
  std::swap(envelopes[0], envelopes[2]);
  EXPECT_EQ(unsharded, merge_sharded_envelopes(envelopes));
}

TEST(ShardMerge, CiSmokeThreeWayMergeIsByteIdentical) {
  expect_shard_merge_identity(golden_grid("experiments/ci_smoke.json"));
}

TEST(ShardMerge, AblationEchWaysThreeWayMergeIsByteIdentical) {
  expect_shard_merge_identity(
      golden_grid("experiments/ablation_ech_ways.json"));
}

TEST(ShardMerge, RejectsIncompleteAndMismatchedShardSets) {
  const RunConfig cfg = serve_grid();
  SweepOptions opts;
  std::vector<std::string> shards;
  for (unsigned i = 0; i < 2; ++i) {
    SweepOptions so = opts;
    so.shard_index = i;
    so.shard_count = 2;
    shards.push_back(to_json(run_sweep(cfg, so)));
  }

  // A complete, correct set merges.
  EXPECT_NO_THROW(merge_sharded_envelopes(shards));

  // Missing shard: only 1 of 2.
  EXPECT_THROW(merge_sharded_envelopes({shards[0]}), std::invalid_argument);
  // Duplicated shard.
  EXPECT_THROW(merge_sharded_envelopes({shards[0], shards[0]}),
               std::invalid_argument);
  // Unsharded envelope (no "shard" block) is not mergeable input.
  EXPECT_THROW(merge_sharded_envelopes({to_json(run_sweep(cfg, opts))}),
               std::invalid_argument);

  // A shard of a *different* grid: detected, not silently spliced.
  RunConfig other = cfg;
  other.name = "serve_tiny_other";
  SweepOptions so = opts;
  so.shard_index = 1;
  so.shard_count = 2;
  EXPECT_THROW(
      merge_sharded_envelopes({shards[0], to_json(run_sweep(other, so))}),
      std::invalid_argument);
}

}  // namespace
}  // namespace ndp
