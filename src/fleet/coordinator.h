// Fleet mode: a coordinator daemon that scales the serve layer across N
// worker daemons while preserving the byte-identity contract every tier
// already pins (served == batch == merged shards).
//
// Topology:
//
//   client ──run──▶ coordinator ──shard 0/N──▶ worker daemon A
//                       │       ──shard 1/N──▶ worker daemon B
//                       │       ──shard 2/N──▶ worker daemon C
//                       ◀─cells/done── (merged via merge_sharded_envelopes)
//
// The coordinator speaks the same wire protocol as a worker
// (serve/protocol.h) on both sides. A client `run` is sliced round-robin
// into `--shard k/N` requests — N fixed at dispatch time as the number of
// live workers (capped by the cell count) — and each shard rides one
// multiplexed WorkerLink (fleet/worker.h). Streamed worker cells are
// re-framed with their *global* index (global = k + local·N) and
// forwarded; the N shard documents are recombined with
// merge_sharded_envelopes() into the exact single-process batch document,
// which the terminal "done" frame embeds raw.
//
// Failure semantics: a worker that dies mid-run fails its link; the shard
// is re-dispatched to a survivor as the SAME k/N of the ORIGINAL N, so
// the merged bytes are unchanged — degradation is graceful down to one
// worker re-running every shard. Cells a dead worker already streamed are
// deduplicated (a bitmap of forwarded global indices), so the client
// never sees an index twice. Deterministic failures (a worker "error"
// envelope — bad config and the like) are NOT failed over; they come
// straight back as the client's error envelope, as does a merge
// rejection.
//
// Repeated identical grids hit the coordinator's result cache — a
// TieredCache (sim/tiered_cache.h) of merged documents, memory only,
// holding FleetOptions::cache_capacity of them, keyed by key_of() — and
// are answered from memory without touching a worker; "cache":false on the
// request bypasses both lookup and store.
//
// Connections, multiplexed runs, timeouts and the shutdown drain are the
// shared scaffold's (serve/daemon.h), the same one a worker runs on. The
// coordinator adds the `run` handler, its `status` members (role, cache,
// workers) and the health-probe loop. `stats` and `cancel` stay
// worker-only: there is no one Session behind a fleet, and the coordinator
// answers them with an error envelope.
//
// Observability: every dispatch/retry/failover/cache event counts into
// ndpsim_fleet_* metrics (worker-labelled where meaningful), coordinator
// logs carry worker + request ids, and each shard runs under a trace
// span.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "fleet/worker.h"
#include "serve/daemon.h"
#include "sim/run_config.h"
#include "sim/tiered_cache.h"

namespace ndp::fleet {

/// Parse "host:port" (the `--worker` flag's element form) into a
/// WorkerOptions with default health settings. Throws std::invalid_argument
/// on a missing/garbled port.
WorkerOptions parse_worker_endpoint(std::string_view endpoint);

struct FleetOptions {
  std::uint16_t port = 0;  ///< client-facing TCP port (0 = kernel-assigned)
  std::vector<WorkerOptions> workers;
  unsigned max_connections = 16;
  int idle_timeout_ms = -1;   ///< client connections (-1 = never)
  /// Background health-probe cadence over the worker set (<= 0 = no
  /// probe thread; workers are still health-checked at dispatch).
  int probe_interval_ms = 0;
  int request_timeout_ms = -1;  ///< per shard exchange (-1 = none)
  unsigned jobs = 0;            ///< forwarded to workers (0 = worker default)
  bool cache = true;            ///< result cache master switch
  /// Cached result documents (LRU); 0 stores nothing.
  std::size_t cache_capacity = 64;

  /// Parse a fleet config document:
  ///
  ///   {
  ///     "port": 7080,
  ///     "workers": ["127.0.0.1:7071", "127.0.0.1:7072"],
  ///     "jobs": 2,
  ///     "probe_interval_ms": 2000,
  ///     "request_timeout_ms": 0,        // -1/0 = none
  ///     "connect_timeout_ms": 2000,     // per worker connect attempt
  ///     "connect_retries": 2,
  ///     "backoff_ms": 100,
  ///     "backoff_max_ms": 2000,
  ///     "idle_timeout_ms": -1,
  ///     "max_connections": 16,
  ///     "cache": true,
  ///     "cache_capacity": 64
  ///   }
  ///
  /// All keys optional except "workers"; unknown keys are errors (same
  /// strictness as experiment configs). Throws std::invalid_argument.
  static FleetOptions from_json(std::string_view text);

  /// Load from a file; errors are prefixed with the path.
  static FleetOptions load(const std::string& path);
};

/// A merged batch document, as the result cache holds it.
struct CachedDocument {
  std::string text;
  std::uint64_t resident_bytes() const { return text.size(); }
};

class Coordinator : public serve::Daemon {
 public:
  /// Starts the background probe thread when opts.probe_interval_ms > 0.
  explicit Coordinator(FleetOptions opts);
  ~Coordinator() override;

  struct RunOutcome {
    std::size_t cells = 0;
    std::string envelope;    ///< the merged batch document, verbatim
    bool cache_hit = false;
  };

  using CellCallback = std::function<void(
      std::size_t index, std::size_t total, std::string_view raw_result)>;

  /// Run one grid across the fleet (the engine under the `run` op, also
  /// driven directly by tools/perf_report). `on_cell(global_index,
  /// total_cells, raw_result_json)` fires per forwarded cell, deduplicated
  /// across failover re-streams; cache hits skip cells entirely. Throws
  /// std::runtime_error when no worker is reachable or a shard exhausted
  /// every worker, and std::invalid_argument on a merge rejection.
  RunOutcome run_grid(const RunConfig& config, bool use_cache = true,
                      unsigned jobs = 0, const CellCallback& on_cell = {});

  /// The result-cache key of a config: the image store's digest over its
  /// serialization with the fields that can't change the document's bytes
  /// (output paths, image sharing/store knobs, the description) cleared,
  /// so "same experiment, different output file" still hits. Equal keys
  /// produce byte-identical batch documents.
  static std::string key_of(const RunConfig& config);

  /// Workers currently connectable (runs the reconnect path on each down
  /// link).
  std::size_t live_workers();

  const TieredCache<CachedDocument>& cache() const { return cache_; }

 private:
  Reply run(const serve::Request& req, Conn& conn) override;
  Reply handle_op(const serve::Request& req, std::uint64_t conn_id) override;
  /// Role, result-cache stats and per-worker health.
  std::string status_members() const override;
  void probe_loop();
  /// Shard `config` (`total` cells) across the live workers and merge
  /// their documents: run_grid() without the cache.
  std::string dispatch(const RunConfig& config, std::size_t total,
                       unsigned jobs, const CellCallback& on_cell);

  FleetOptions opts_;
  std::vector<std::unique_ptr<WorkerLink>> workers_;
  TieredCache<CachedDocument> cache_;
  std::atomic<std::uint64_t> run_seq_{0};
  std::thread probe_thread_;
};

}  // namespace ndp::fleet
