// An in-process fleet (N worker daemons behind one coordinator, all on
// loopback TCP) and the outside-in probes of its serving tiers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "fleet/coordinator.h"
#include "serve/server.h"

namespace perfbench {

class LocalFleet {
 public:
  /// Start `workers` daemons (each running requests at `worker_jobs`) and a
  /// coordinator over them with a result cache of `cache_capacity` grids.
  LocalFleet(unsigned workers, unsigned worker_jobs,
             std::size_t cache_capacity);
  /// Drain and join the coordinator, then the daemons.
  ~LocalFleet();
  LocalFleet(const LocalFleet&) = delete;
  LocalFleet& operator=(const LocalFleet&) = delete;

  std::uint16_t port() const { return port_; }
  std::uint16_t worker_port(std::size_t i) const { return worker_ports_[i]; }
  std::size_t workers() const { return worker_ports_.size(); }
  unsigned worker_jobs() const { return worker_jobs_; }
  ndp::fleet::Coordinator& coordinator() { return *coordinator_; }

 private:
  unsigned worker_jobs_;
  std::vector<std::unique_ptr<ndp::serve::Server>> daemons_;
  std::vector<std::uint16_t> worker_ports_;
  std::unique_ptr<ndp::fleet::Coordinator> coordinator_;
  std::uint16_t port_ = 0;
};

/// One grid's serving tiers, each timed from outside (ms).
struct TierSample {
  double run_grid_ms = 0;       ///< Coordinator::run_grid, in-process
  double slowest_shard_ms = 0;  ///< each shard request sent straight to a worker
  double merge_ms = 0;          ///< merge_sharded_envelopes on those shards
  double framing_ms = 0;        ///< LineReader reading the done envelope
  double roundtrip_ms = 0;      ///< client -> coordinator -> client
};

/// Serve `config` through `fleet` every way above (cache bypassed), check
/// each document against `expected_document`, and time the tiers: `reps`
/// untimed run_grid calls to settle the workers' Sessions, the shards (in
/// parallel, as the coordinator sends them), then `reps` alternating
/// run_grid / round-trip pairs, each tier keeping its median.
TierSample probe_tiers(LocalFleet& fleet, const ndp::RunConfig& config,
                       const std::string& expected_document, unsigned reps,
                       Report& report);
/// Medians over the probed grids into the serve/fleet tier metrics.
void report_tiers(const std::vector<TierSample>& samples, Report& report);

/// Cache-effectiveness ratios from the daemons' `stats` op and the
/// coordinator's `status` op, and failure counts from its `metrics` op.
void report_fleet_health(LocalFleet& fleet, Report& report);

}  // namespace perfbench
