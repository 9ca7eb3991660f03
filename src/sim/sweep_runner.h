// Host-parallel sweep execution + the shared aggregation path.
//
// Cells of an evaluation grid are independent single-threaded simulations,
// so a sweep parallelizes embarrassingly across host threads. run_sweep()
// executes a RunSpec list on a small thread pool (`jobs`) and returns the
// results in *spec order* regardless of completion order — serialized
// output is byte-identical whether jobs is 1 or 16, which is what makes
// parallel runs trustworthy artifacts (and testable: see
// tests/sweep_runner_test.cpp).
//
// Aggregation turns a result set into the tables the paper's figures plot:
// per-workload speedups over a named baseline mechanism with geomean rows
// (Figs. 12-14), and metric means across workloads (Fig. 6). The bench
// binaries and `ndpsim --config` both print through these helpers — one
// aggregation path, not per-figure bespoke printing.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/table.h"
#include "sim/experiment.h"
#include "sim/run_config.h"
#include "sim/session.h"

namespace ndp {

struct SweepCell;

struct SweepOptions {
  /// Host threads executing cells. 0 = std::thread::hardware_concurrency().
  unsigned jobs = 1;
  /// Run cells through this caller-owned Session — pools images across
  /// *sweeps* (e.g. several grids over one platform). The Session must
  /// outlive the call. Null: the sweep's own Session, which shares system
  /// images and trace material across cells (so cells differing only in
  /// mechanism/workload restore one substrate instead of rebuilding it),
  /// except that a one-cell sweep with no store has nothing to share and
  /// builds its System directly. Results are byte-identical either way
  /// (the golden suite pins this).
  Session* session = nullptr;
  /// Directory of the persistent on-disk image store (sim/image_store.h)
  /// for the internal Session: snapshots survive the process, so a warm
  /// re-run skips boot, install, and prefault. "" = disabled. Ignored when
  /// `session` is set (a caller-owned Session brings its own options). A
  /// RunConfig's "image_store" fills this when the caller didn't
  /// (`ndpsim --image-store` wins over the config).
  std::string image_store;
  /// Called after each cell completes (any order), under an internal lock —
  /// safe to print from. `done` counts completed cells.
  std::function<void(std::size_t done, std::size_t total, const RunSpec&)>
      progress;
  /// Called with each completed cell (its result is final), under the same
  /// internal lock as `progress` — calls never interleave. `index` is the
  /// cell's position in the result set. The serve layer streams per-cell
  /// envelopes from this.
  std::function<void(std::size_t index, const SweepCell& cell)> cell_done;
  /// Cooperative cancellation: when this flag becomes true, workers stop
  /// claiming new cells (in-flight cells run to completion). Unclaimed
  /// cells keep default-constructed results — a caller that observes the
  /// cancellation must not serialize the result set as a finished sweep.
  const std::atomic<bool>* cancel = nullptr;
  /// Distributed sweeps: run only shard `shard_index` of `shard_count`.
  /// Cell k of the expanded grid (spec order) belongs to shard k %
  /// shard_count — round-robin, so adjacent (similar-cost) cells spread
  /// across shards. The results carry a ShardInfo and serialize with a
  /// "shard" envelope block; tools/sweep_merge recombines N such envelopes
  /// into a byte-identical replica of the single-process document.
  unsigned shard_index = 0;
  unsigned shard_count = 1;
};

/// One executed cell: the spec that named it plus its result.
struct SweepCell {
  RunSpec spec;
  RunResult result;
};

/// Provenance of a sharded run: which slice of the full grid this result
/// set holds. Serialized as the envelope's "shard" object (in place of
/// "aggregate", which needs the whole grid) and consumed by sweep_merge.
struct ShardInfo {
  unsigned index = 0;                ///< this shard (0-based)
  unsigned count = 1;                ///< total shards the grid was split into
  std::size_t total_cells = 0;       ///< cell count of the *full* grid
  std::vector<std::size_t> indices;  ///< global spec index of each cell
};

struct SweepResults {
  std::string name;      ///< config name ("" for ad-hoc flag sweeps)
  std::string baseline;  ///< canonical mechanism name ("" = no aggregation)
  std::vector<SweepCell> cells;  ///< in spec order (deterministic)
  /// Engaged when this run executed one shard of a larger grid.
  std::optional<ShardInfo> shard;
  /// The executing Session's cumulative cache stats, snapshotted when the
  /// sweep finished (a caller-owned Session includes its prior history).
  SessionStats session;
  /// Host wall time of the whole sweep (measured by run_sweep; includes
  /// thread-pool scheduling, so it is what a user actually waited).
  std::uint64_t host_wall_ns = 0;
  unsigned jobs_used = 1;  ///< resolved job count the sweep executed with
  /// Emit "host_profile" blocks (per cell and sweep summary) from to_json().
  /// Off by default: profiling output is opt-in so result documents stay
  /// byte-identical across runs, job counts, and host machines.
  bool include_host_profile = false;

  /// Sum of per-cell phase profiles / op counters (cells run concurrently,
  /// so phase ns can exceed host_wall_ns).
  HostProfile merged_host_profile() const;
  HostCounters merged_host_counters() const;
  std::uint64_t total_instructions() const;
};

/// Execute `specs` across `opts.jobs` threads. Results are in spec order.
/// A cell that throws (bad spec) rethrows after the pool drains.
SweepResults run_sweep(const std::vector<RunSpec>& specs,
                       const SweepOptions& opts = {});

/// Expand and execute a config (carries its name/baseline into the results).
SweepResults run_sweep(const RunConfig& config, const SweepOptions& opts = {});

// --- aggregation ------------------------------------------------------------

/// Headline metrics selectable for aggregation.
enum class Metric {
  kCycles,
  kIpc,
  kPtwLatency,
  kTranslationFraction,
  kL1TlbMissRate,
  kL2TlbMissRate,
  kPteAccessShare,
};

double metric_of(const RunResult& r, Metric m);
std::string to_string(Metric m);

/// Select cells by spec fields; unset fields match everything. Mechanism and
/// workload compare against canonical labels, case-insensitively.
struct CellFilter {
  std::optional<SystemKind> system;
  std::optional<std::string> mechanism;
  std::optional<std::string> workload;
  std::optional<unsigned> cores;

  bool matches(const SweepCell& cell) const;
};

/// Metric values of the matching cells, in spec order.
std::vector<double> collect_metric(const SweepResults& results, Metric m,
                                   const CellFilter& filter);

/// Arithmetic mean of the matching cells' metric (0.0 when none match).
double mean_metric(const SweepResults& results, Metric m,
                   const CellFilter& filter);

/// One row per executed cell: the standard headline columns.
Table summary_table(const SweepResults& results);

/// Per-workload speedups over `baseline` (same system/cores/workload cell),
/// one column per non-baseline mechanism, grouped by (system, cores) when
/// several are present, with a GEOMEAN row per group — the shape of the
/// paper's Figs. 12-14. Throws std::invalid_argument when a baseline cell
/// is missing.
Table speedup_table(const SweepResults& results, std::string_view baseline);

/// Geomean speedup over `baseline` per mechanism across every workload of
/// one (system, cores) group; pairs are (mechanism, geomean) in sweep order.
std::vector<std::pair<std::string, double>> geomean_speedups(
    const SweepResults& results, std::string_view baseline, SystemKind system,
    unsigned cores);

/// The per-cell facts the aggregation path consumes — executed SweepCells
/// and cells parsed back out of shard envelopes both project onto this, so
/// sweep_merge recomputes "aggregate" through the exact code (and double
/// arithmetic) the single-process writer used.
struct CellView {
  std::string system;    ///< "ndp" / "cpu"
  unsigned cores = 0;
  std::string mechanism; ///< canonical label, parameters included
  std::string workload;  ///< canonical registry name
  std::uint64_t total_cycles = 0;
  double avg_ptw_latency = 0.0;
};

/// Project the executed cells (spec order preserved).
std::vector<CellView> cell_views(const SweepResults& results);

/// The {"baseline","groups":[...]} aggregate object for these cells.
/// Throws std::invalid_argument when a baseline cell is missing.
std::string aggregate_json(const std::vector<CellView>& cells,
                           std::string_view baseline);

/// Recombine N shard envelopes (the `--shard i/N` JSON documents, any input
/// order) into a byte-identical replica of the single-process envelope:
/// results restored to global spec order, "aggregate" recomputed, "shard"
/// dropped. Throws std::invalid_argument when the envelopes disagree on the
/// grid (name, shard count, total cells, baseline), a shard is missing or
/// duplicated, or the indices don't cover the grid exactly.
std::string merge_sharded_envelopes(const std::vector<std::string>& envelopes);

/// Full results document: {"name", "jobs-invariant" results array, and —
/// when a baseline is set — an "aggregate" object with per-group speedups
/// and geomeans}. A sharded run serializes a "shard" provenance object in
/// place of "aggregate" (the slice can't see the baseline cells). This is
/// the payload `ndpsim --config --json` writes; it depends only on cell
/// order, never on thread scheduling.
std::string to_json(const SweepResults& results);

/// summary_table() as CSV (one plotting input for every figure).
std::string to_csv(const SweepResults& results);

}  // namespace ndp
