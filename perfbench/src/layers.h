// The traced run's view of a batch grid: each cell driven through the
// layers' public calls in order — Session::image_for, System(cfg, image),
// descriptor make + TraceMaterial::of, Engine::prepare, Engine::run,
// destruction — with a span around each, plus the per-layer metrics those
// spans, the cells' StatSets, and outside-in component probes yield.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "sim/session.h"
#include "sim/sweep_runner.h"
#include "tracer.h"

namespace perfbench {

/// Facts about a traced cell that its RunResult does not carry.
struct CellFacts {
  std::uint64_t mapped_pages = 0;  ///< AddressSpace::mapped_pages() after prepare
  std::uint64_t table_bytes = 0;   ///< PageTable::table_bytes() after prepare
};

struct TracedGrid {
  ndp::SweepResults results;
  std::string document;  ///< to_json(results)
  std::vector<CellFacts> facts;  ///< parallel to results.cells
  double wall_ms = 0;    ///< RunConfig load to serialized document
  double serialize_ms = 0;
};

/// Run the grid (the concatenation of `grid_texts`' RunConfigs, named after
/// the first) through the traced layer path on `jobs` threads. Results are
/// in spec order, like run_sweep.
TracedGrid run_traced_grid(const std::vector<std::string>& grid_texts,
                           unsigned jobs, Tracer& tracer);

/// The untraced path: the same grid through run_sweep, as a user runs it.
struct PlainGrid {
  ndp::SweepResults results;
  std::string document;
  double wall_ms = 0;
  double setup_ms = 0;  ///< build + image cache + install + prefault + snapshot
  /// Per-cell latency (ms), by cell index: the gap since the previous
  /// completion on the same pool thread, or since the grid start for a
  /// thread's first cell — so cell_ms[0] is grid start to cell 0 done.
  std::vector<double> cell_ms;
};
PlainGrid run_plain_grid(const std::vector<std::string>& grid_texts,
                         unsigned jobs);

/// Grid start to cell 0 done, the rest of the grid cancelled (cells in
/// flight finish): a cheap repeat of the wait for a grid's first result.
double first_cell_probe(const std::vector<std::string>& grid_texts,
                        unsigned jobs);

/// Print how much of the untraced cells' wall their HostProfile phases
/// cover (the rest — System teardown and glue — is in no phase).
void print_profile_gap(const PlainGrid& grid);

/// Fold the traced grids' spans, StatSets and facts into the per-layer
/// metrics (setup path, engine, work counts, simulated-time attribution).
/// Prints the wall-time breakdown of the traced cells.
void report_layers(const std::vector<const TracedGrid*>& grids,
                   const Tracer& tracer, Report& report);

/// Host cost per call of the run-path components, timed from outside on
/// `spec`'s own address stream against a freshly prepared System, plus the
/// cost of one post-prefault snapshot. The probe System is also run once;
/// its result must serialize to `expected_cell_json` (checked).
void report_component_costs(ndp::Session& session, const ndp::RunSpec& spec,
                            const std::string& expected_cell_json,
                            Report& report);

/// Serialize one cell the way result documents embed it.
std::string cell_json(const ndp::SweepCell& cell);

}  // namespace perfbench
