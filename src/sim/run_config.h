// Config-driven experiments: a JSON run description that expands into the
// sweep()/RunSpec machinery, so every evaluation grid of the paper is a
// named, checked-in, reproducible artifact (see experiments/*.json) instead
// of a bespoke bench binary or a long ndpsim flag line.
//
// Format (all keys optional unless noted; unknown keys are errors so typos
// can't silently change an experiment):
//
//   {
//     "name": "fig06_core_scaling",
//     "description": "PTW latency and translation share vs core count",
//     "systems": ["ndp", "cpu"],          // or "system": "ndp"
//     "mechanisms": ["radix",             // or "mechanism": "radix"
//       "ech(ways=8)",                    // spec strings carry parameters
//       {"name": "ech",                   // structured form; array-valued
//        "params": {"ways": [2, 4]}}],    //   params expand cross-product
//     "workloads": "all",                 // "all" = every built-in; or list
//     "cores": [1, 4, 8],                 // or a single number
//     "instructions": 150000,             // per core; 0 = default
//     "warmup": 0,                        // refs/core; 0 = instructions/15
//     "scale": 0.75,                      // dataset scale fraction
//     "seed": 42,
//     "image_store": ".ndpsim-store",     // persistent on-disk image store
//     "overrides": {                      // ablations, all optional
//       "bypass": true,
//       "pwc_levels": [4, 3],             // or null to strip the PWCs
//       "dram": "hbm2"                    // "ddr4_2400" | "hbm2"
//     },
//     "baseline": "radix",                // aggregation: speedups vs this
//     "output": { "json": "results.json", "csv": "results.csv" }
//   }
//
// Mechanism/workload names resolve through the open registries, so a config
// can name user-registered designs and trace generators. Mechanism entries
// are parameter specs: either `"name(key=value,...)"` strings or structured
// `{"name": ..., "params": {...}}` objects whose array-valued parameters
// expand into a cross-product of design points (member order) — that is how
// a checked-in grid sweeps ECH associativity or PWC sizes without new C++.
// Parsing validates everything up front: errors are std::invalid_argument
// whose message names the bad key/value and, for names and parameters,
// lists the registered alternatives (with did-you-mean suggestions).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "sim/experiment.h"

namespace ndp {

struct RunConfig {
  std::string name;
  std::string description;
  std::vector<SystemKind> systems = {SystemKind::kNdp};
  /// Canonical mechanism specs, parameters included ("ECH(ways=4)").
  std::vector<std::string> mechanisms = {"NDPage"};
  std::vector<std::string> workloads = {"RND"};  ///< canonical names
  std::vector<unsigned> cores = {4};
  std::uint64_t instructions = 0;  ///< 0 = default_instructions()
  std::uint64_t warmup = 0;        ///< 0 = instructions/15
  double scale = 0;                ///< 0 = WorkloadParams default
  std::uint64_t seed = 42;
  Overrides overrides;
  /// Directory of the persistent on-disk image store (sim/image_store.h):
  /// post-boot and post-prefault snapshots survive the process, so warm
  /// re-runs skip boot, install, and prefault. "" = disabled. The CLI's
  /// --image-store flag overrides this.
  std::string image_store;
  /// Mechanism name speedups are aggregated against ("" = no aggregation).
  std::string baseline;
  /// Default output paths, overridable from the CLI ("" = not requested,
  /// "-" = stdout).
  std::string json_output;
  std::string csv_output;

  /// Parse + validate a JSON document. Throws std::invalid_argument on
  /// malformed JSON (with line:column), unknown keys, bad types, or unknown
  /// mechanism/workload/system names (listing the valid ones).
  static RunConfig from_json(std::string_view text);

  /// Load from a file; errors are prefixed with the path.
  static RunConfig load(const std::string& path);

  /// Serialize back to JSON; from_json(to_json()) round-trips every field.
  std::string to_json() const;

  /// Expand the grid into RunSpecs: system-major, then the usual
  /// mechanism-major sweep() order within each system.
  std::vector<RunSpec> expand() const;
};

}  // namespace ndp
