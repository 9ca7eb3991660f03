// Experiment runner: one call = one (system, cores, mechanism, workload)
// cell of the paper's evaluation. Benches compose these into the figures;
// the `ndpsim` CLI (tools/ndpsim.cpp) exposes the same surface as flags.
//
// Mechanisms and workloads are selected by registry/string name, so designs
// registered outside core headers (see core/mechanism_registry.h) are
// first-class experiment subjects:
//
//   RunSpec spec = RunSpecBuilder()
//                      .system("ndp").cores(4)
//                      .mechanism("ndpage").workload("gups")
//                      .build();
//   RunResult r = run_experiment(spec);
//   std::string json = to_json(r, &spec);
//
// Cross-product sweeps expand into plain RunSpecs:
//
//   for (const RunSpec& s : sweep(base, {"radix", "ndpage"}, {"gups"}, {1, 4}))
//     ...
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/system.h"
#include "sim/engine.h"
#include "workloads/workload.h"

namespace ndp {

struct RunSpec {
  SystemKind system = SystemKind::kNdp;
  unsigned cores = 1;
  /// Built-in mechanism selector; ignored when `mechanism_name` is set.
  Mechanism mechanism = Mechanism::kRadix;
  /// Registry spec; wins over the enum when non-empty. May carry typed
  /// parameters — "ech(ways=4)" — resolved against the mechanism's schema;
  /// also how non-built-in registered mechanisms are run. The builder
  /// stores the canonical spelling here.
  std::string mechanism_name;
  WorkloadKind workload = WorkloadKind::kRND;
  /// Registry name/alias; wins over the enum when non-empty. This is how
  /// non-built-in registered workloads are run.
  std::string workload_name;
  std::uint64_t instructions_per_core = 0;  ///< 0 = default_instructions()
  std::uint64_t warmup_refs = 0;            ///< 0 = instructions/15
  double scale = 0;                         ///< 0 = WorkloadParams default
  std::uint64_t seed = 42;
  /// Ablation overrides, forwarded to SystemConfig verbatim.
  Overrides overrides;

  /// Canonical mechanism spelling, parameters included (resolves
  /// `mechanism_name` via the registry) — "Radix", "ECH(ways=4)".
  std::string mechanism_label() const;
  /// Canonical workload name (resolves `workload_name` via the registry).
  std::string workload_label() const;
};

/// Fluent construction with string-named selection. Name setters throw
/// std::invalid_argument on unknown names (listing what is known), so a CLI
/// or config front-end gets its error message for free.
class RunSpecBuilder {
 public:
  RunSpecBuilder() = default;
  explicit RunSpecBuilder(RunSpec base) : spec_(std::move(base)) {}

  RunSpecBuilder& system(SystemKind k);
  RunSpecBuilder& system(std::string_view name);  ///< "ndp" | "cpu"
  RunSpecBuilder& cores(unsigned n);
  RunSpecBuilder& mechanism(Mechanism m);
  /// Registry name/alias, optionally parameterized: "ndpage",
  /// "ech(ways=4,probes=2)". Validated against the schema immediately.
  RunSpecBuilder& mechanism(std::string_view name);
  RunSpecBuilder& workload(WorkloadKind k);
  RunSpecBuilder& workload(std::string_view name);  ///< name/suite alias
  RunSpecBuilder& instructions(std::uint64_t per_core);
  RunSpecBuilder& warmup(std::uint64_t refs);
  RunSpecBuilder& scale(double s);  ///< (0, 1]; 0 = workload default
  RunSpecBuilder& seed(std::uint64_t s);
  RunSpecBuilder& overrides(Overrides o);

  const RunSpec& spec() const { return spec_; }
  RunSpec build() const { return spec_; }

 private:
  RunSpec spec_;
};

/// Expand the cross-product (mechanisms x workloads x core counts) over
/// `base` into RunSpecs, in mechanism-major order. An empty axis keeps the
/// base's value for that axis. Throws std::invalid_argument on unknown
/// names.
std::vector<RunSpec> sweep(const RunSpec& base,
                           const std::vector<std::string>& mechanisms,
                           const std::vector<std::string>& workloads = {},
                           const std::vector<unsigned>& core_counts = {});

/// Per-core instruction budget: NDPAGE_INSTRS env override, else 150k
/// (also when the variable is empty or 0). Throws std::invalid_argument,
/// naming the variable and its value, when it is not a whole number.
/// (The paper simulates 500M instructions/core on Sniper. This shorter
/// budget is a substitution: the shape-level results — which mechanism
/// wins and roughly by how much — are stable from a few hundred thousand
/// instructions once TLBs/caches are warm. README "Running experiments"
/// documents the override.)
std::uint64_t default_instructions();

/// Build the system + workload and run the engine. One-shot shim over the
/// Session run lifecycle (sim/session.h): a fresh Session with sharing
/// off — identical results, no caching. Repeated runs should hold a
/// Session and call session.run(spec) instead; one bar group of
/// Figs. 12-14 is speedup_table() over a run_sweep() (sim/sweep_runner.h).
RunResult run_experiment(const RunSpec& spec);

/// Geometric mean over positive values. Empty input or any non-positive
/// value yields 0.0 (a geometric mean is undefined there; 0.0 keeps sweep
/// aggregation total instead of UB on bad cells).
double geomean(const std::vector<double>& xs);

/// Serialize counters + averages: {"counters":{...},
/// "averages":{name:{mean,min,max,count}}}.
std::string to_json(const StatSet& stats);

class JsonWriter;
/// Emit one {"phases":{...},"total_ns":...,"counters":{...}} host-profile
/// object (shared by per-run and sweep-level serialization).
void write_host_profile(JsonWriter& w, const HostProfile& profile,
                        const HostCounters& host);

/// Serialize a run: headline metrics, per-core stats, full StatSet; when
/// `spec` is given, a "spec" object (system/cores/mechanism/workload/seed)
/// is included so a results file is self-describing. With
/// `include_host_profile` a "host_profile" object (wall ns per phase +
/// engine op counters) is appended — opt-in, so default documents stay
/// byte-identical run to run and job count to job count.
std::string to_json(const RunResult& r, const RunSpec* spec = nullptr,
                    bool include_host_profile = false);

}  // namespace ndp
