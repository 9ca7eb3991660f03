// Multi-core trace-driven simulation engine.
//
// Cores are in-order with a bounded memory-op window: a core may have up to
// `System::mlp()` memory operations in flight (translation + data access are
// serial *within* an op — translation is on the critical path, the paper's
// premise — but independent ops overlap, as even simple NDP cores achieve
// with a handful of MSHRs). Cores are interleaved by a time-ordered queue,
// so every shared resource (DRAM banks, channel slots, mesh ingress, the
// CPU system's L3) sees near-causally ordered traffic from all cores, and
// contention effects are emergent.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "core/system.h"
#include "sim/profile.h"
#include "workloads/workload.h"

namespace ndp {

struct EngineConfig {
  std::uint64_t instructions_per_core = 300'000;
  std::uint64_t warmup_refs_per_core = 20'000;
  /// Pre-collected setup products of the trace (region layout + warm
  /// pages). Null — what Session::run() passes — makes prepare() ask the
  /// trace itself. Non-null is for callers that collect the material
  /// themselves (perfbench times the step this way); it must equal
  /// TraceMaterial::of(trace) and outlive the engine.
  const TraceMaterial* material = nullptr;
};

struct CoreStats {
  std::uint64_t instructions = 0;
  std::uint64_t memrefs = 0;
  Cycle start = 0;  ///< first post-warmup issue
  Cycle end = 0;    ///< last completion
  std::uint64_t translation_cycles = 0;
  std::uint64_t data_cycles = 0;
  std::uint64_t gap_cycles = 0;
  std::uint64_t fault_cycles = 0;

  /// Measured wall time of this core's counted window. The engine
  /// guarantees end > start for every core of a completed run (a core that
  /// retires no post-warmup instructions is a diagnosed error from
  /// Engine::run(), not a silent zero that would poison geomean speedup
  /// tables); the guard here is only for default-constructed stats.
  Cycle cycles() const { return end > start ? end - start : 0; }
};

/// Identity of the run that produced a result. Filled by run_experiment()
/// so a serialized RunResult is self-describing without its RunSpec.
struct RunMeta {
  std::string system;
  /// Canonical mechanism spelling, parameters included ("ECH(ways=4)").
  std::string mechanism;
  /// Every resolved mechanism parameter (defaults applied), schema order,
  /// as (name, value-text) pairs — empty for unparameterized mechanisms.
  std::vector<std::pair<std::string, std::string>> mechanism_params;
  std::string workload;
  unsigned cores = 0;
  std::uint64_t instructions_per_core = 0;
  std::uint64_t seed = 0;
};

struct RunResult {
  RunMeta meta;
  std::vector<CoreStats> cores;
  Cycle total_cycles = 0;  ///< max per-core cycles: the run's wall time
  StatSet stats;           ///< merged component statistics
  /// Host-side self-profiling: wall ns per phase and deterministic engine
  /// op counters. Always collected (phase-boundary clock reads only);
  /// serialized only on request so default output stays byte-identical.
  HostProfile host_profile;
  HostCounters host;

  // Headline metrics (derived; see engine.cpp).
  double avg_ptw_latency = 0.0;       ///< cycles per walk (paper Fig. 4/6a)
  double translation_fraction = 0.0;  ///< share of busy cycles (Fig. 5/6b)
  double l1_tlb_miss_rate = 0.0;
  double l2_tlb_miss_rate = 0.0;
  double pte_access_share = 0.0;      ///< PTE share of memory accesses
  double ipc = 0.0;

  std::uint64_t total_instructions() const;
};

class Engine {
 public:
  /// Throws std::invalid_argument on a zero instruction budget — a run that
  /// can retire nothing must fail loudly, not feed 0-cycle cells into
  /// speedup geomeans.
  Engine(System& system, TraceSource& trace, EngineConfig cfg);

  /// Setup half of a run: install the trace's VM regions and populate the
  /// resident set (the install/prefault profile phases). Idempotent; run()
  /// calls it when the caller has not. Split out so callers measuring the
  /// event loop (perf smoke, profiling) can separate setup from simulation.
  void prepare();

  /// Declare the System already prepared — it was restored from a
  /// post-prefault PreparedImage, so install and prefault must not run
  /// again (and report 0 ns in the profile). Call before run().
  void mark_prepared() { prepared_ = true; }

  /// prepare() if needed, then warm up and run to the instruction budget.
  /// Throws std::runtime_error (diagnosed) if any core ends the run with no
  /// post-warmup instructions — see CoreStats::cycles().
  RunResult run();

 private:
  System& sys_;
  TraceSource& trace_;
  EngineConfig cfg_;
  HostProfile setup_profile_;  ///< install/prefault ns from prepare()
  bool prepared_ = false;
};

}  // namespace ndp
