// Host-side self-profiling for simulation runs.
//
// A HostProfile accumulates wall-clock nanoseconds per run phase (system
// build, region install, prefault, warmup, measured run, stat collection,
// teardown).
// The engine stamps phases at their boundaries only — a handful of clock
// reads per run, never per event — so profiling is always on and costs
// nothing measurable. Reporting is strictly opt-in (`ndpsim --profile`,
// `to_json(..., include_host_profile)`): default serialized output stays
// byte-identical, which is what lets the golden suite pin results while the
// hot paths keep changing.
//
// tools/perf_report turns these numbers into BENCH_engine.json (cells/sec,
// host-ns per simulated instruction) so the perf trajectory of the simulator
// itself is recorded alongside its simulated results.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "obs/trace.h"

namespace ndp {

enum class ProfilePhase : unsigned {
  kBuild,       ///< System construction (phys mem, caches, MMUs, page table)
  kBuildCached, ///< Session image-cache work: building a shareable system
                ///< image on a miss, plus the (tiny) lookup cost on a hit
  kInstall,   ///< region declaration + trace-source setup
  kPrefault,  ///< resident-set population before timing starts
  kWarmup,    ///< event loop until every core finished warmup
  kRun,       ///< event loop after stats reset (the measured window)
  kCollect,   ///< stat snapshot/merge + result assembly
  kSnapshot,  ///< prepared-image capture + on-disk store writes
  kTeardown,  ///< destroying the run's engine, System and trace
  kCount_,
};
constexpr unsigned kNumProfilePhases =
    static_cast<unsigned>(ProfilePhase::kCount_);

const char* to_string(ProfilePhase p);

/// Per-phase wall-clock accumulator for one run (host ns).
class HostProfile {
 public:
  using Clock = std::chrono::steady_clock;

  void add(ProfilePhase p, std::uint64_t ns) {
    ns_[static_cast<unsigned>(p)] += ns;
  }
  std::uint64_t ns(ProfilePhase p) const {
    return ns_[static_cast<unsigned>(p)];
  }
  std::uint64_t total_ns() const;
  /// Sum another run's phases into this one (sweep-level aggregation).
  void merge(const HostProfile& o);

  static std::uint64_t since_ns(Clock::time_point start) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
  }

 private:
  std::uint64_t ns_[kNumProfilePhases] = {};
};

/// RAII phase timer: charges the enclosed scope's wall time to one phase.
/// When trace export is on (obs/trace.h, `ndpsim --trace-out`), the same
/// scope is also recorded as a "phase" span — the finer-than-phase view of
/// a cell in Perfetto costs one relaxed atomic load here when tracing is
/// off (HostProfile::Clock and TraceSink::Clock are both steady_clock, so
/// one pair of clock reads serves both).
class ScopedPhaseTimer {
 public:
  ScopedPhaseTimer(HostProfile& profile, ProfilePhase phase)
      : profile_(profile), phase_(phase), start_(HostProfile::Clock::now()) {}
  ~ScopedPhaseTimer() {
    const auto end = HostProfile::Clock::now();
    profile_.add(phase_, static_cast<std::uint64_t>(
                             std::chrono::duration_cast<
                                 std::chrono::nanoseconds>(end - start_)
                                 .count()));
    if (obs::TraceSink::instance().enabled())
      obs::TraceSink::instance().add_complete(to_string(phase_), "phase",
                                              start_, end);
  }
  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

 private:
  HostProfile& profile_;
  ProfilePhase phase_;
  HostProfile::Clock::time_point start_;
};

/// Manual-stamp companion to ScopedPhaseTimer for code that times phases
/// with explicit clock reads (the engine's chained phase boundaries):
/// charges [start, now) to `p`, mirrors the interval as a trace span when
/// export is on, and returns `now` so call sites chain into the next phase.
inline HostProfile::Clock::time_point stamp_phase(
    HostProfile& profile, ProfilePhase p,
    HostProfile::Clock::time_point start) {
  const auto end = HostProfile::Clock::now();
  profile.add(p, static_cast<std::uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         end - start)
                         .count()));
  if (obs::TraceSink::instance().enabled())
    obs::TraceSink::instance().add_complete(to_string(p), "phase", start, end);
  return end;
}

/// Host-side operation counters for one run — the deterministic complement
/// to the wall-clock phases. CI's perf smoke test budgets these per
/// simulated instruction (they never flake on a slow runner, unlike time).
struct HostCounters {
  std::uint64_t events = 0;       ///< events popped off the engine's queue
  std::uint64_t heap_pushes = 0;  ///< events pushed (heap sift-ups)
  std::uint64_t heap_peak = 0;    ///< high-water mark of the event queue
  // Session image-cache effectiveness (sim/session.h): how many runs built
  // a fresh system image vs restored a shared one. A run outside a Session
  // (or with sharing disabled) reports 0/0.
  std::uint64_t image_builds = 0;  ///< image-cache misses (substrate built)
  std::uint64_t image_hits = 0;    ///< image-cache hits (substrate restored)
  // Prefault work (AddressSpace::prefault_all): 4 KB pages mapped, and how
  // many of them were mapped in runs (one buddy scan and one table write
  // per run). A run restored from a post-prefault snapshot reports 0/0.
  std::uint64_t prefault_pages = 0;
  std::uint64_t prefault_run_pages = 0;

  void merge(const HostCounters& o) {
    events += o.events;
    heap_pushes += o.heap_pushes;
    heap_peak = heap_peak > o.heap_peak ? heap_peak : o.heap_peak;
    image_builds += o.image_builds;
    image_hits += o.image_hits;
    prefault_pages += o.prefault_pages;
    prefault_run_pages += o.prefault_run_pages;
  }
};

}  // namespace ndp
