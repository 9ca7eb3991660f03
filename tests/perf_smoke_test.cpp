// Counter-based perf smoke test.
//
// CI cannot assert wall time without flaking on slow runners, so the hot
// paths are budgeted in *deterministic* units instead: engine heap
// operations and host heap allocations per simulated instruction. A
// regression that re-introduces per-event allocation (walk-path churn,
// hash-map nodes on the TLB-miss path, an unreserved event queue) moves
// these counts far past the budgets long before it shows up on a stopwatch.
//
// Budgets carry ~2-3x headroom over measured values (see BENCH_engine.json)
// so model-side changes that legitimately add events have room, while
// order-of-magnitude regressions still fail.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "sim/engine.h"
#include "sim/experiment.h"
#include "workloads/workload_registry.h"

// ASan ships its own operator new/delete and must keep them; allocation
// counting is disabled under sanitizers (the heap-op budget still runs).
#if defined(__SANITIZE_ADDRESS__)
#define NDP_COUNT_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define NDP_COUNT_ALLOCS 0
#endif
#endif
#ifndef NDP_COUNT_ALLOCS
#define NDP_COUNT_ALLOCS 1
#endif

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

#if NDP_COUNT_ALLOCS
void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& nt) noexcept {
  return ::operator new(size, nt);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#endif  // NDP_COUNT_ALLOCS

namespace ndp {
namespace {

RunSpec smoke_spec(unsigned cores) {
  return RunSpecBuilder()
      .system(SystemKind::kNdp)
      .cores(cores)
      .mechanism("radix")
      .workload("gups")
      .instructions(20000)
      .scale(0.02)
      .build();
}

// Measured (RelWithDebInfo, radix/gups): ~1.7 events per instruction at
// 2 cores / mlp 8 — one issue, a couple of walk/data steps, one completion
// per memory reference, amortized over gap instructions.
constexpr double kMaxEventsPerInstruction = 5.0;
// The queue holds at most cores x (mlp + 1) outstanding events.
constexpr std::uint64_t kMlp = 8;

TEST(PerfSmoke, HeapOpsPerInstructionWithinBudget) {
  const RunResult r = run_experiment(smoke_spec(2));
  const double instrs = static_cast<double>(r.total_instructions());
  ASSERT_GT(instrs, 0.0);
  EXPECT_EQ(r.host.events, r.host.heap_pushes);
  EXPECT_LT(static_cast<double>(r.host.events) / instrs,
            kMaxEventsPerInstruction)
      << "engine event count per instruction regressed";
  EXPECT_LE(r.host.heap_peak, 2ull * (kMlp + 1))
      << "event queue grew past the outstanding-op bound";
}

TEST(PerfSmoke, AllocationsPerInstructionWithinBudget) {
#if NDP_COUNT_ALLOCS
  // Build everything first; count only the event loop. Steady state should
  // allocate almost nothing per op: walk plans, PWC refills, TLB state and
  // the event queue are all reused storage. Demand faults may allocate
  // (page-table nodes, reverse-map growth) — the budget leaves room for
  // them, not for per-event churn.
  SystemConfig sc = SystemConfig::ndp(2, Mechanism::kRadix);
  System sys(sc);
  WorkloadParams wp;
  wp.num_cores = 2;
  wp.scale = 0.02;
  auto trace = WorkloadRegistry::instance().at("gups").make(wp);
  EngineConfig ec;
  ec.instructions_per_core = 20000;
  ec.warmup_refs_per_core = 1333;
  Engine engine(sys, *trace, ec);
  engine.prepare();  // setup allocates per page; the event loop must not

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const RunResult r = engine.run();
  const std::uint64_t during =
      g_allocs.load(std::memory_order_relaxed) - before;

  const double instrs = static_cast<double>(r.total_instructions());
  ASSERT_GT(instrs, 0.0);
  // Measured: ~0.002 allocs/instruction (stat collection at the end plus a
  // handful of first-touch growths). 0.05 is 25x headroom yet still two
  // orders of magnitude below one-allocation-per-event behaviour.
  EXPECT_LT(static_cast<double>(during) / instrs, 0.05)
      << during << " allocations during the measured run";
#else
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#endif
}

TEST(PerfSmoke, PrefaultMapsLeafTablesInRuns) {
  // Radix (and Ideal, on the same table) and NDPage promise runs up to the
  // end of a leaf node, so all but a leaf's first page map in runs. ECH
  // resizes, DIPTA evicts, Hybrid places by conflict and HugePage maps
  // 2 MB blocks: they map page by page.
  for (const char* mechanism :
       {"radix", "ideal", "ndpage", "ech", "dipta", "hybrid", "hugepage"}) {
    for (const char* workload : {"gups", "pr"}) {
      SCOPED_TRACE(std::string(mechanism) + " " + workload);
      const RunResult r = run_experiment(RunSpecBuilder()
                                             .system(SystemKind::kNdp)
                                             .cores(1)
                                             .mechanism(mechanism)
                                             .workload(workload)
                                             .instructions(3000)
                                             .scale(0.02)
                                             .build());
      ASSERT_GT(r.host.prefault_pages, 0u);
      const bool runs = std::string(mechanism) == "radix" ||
                        std::string(mechanism) == "ideal" ||
                        std::string(mechanism) == "ndpage";
      if (runs) {
        EXPECT_GE(r.host.prefault_run_pages * 100, r.host.prefault_pages * 99);
      } else {
        EXPECT_EQ(r.host.prefault_run_pages, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace ndp
