// Component micro-benchmarks (google-benchmark): raw speed of the
// simulator's hot structures. These guard the simulator's own performance,
// not the paper's results.
#include <benchmark/benchmark.h>

#include "cache/cache.h"
#include "common/rng.h"
#include "core/flat_page_table.h"
#include "dram/dram.h"
#include "os/phys_mem.h"
#include "translate/ech_page_table.h"
#include "translate/radix_page_table.h"
#include "translate/tlb.h"

namespace ndp {
namespace {

PhysMemConfig pm_cfg() {
  PhysMemConfig cfg;
  cfg.bytes = 256ull << 20;
  cfg.noise_fraction = 0.0;
  return cfg;
}

void BM_ZipfSample(benchmark::State& state) {
  Zipf z(1u << 20, 0.75);
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(z(rng));
}
BENCHMARK(BM_ZipfSample);

void BM_TlbLookup(benchmark::State& state) {
  Tlb tlb(TlbConfig{.name = "t", .entries = 64, .ways = 4, .latency = 1});
  Rng rng(2);
  for (Vpn v = 0; v < 64; ++v) tlb.insert(v << kPageShift, v, kPageShift);
  for (auto _ : state)
    benchmark::DoNotOptimize(tlb.lookup(rng.below(128) << kPageShift));
}
BENCHMARK(BM_TlbLookup);

void BM_CacheAccess(benchmark::State& state) {
  Cache c(CacheConfig{.name = "L1", .size_bytes = 32 * 1024, .ways = 8,
                      .latency = 4});
  Rng rng(3);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        c.access(rng.below(1u << 16), AccessType::kRead, AccessClass::kData));
}
BENCHMARK(BM_CacheAccess);

void BM_DramAccess(benchmark::State& state) {
  Dram d(DramTiming::hbm2());
  Rng rng(4);
  Cycle now = 0;
  for (auto _ : state) {
    now += 50;
    benchmark::DoNotOptimize(d.access(now, rng.below(1ull << 32),
                                      AccessType::kRead, AccessClass::kData));
  }
}
BENCHMARK(BM_DramAccess);

void BM_RadixWalk(benchmark::State& state) {
  PhysicalMemory pm(pm_cfg());
  RadixPageTable pt(pm, 1);
  Rng rng(5);
  for (Vpn v = 0; v < 10000; ++v) pt.map(v, v + 1);
  for (auto _ : state) benchmark::DoNotOptimize(pt.walk(rng.below(10000)));
}
BENCHMARK(BM_RadixWalk);

void BM_FlatWalk(benchmark::State& state) {
  PhysicalMemory pm(pm_cfg());
  FlatPageTable pt(pm);
  Rng rng(6);
  for (Vpn v = 0; v < 10000; ++v) pt.map(v, v + 1);
  for (auto _ : state) benchmark::DoNotOptimize(pt.walk(rng.below(10000)));
}
BENCHMARK(BM_FlatWalk);

void BM_EchLookup(benchmark::State& state) {
  PhysicalMemory pm(pm_cfg());
  EchPageTable pt(pm);
  Rng rng(7);
  for (Vpn v = 0; v < 10000; ++v) pt.map(v, v + 1);
  for (auto _ : state) benchmark::DoNotOptimize(pt.lookup(rng.below(10000)));
}
BENCHMARK(BM_EchLookup);

void BM_BuddyAllocFree(benchmark::State& state) {
  BuddyAllocator b(1u << 20);
  for (auto _ : state) {
    auto f = b.alloc(0);
    b.free(*f, 0);
  }
}
BENCHMARK(BM_BuddyAllocFree);

// The Session image-reuse tradeoff on the substrate: constructing with
// boot-noise injection (what every sweep cell used to pay) vs restoring a
// snapshot (what image-sharing cells pay instead).
void BM_PhysMemConstructWithNoise(benchmark::State& state) {
  PhysMemConfig cfg = pm_cfg();
  cfg.noise_fraction = 0.03;
  for (auto _ : state) {
    PhysicalMemory pm(cfg);
    benchmark::DoNotOptimize(pm.free_frames());
  }
}
BENCHMARK(BM_PhysMemConstructWithNoise);

void BM_PhysMemRestoreFromImage(benchmark::State& state) {
  PhysMemConfig cfg = pm_cfg();
  cfg.noise_fraction = 0.03;
  PhysicalMemory pm(cfg);
  const PhysMemImage image = pm.snapshot();
  for (auto _ : state) {
    pm.restore(image);
    benchmark::DoNotOptimize(pm.free_frames());
  }
}
BENCHMARK(BM_PhysMemRestoreFromImage);

}  // namespace
}  // namespace ndp

BENCHMARK_MAIN();
