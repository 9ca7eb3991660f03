// Tests for the DIPTA-style restricted-associativity comparator (extension
// beyond the paper's five mechanisms; paper SVIII related work).
#include <gtest/gtest.h>

#include "core/mechanism.h"
#include "sim/experiment.h"
#include "translate/address_space.h"
#include "translate/dipta_page_table.h"

namespace ndp {
namespace {

PhysMemConfig pm_cfg(std::uint64_t mb = 64) {
  PhysMemConfig cfg;
  cfg.bytes = mb << 20;
  cfg.noise_fraction = 0.0;
  cfg.seed = 7;
  return cfg;
}

TEST(DiptaPageTable, MapLookupUnmapRemap) {
  PhysicalMemory pm(pm_cfg());
  DiptaPageTable pt(pm);
  pt.map(0x123, 45);
  EXPECT_EQ(*pt.lookup(0x123), 45u);
  EXPECT_TRUE(pt.remap(0x123, 46));
  EXPECT_EQ(*pt.lookup(0x123), 46u);
  EXPECT_TRUE(pt.unmap(0x123));
  EXPECT_FALSE(pt.lookup(0x123).has_value());
}

TEST(DiptaPageTable, WalkIsOneTagAccess) {
  PhysicalMemory pm(pm_cfg());
  DiptaPageTable pt(pm);
  pt.map(7, 9);
  const WalkPath p = pt.walk(7);
  ASSERT_TRUE(p.mapped);
  ASSERT_EQ(p.steps.size(), 1u) << "translation resolves in a single access";
  EXPECT_TRUE(pm.is_page_table_frame(pfn_of(p.steps[0].pte_addr)));
  EXPECT_EQ(p.pfn, 9u);
}

TEST(DiptaPageTable, SetConflictEvictsLru) {
  PhysicalMemory pm(pm_cfg());
  DiptaConfig cfg;
  cfg.ways = 2;
  cfg.coverage_frames = 2;  // exactly one set: every vpn conflicts
  DiptaPageTable pt(pm, cfg);
  const MapResult a = pt.map(1, 100);
  const MapResult b = pt.map(2, 200);
  EXPECT_FALSE(a.evicted.has_value());
  EXPECT_FALSE(b.evicted.has_value());
  pt.lookup(1);  // no LRU effect from lookups needed; map refreshes below
  const MapResult c = pt.map(3, 300);  // set full: evicts the LRU (vpn 1)
  ASSERT_TRUE(c.evicted.has_value());
  EXPECT_EQ(c.evicted->first, 1u);
  EXPECT_EQ(c.evicted->second, 100u);
  EXPECT_EQ(pt.conflict_evictions(), 1u);
  EXPECT_FALSE(pt.lookup(1).has_value());
  EXPECT_TRUE(pt.lookup(2).has_value());
  EXPECT_TRUE(pt.lookup(3).has_value());
}

TEST(DiptaPageTable, RefreshDoesNotEvict) {
  PhysicalMemory pm(pm_cfg());
  DiptaConfig cfg;
  cfg.ways = 2;
  cfg.coverage_frames = 2;
  DiptaPageTable pt(pm, cfg);
  pt.map(1, 100);
  pt.map(2, 200);
  const MapResult r = pt.map(1, 101);  // refresh in place
  EXPECT_TRUE(r.replaced);
  EXPECT_FALSE(r.evicted.has_value());
  EXPECT_EQ(pt.conflict_evictions(), 0u);
}

TEST(DiptaAddressSpace, ConflictEvictionReleasesFrameAndRefaults) {
  PhysicalMemory pm(pm_cfg());
  DiptaConfig cfg;
  cfg.ways = 2;
  cfg.coverage_frames = 2;  // single set
  AddressSpace as(pm, std::make_unique<DiptaPageTable>(pm, cfg), false);
  int shootdowns = 0;
  as.set_shootdown_hook([&](Vpn) { ++shootdowns; });
  const std::uint64_t free0 = pm.free_frames();
  as.touch(0x1000, 0);
  as.touch(0x2000, 0);
  as.touch(0x3000, 0);  // evicts one of the first two
  EXPECT_EQ(as.stats().get("set_conflict_evictions"), 1u);
  EXPECT_EQ(pm.free_frames(), free0 - 2) << "evicted frame must be released";
  EXPECT_EQ(shootdowns, 1);
  // The evicted page re-faults on its next touch.
  const std::uint64_t faults = as.stats().get("demand_faults");
  as.touch(0x1000, 0);
  as.touch(0x2000, 0);
  EXPECT_GT(as.stats().get("demand_faults"), faults);
}

TEST(DiptaAddressSpace, PrefaultConflictEvictionsReleaseFrames) {
  // One 2-way set: from the third page on, every prefault fault evicts the
  // page mapped two faults earlier, whose reverse-map insert prefault_all()
  // still defers. The evicted frames must leave the reverse map for good.
  PhysicalMemory pm(pm_cfg());
  const std::uint64_t before = pm.free_frames();
  {
    DiptaConfig cfg;
    cfg.ways = 2;
    cfg.coverage_frames = 2;
    AddressSpace as(pm, std::make_unique<DiptaPageTable>(pm, cfg), false);
    const std::uint64_t with_table = pm.free_frames();
    as.add_region(VmRegion{"data", 0x100000, 40 * kPageSize, true});
    as.prefault_all();
    EXPECT_EQ(as.stats().get("set_conflict_evictions"), 38u);
    EXPECT_EQ(as.mapped_pages(), 2u);
    EXPECT_EQ(pm.free_frames(), with_table - 2);
  }
  EXPECT_EQ(pm.free_frames(), before);
}

TEST(DiptaMechanism, RegisteredInExtendedSet) {
  EXPECT_EQ(to_string(Mechanism::kDipta), "DIPTA");
  EXPECT_FALSE(uses_huge_pages(Mechanism::kDipta));
  EXPECT_TRUE(models_translation(Mechanism::kDipta));
  const WalkerConfig cfg = make_walker_config(Mechanism::kDipta);
  EXPECT_TRUE(cfg.pwc_levels.empty());
  // The paper's evaluation set stays at five mechanisms; the extended set
  // adds the related-work comparators (DIPTA, Hybrid).
  EXPECT_EQ(std::size(kAllMechanisms), 5u);
  EXPECT_EQ(std::size(kExtendedMechanisms), 7u);
}

TEST(DiptaMechanism, EndToEndRunCompletes) {
  RunSpec s;
  s.system = SystemKind::kNdp;
  s.cores = 1;
  s.mechanism = Mechanism::kDipta;
  s.workload = WorkloadKind::kRND;
  s.instructions_per_core = 15'000;
  s.warmup_refs = 500;
  s.scale = 1.0 / 64.0;
  const RunResult r = run_experiment(s);
  EXPECT_GT(r.total_cycles, 0u);
  EXPECT_NEAR(r.stats.average("walker.accesses_per_walk")->mean(), 1.0, 0.05);
}

}  // namespace
}  // namespace ndp
