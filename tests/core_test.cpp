// Tests for the paper's contribution: the flattened L2/L1 page table, the
// mechanism definitions, the MMU front-end (incl. walk coalescing and the
// stepwise MmuOp) and the system assembly.
#include <gtest/gtest.h>

#include "core/flat_page_table.h"
#include "core/mechanism.h"
#include "core/mmu.h"
#include "core/system.h"
#include "mmu_harness.h"
#include "translate/address_space.h"

namespace ndp {
namespace {

PhysMemConfig pm_cfg(std::uint64_t mb = 64) {
  PhysMemConfig cfg;
  cfg.bytes = mb << 20;
  cfg.noise_fraction = 0.0;
  cfg.seed = 7;
  return cfg;
}

// -------------------------------------------------------- FlatPageTable ---

TEST(FlatPageTable, MapLookupUnmapRemap) {
  PhysicalMemory pm(pm_cfg());
  FlatPageTable pt(pm);
  pt.map(0x12345, 77);
  EXPECT_EQ(*pt.lookup(0x12345), 77u);
  EXPECT_TRUE(pt.remap(0x12345, 78));
  EXPECT_EQ(*pt.lookup(0x12345), 78u);
  EXPECT_TRUE(pt.unmap(0x12345));
  EXPECT_FALSE(pt.lookup(0x12345).has_value());
}

TEST(FlatPageTable, WalkIsThreeSteps) {
  PhysicalMemory pm(pm_cfg());
  FlatPageTable pt(pm);
  pt.map(0xABCDE, 9);
  const WalkPath p = pt.walk(0xABCDE);
  ASSERT_TRUE(p.mapped);
  ASSERT_EQ(p.steps.size(), 3u) << "paper SV-B: 4 -> 3 sequential accesses";
  EXPECT_EQ(p.steps[0].level, 4u);
  EXPECT_EQ(p.steps[1].level, 3u);
  EXPECT_EQ(p.steps[2].level, WalkStep::kFlatLevel);
  EXPECT_EQ(p.pfn, 9u);
}

TEST(FlatPageTable, FlatNodeIsContiguousTwoMegabytes) {
  PhysicalMemory pm(pm_cfg());
  FlatPageTable pt(pm);
  // Two vpns in the same 1 GB region share one flattened node; their PTE
  // addresses differ by exactly their flat-index distance.
  pt.map(0x10000, 1);
  pt.map(0x10007, 2);
  const WalkPath a = pt.walk(0x10000);
  const WalkPath b = pt.walk(0x10007);
  EXPECT_EQ(pt.flat_node_count(), 1u);
  EXPECT_EQ(b.steps[2].pte_addr - a.steps[2].pte_addr, 7u * kPteSize);
  // The node spans a physically contiguous order-9 block.
  const Pfn base = pfn_of(a.steps[2].pte_addr);
  EXPECT_TRUE(pm.is_page_table_frame(base));
  EXPECT_TRUE(pm.is_page_table_frame(base + 511 - (base % 512)));
}

TEST(FlatPageTable, EighteenBitIndexCrossesL1Boundaries) {
  PhysicalMemory pm(pm_cfg());
  FlatPageTable pt(pm);
  // vpns 0x1FF and 0x200 straddle a classic PL1-node boundary but live in
  // the same flattened node.
  pt.map(0x1FF, 1);
  pt.map(0x200, 2);
  EXPECT_EQ(pt.flat_node_count(), 1u);
  const WalkPath a = pt.walk(0x1FF);
  const WalkPath b = pt.walk(0x200);
  EXPECT_EQ(b.steps[2].pte_addr - a.steps[2].pte_addr, kPteSize);
}

TEST(FlatPageTable, MapChargesTwoMegabyteNodeAllocation) {
  PhysicalMemory pm(pm_cfg());
  FlatPageTable pt(pm);
  const MapResult r = pt.map(5, 1);
  EXPECT_EQ(r.nodes_allocated, 2u);  // L3 node + flattened node
  EXPECT_EQ(r.bytes_allocated, kPageSize + FlatPageTable::kFlatEntries * kPteSize);
  const MapResult r2 = pt.map(6, 2);
  EXPECT_EQ(r2.nodes_allocated, 0u);
}

TEST(FlatPageTable, OccupancyMergesLastTwoLevels) {
  PhysicalMemory pm(pm_cfg());
  FlatPageTable pt(pm);
  for (Vpn v = 0; v < 1000; ++v) pt.map(v, v);
  const auto occ = pt.occupancy();
  ASSERT_EQ(occ.size(), 3u);
  EXPECT_EQ(occ[2].level, "PL2/PL1");
  EXPECT_EQ(occ[2].valid, 1000u);
  EXPECT_EQ(occ[2].capacity, FlatPageTable::kFlatEntries);
}

TEST(FlatPageTable, RejectsHugeMappings) {
  PhysicalMemory pm(pm_cfg());
  FlatPageTable pt(pm);
  EXPECT_DEATH(pt.map(0x200, 1, kHugePageShift), "4 KB");
}

TEST(FlatPageTable, MidPrefaultCompactionMovesFramesAwaitingTheirOwnerEntry) {
  // A pool shaped so that prefault's second 1 GB flat node must compact the
  // one window holding the prefault's latest data frames — frames whose
  // reverse-map inserts prefault_all() still defers when compaction moves
  // them. Every other window is pinned by page-table frames.
  PhysicalMemory pm(pm_cfg());
  const std::uint64_t before = pm.free_frames();
  const Vpn first = FlatPageTable::kFlatEntries - 512;
  const Pfn w = 8;  // the window data fills (pfns w*512 ...)
  std::vector<Pfn> pinned;
  {
    AddressSpace as(pm, std::make_unique<FlatPageTable>(pm), false);
    as.touch(first << kPageShift, 0);  // L3 node + first flat node, low pfns
    std::vector<Pfn> all;
    while (pm.free_frames() > 0)
      all.push_back(pm.alloc_frame(FrameUse::kPageTable));
    for (Pfn p : all)
      if (p >> 9 == w) pm.free_frame(p);
    // One movable occupant splits w into free blocks of order <= 8, which
    // the buddy hands out before the order-8 blocks freed below: the next
    // 511 data frames fill w exactly.
    ASSERT_EQ(pm.alloc_frame(FrameUse::kNoise), w << 9);
    for (Pfn p : all) {
      if (p >> 9 == w) continue;
      // Upper halves of the later windows: relocation targets.
      if (p >> 9 > w && (p & 511) >= 256) {
        pm.free_frame(p);
      } else {
        pinned.push_back(p);
      }
    }
    as.add_region(VmRegion{"data", first << kPageShift, 528 * kPageSize, true});
    as.prefault_all();
    EXPECT_EQ(as.stats().get("relocated_frames"), 511u);
    EXPECT_EQ(as.mapped_pages(), 528u);
    for (Vpn v = first; v < first + 528; ++v)
      ASSERT_TRUE(as.translate(v << kPageShift).has_value()) << v;
  }
  for (Pfn p : pinned) pm.free_frame(p);
  for (Pfn p = 0; p < pm.num_frames(); ++p)
    if (pm.use_of(p) == FrameUse::kNoise) pm.free_frame(p);
  EXPECT_EQ(pm.free_frames(), before);
}

// ------------------------------------------------------------ Mechanism ---

TEST(Mechanism, NamesAndProperties) {
  EXPECT_EQ(to_string(Mechanism::kNdpage), "NDPage");
  EXPECT_TRUE(uses_huge_pages(Mechanism::kHugePage));
  EXPECT_FALSE(uses_huge_pages(Mechanism::kNdpage));
  EXPECT_FALSE(models_translation(Mechanism::kIdeal));
  EXPECT_TRUE(models_translation(Mechanism::kRadix));
}

TEST(Mechanism, WalkerConfigsMatchPaper) {
  const WalkerConfig radix = make_walker_config(Mechanism::kRadix);
  EXPECT_EQ(radix.pwc_levels.size(), 4u);
  EXPECT_FALSE(radix.bypass_caches_for_metadata);

  const WalkerConfig ndpage = make_walker_config(Mechanism::kNdpage);
  EXPECT_EQ(ndpage.pwc_levels, (std::vector<unsigned>{4, 3}))
      << "paper SV-C: PWCs retained at L4/L3 only";
  EXPECT_TRUE(ndpage.bypass_caches_for_metadata) << "paper SV-A";

  const WalkerConfig ech = make_walker_config(Mechanism::kEch);
  EXPECT_TRUE(ech.pwc_levels.empty());
}

TEST(Mechanism, FactoryBuildsMatchingTables) {
  PhysicalMemory pm(pm_cfg(128));
  for (Mechanism m : kAllMechanisms) {
    auto pt = make_page_table(m, pm);
    ASSERT_NE(pt, nullptr);
    pt->map(123, 456);
    EXPECT_EQ(*pt->lookup(123), 456u) << to_string(m);
  }
}

// ------------------------------------------------------------------ Mmu ---

using test::MmuRig;
using test::run_op;
using test::translation_cycles;

TEST(Mmu, IdealTranslatesInstantly) {
  MmuRig rig(Mechanism::kIdeal);
  const MmuOp op = run_op(rig.mmu, 1234, 0x5000);
  EXPECT_EQ(op.translation_done(), 1234u);
  EXPECT_FALSE(op.walked());
  EXPECT_EQ(rig.mmu.counters().ideal_translations, 1u);
  ASSERT_TRUE(rig.space.translate(0x5000).has_value());
  EXPECT_EQ(op.pa(), *rig.space.translate(0x5000));
}

TEST(Mmu, ColdTranslationWalksAndFaults) {
  MmuRig rig;
  const MmuOp r = run_op(rig.mmu, 0, 0x7000);
  EXPECT_TRUE(r.walked());
  EXPECT_TRUE(r.faulted());
  EXPECT_GT(r.fault_cycles(), 0u);
  EXPECT_GT(translation_cycles(r), 1 + 12 + r.fault_cycles())
      << "both walks cost cycles";
  ASSERT_TRUE(rig.space.translate(0x7000).has_value());
  EXPECT_EQ(r.pa(), *rig.space.translate(0x7000));
  // Second access: L1 TLB hit, one cycle.
  const MmuOp r2 = run_op(rig.mmu, 10000000, 0x7000);
  EXPECT_FALSE(r2.walked());
  EXPECT_EQ(rig.mmu.counters().l1_hits, 1u);
  EXPECT_EQ(r2.translation_done(), 10000000u + 1);
  EXPECT_EQ(r2.pa(), r.pa());
}

TEST(Mmu, L2TlbCatchesL1Evictions) {
  MmuRig rig;
  // Prefault pages then touch enough distinct pages to spill L1 (64 entries)
  // but not L2 (1536).
  for (Vpn v = 0; v < 200; ++v) rig.space.touch(v << kPageShift, 0);
  Cycle t = 0;
  for (Vpn v = 0; v < 200; ++v) run_op(rig.mmu, t += 100000, v << kPageShift);
  const auto walks_before = rig.mmu.counters().walks;
  const auto l2_hits_before = rig.mmu.counters().l2_hits;
  // Revisit page 0: L1 evicted it long ago, L2 still holds it.
  const MmuOp r = run_op(rig.mmu, t += 100000, 0);
  EXPECT_EQ(translation_cycles(r), 1u + 12u);
  EXPECT_EQ(rig.mmu.counters().l2_hits, l2_hits_before + 1);
  EXPECT_EQ(rig.mmu.counters().walks, walks_before);
  EXPECT_EQ(r.pa(), *rig.space.translate(0));
}

TEST(MmuOp, ColdWalkIsTlbLookupsPwcProbeAndDependentPteReads) {
  MmuRig rig;
  rig.space.touch(0x9000, 0);
  // Oracle on a twin rig (separate state): both TLB lookups miss, one PWC
  // probe, then the radix path's four dependent PTE reads back to back,
  // then the data access.
  MmuRig twin;
  twin.space.touch(0x9000, 0);
  const WalkPath path = twin.space.page_table().walk(vpn_of(0x9000));
  ASSERT_EQ(path.steps.size(), 4u);
  Cycle expect = 500 + 1 + 12 + twin.mmu.walker().pwcs().latency();
  for (const WalkStep& s : path.steps)
    expect = twin.mem.access(expect, 0, s.pte_addr, AccessType::kRead,
                             AccessClass::kMetadata, false).finish;
  const PhysAddr pa = *twin.space.translate(0x9000);
  const Cycle expect_finish =
      twin.mem.access(expect, 0, pa, AccessType::kRead, AccessClass::kData,
                      false).finish;

  const MmuOp op = run_op(rig.mmu, 500, 0x9000);
  EXPECT_EQ(op.issue_time(), 500u);
  EXPECT_EQ(op.translation_done(), expect);
  EXPECT_EQ(op.pa(), pa);
  EXPECT_EQ(op.finish_time(), expect_finish);
  EXPECT_GT(op.finish_time(), op.translation_done());
}

TEST(MmuOp, CoalescesDuplicateWalks) {
  MmuRig rig;
  rig.space.touch(0xA000, 0);
  MmuOp a, b;
  const Cycle ta = a.begin(rig.mmu, 100, 0xA000, AccessType::kRead);
  // Second op to the same page while the first walk is in flight.
  const Cycle tb = b.begin(rig.mmu, 101, 0xA000, AccessType::kWrite);
  EXPECT_EQ(rig.mmu.counters().walks, 1u);
  EXPECT_EQ(rig.mmu.counters().coalesced_walks, 1u);
  // Drive both to completion (interleave by event time).
  MmuOp* ops[2] = {&a, &b};
  Cycle times[2] = {ta, tb};
  while (!a.done() || !b.done()) {
    const int i = (!a.done() && (b.done() || times[0] <= times[1])) ? 0 : 1;
    times[i] = ops[i]->step(times[i]);
  }
  EXPECT_EQ(rig.mmu.counters().walks, 1u) << "the second op must piggyback";
  EXPECT_GT(b.finish_time(), 0u);
}

TEST(MmuOp, FaultRetryLeavesPageMapped) {
  MmuRig rig;  // nothing prefaulted
  const MmuOp op = run_op(rig.mmu, 0, 0xB000);
  EXPECT_TRUE(op.faulted());
  EXPECT_GT(op.fault_cycles(), 0u);
  EXPECT_TRUE(rig.space.translate(0xB000).has_value());
}

// --------------------------------------------------------------- System ---

TEST(System, NdpAndCpuAssembly) {
  SystemConfig nc = SystemConfig::ndp(2, Mechanism::kNdpage);
  nc.phys_bytes = 256ull << 20;
  System ndp(nc);
  EXPECT_EQ(ndp.num_cores(), 2u);
  EXPECT_EQ(ndp.mem().config().dram.name, "HBM2");
  EXPECT_EQ(ndp.mem().l2(0), nullptr);
  EXPECT_TRUE(ndp.mmu(0).walker().config().bypass_caches_for_metadata);

  SystemConfig cc = SystemConfig::cpu(2, Mechanism::kRadix);
  cc.phys_bytes = 256ull << 20;
  System cpu(cc);
  EXPECT_NE(cpu.mem().l2(0), nullptr);
  EXPECT_NE(cpu.mem().l3(), nullptr);
  EXPECT_EQ(cpu.mem().config().dram.name, "DDR4-2400");
}

TEST(System, ShootdownReachesAllCoreTlbs) {
  // Both cores cache translations, then reclaim unmaps the oldest pages: the
  // hook System installs must invalidate them in every core's TLBs.
  SystemConfig sc = SystemConfig::ndp(2, Mechanism::kRadix);
  sc.phys_bytes = 64ull << 20;
  System sys(sc);
  constexpr Vpn kCached = 1024;
  Cycle t = 0;
  for (Vpn v = 0; v < kCached; ++v)
    for (unsigned c = 0; c < 2; ++c)
      t = run_op(sys.mmu(c), t, v << kPageShift).finish_time();
  AddressSpace& space = sys.space();
  const Vpn pool_pages = sc.phys_bytes >> kPageShift;
  for (Vpn v = kCached;
       v < pool_pages && space.stats().get("reclaim_events") == 0; ++v)
    space.touch(v << kPageShift, t);
  ASSERT_GT(space.stats().get("reclaim_events"), 0u);

  // Per core: TLB entries (L1 or L2) left for pages that are unmapped now.
  unsigned unmapped = 0, stale[2] = {0, 0};
  for (Vpn v = 0; v < kCached; ++v) {
    const VirtAddr va = v << kPageShift;
    if (space.translate(va)) continue;
    ++unmapped;
    for (unsigned c = 0; c < 2; ++c)
      stale[c] += sys.mmu(c).l1_dtlb().peek(va).has_value() +
                  sys.mmu(c).l2_tlb().peek(va).has_value();
  }
  EXPECT_GT(unmapped, 0u) << "reclaim must unmap some cached page";
  EXPECT_EQ(stale[0], 0u) << "core 0 kept entries for unmapped pages";
  EXPECT_EQ(stale[1], 0u) << "core 1 kept entries for unmapped pages";
}

TEST(System, CollectStatsHasComponentKeys) {
  SystemConfig sc = SystemConfig::ndp(1, Mechanism::kRadix);
  sc.phys_bytes = 256ull << 20;
  System sys(sc);
  sys.space().touch(0xD000, 0);
  run_op(sys.mmu(0), 0, 0xD000);
  const StatSet s = sys.collect_stats();
  EXPECT_GT(s.get("mmu.walks"), 0u);
  EXPECT_GT(s.get("walker.walks"), 0u);
  EXPECT_GT(s.get("tlb.l1d.miss"), 0u);
  sys.reset_stats();
  EXPECT_EQ(sys.collect_stats().get("mmu.walks"), 0u);
}

}  // namespace
}  // namespace ndp
