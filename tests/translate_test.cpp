// Tests for the translation substrate: radix/huge/ECH page tables, TLBs,
// PWCs, the walker's planning, and the address space (demand paging/reclaim).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "mmu_harness.h"
#include "os/phys_mem.h"
#include "translate/address_space.h"
#include "translate/dipta_page_table.h"
#include "translate/ech_page_table.h"
#include "translate/hybrid_page_table.h"
#include "translate/page_table.h"
#include "translate/pwc.h"
#include "translate/radix_page_table.h"
#include "translate/tlb.h"
#include "translate/walker.h"

namespace ndp {
namespace {

PhysMemConfig pm_cfg(std::uint64_t mb = 64, double noise = 0.0) {
  PhysMemConfig cfg;
  cfg.bytes = mb << 20;
  cfg.noise_fraction = noise;
  cfg.seed = 7;
  return cfg;
}

/// Steps of `plan` that issue a PTE read.
unsigned issued_reads(const Walker::WalkPlan& plan) {
  unsigned n = 0;
  for (std::size_t i = 0; i < plan.path.steps.size(); ++i)
    n += plan.executes(i) ? 1 : 0;
  return n;
}

// ---------------------------------------------------------------- Radix ---

TEST(RadixPageTable, MapLookupUnmap) {
  PhysicalMemory pm(pm_cfg());
  RadixPageTable pt(pm, 1);
  EXPECT_FALSE(pt.lookup(0x1234).has_value());
  pt.map(0x1234, 777);
  ASSERT_TRUE(pt.lookup(0x1234).has_value());
  EXPECT_EQ(*pt.lookup(0x1234), 777u);
  EXPECT_TRUE(pt.unmap(0x1234));
  EXPECT_FALSE(pt.lookup(0x1234).has_value());
  EXPECT_FALSE(pt.unmap(0x1234));
}

TEST(RadixPageTable, MapReportsNodeAllocations) {
  PhysicalMemory pm(pm_cfg());
  RadixPageTable pt(pm, 1);
  const MapResult r1 = pt.map(0, 1);
  EXPECT_EQ(r1.nodes_allocated, 3u);  // L3, L2, L1 under the root
  EXPECT_EQ(r1.bytes_allocated, 3 * kPageSize);
  const MapResult r2 = pt.map(1, 2);  // same L1 node
  EXPECT_EQ(r2.nodes_allocated, 0u);
  const MapResult r3 = pt.map(512, 3);  // same L2, new L1
  EXPECT_EQ(r3.nodes_allocated, 1u);
}

TEST(RadixPageTable, WalkStepsAreFourSequentialLevels) {
  PhysicalMemory pm(pm_cfg());
  RadixPageTable pt(pm, 1);
  pt.map(0xABCDE, 42);
  const WalkPath p = pt.walk(0xABCDE);
  ASSERT_TRUE(p.mapped);
  EXPECT_EQ(p.pfn, 42u);
  EXPECT_EQ(p.page_shift, kPageShift);
  ASSERT_EQ(p.steps.size(), 4u);
  for (unsigned i = 0; i < 4; ++i) {
    EXPECT_EQ(p.steps[i].level, 4 - i);
    EXPECT_EQ(p.steps[i].group, i) << "radix levels are sequential";
    EXPECT_TRUE(pm.is_page_table_frame(pfn_of(p.steps[i].pte_addr)));
  }
}

TEST(RadixPageTable, UnmappedWalkTruncates) {
  PhysicalMemory pm(pm_cfg());
  RadixPageTable pt(pm, 1);
  pt.map(0, 1);
  // Same L4 entry region, different L3 subtree: walk stops where the path
  // ends.
  const WalkPath p = pt.walk(1ull << 27);
  EXPECT_FALSE(p.mapped);
  EXPECT_LT(p.steps.size(), 4u);
}

TEST(RadixPageTable, RemapChangesFrameOnly) {
  PhysicalMemory pm(pm_cfg());
  RadixPageTable pt(pm, 1);
  pt.map(55, 100);
  EXPECT_TRUE(pt.remap(55, 200));
  EXPECT_EQ(*pt.lookup(55), 200u);
  EXPECT_FALSE(pt.remap(56, 300));
}

TEST(RadixPageTable, HugeMapCoversAlignedRange) {
  PhysicalMemory pm(pm_cfg());
  RadixPageTable pt(pm, 2);
  pt.map(0x200, 4096, kHugePageShift);  // vpn 0x200 is 2 MB aligned
  EXPECT_EQ(*pt.lookup(0x200), 4096u);
  EXPECT_EQ(*pt.lookup(0x200 + 0x1FF), 4096u + 0x1FF);
  const WalkPath p = pt.walk(0x200 + 5);
  ASSERT_TRUE(p.mapped);
  EXPECT_EQ(p.page_shift, kHugePageShift);
  EXPECT_EQ(p.steps.size(), 3u) << "huge walk ends at PL2";
  EXPECT_EQ(p.pfn, 4096u + 5);
}

TEST(RadixPageTable, SplinterMixes4kUnderHugeMode) {
  PhysicalMemory pm(pm_cfg());
  RadixPageTable pt(pm, 2);
  pt.map(0x999, 7, kPageShift);  // 4 KB splinter
  EXPECT_EQ(*pt.lookup(0x999), 7u);
  const WalkPath p = pt.walk(0x999);
  EXPECT_EQ(p.steps.size(), 4u) << "splinter walks to PL1";
  EXPECT_EQ(p.page_shift, kPageShift);
}

TEST(RadixPageTable, OccupancyCountsPerLevel) {
  PhysicalMemory pm(pm_cfg());
  RadixPageTable pt(pm, 1);
  // Fill one full L1 node (512 pages) and one entry of another.
  for (Vpn v = 0; v < 512; ++v) pt.map(v, v + 1);
  pt.map(512, 1000);
  const auto occ = pt.occupancy();
  ASSERT_EQ(occ.size(), 4u);
  EXPECT_EQ(occ[0].level, "PL4");
  EXPECT_EQ(occ[3].level, "PL1");
  EXPECT_EQ(occ[3].nodes, 2u);
  EXPECT_EQ(occ[3].valid, 513u);
  EXPECT_NEAR(occ[3].rate(), 513.0 / 1024.0, 1e-9);
  EXPECT_EQ(occ[0].valid, 1u);  // one L4 entry
}

TEST(RadixPageTable, FramesReturnedOnDestruction) {
  PhysicalMemory pm(pm_cfg());
  const std::uint64_t before = pm.free_frames();
  {
    RadixPageTable pt(pm, 1);
    for (Vpn v = 0; v < 2000; v += 17) pt.map(v, v);
    EXPECT_LT(pm.free_frames(), before);
  }
  EXPECT_EQ(pm.free_frames(), before);
}

TEST(RadixPageTable, LoadRejectsAFreeNodeList) {
  // Nodes are never freed before teardown, so a blob's free-node list is
  // always empty (the word stays for byte-identical blobs); a list naming
  // a node is rejected, state untouched.
  PhysicalMemory pm(pm_cfg());
  RadixPageTable pt(pm, 1);
  for (Vpn v = 0; v < 2000; v += 17) pt.map(v, v);
  BlobWriter out;
  ASSERT_TRUE(pt.save_state(out));
  std::vector<std::uint64_t> words = out.take();
  ASSERT_EQ(words.back(), 0u) << "empty free-node list";
  {
    BlobReader in(words);
    ASSERT_TRUE(pt.load_state(in));
  }
  words.back() = 1;
  words.push_back(pt.node_count() - 1);
  BlobReader in(words);
  EXPECT_FALSE(pt.load_state(in));
  EXPECT_EQ(pt.lookup(17 * 3), 17u * 3);
}

// ------------------------------------------------------------------ ECH ---

TEST(EchPageTable, MapLookupUnmapRemap) {
  PhysicalMemory pm(pm_cfg());
  EchPageTable pt(pm);
  pt.map(42, 99);
  EXPECT_EQ(*pt.lookup(42), 99u);
  EXPECT_TRUE(pt.remap(42, 100));
  EXPECT_EQ(*pt.lookup(42), 100u);
  EXPECT_TRUE(pt.unmap(42));
  EXPECT_FALSE(pt.lookup(42).has_value());
}

TEST(EchPageTable, WalkIsParallelProbes) {
  PhysicalMemory pm(pm_cfg());
  EchPageTable pt(pm);
  pt.map(1000, 5);
  const WalkPath p = pt.walk(1000);
  ASSERT_TRUE(p.mapped);
  ASSERT_EQ(p.steps.size(), 3u) << "d = 3 ways";
  for (const WalkStep& s : p.steps) {
    EXPECT_EQ(s.group, 0u) << "ways probe in parallel";
    EXPECT_EQ(s.level, WalkStep::kHashLevel);
    EXPECT_TRUE(pm.is_page_table_frame(pfn_of(s.pte_addr)));
  }
  // Probe addresses must hit distinct ways (distinct slots).
  std::set<PhysAddr> addrs;
  for (const WalkStep& s : p.steps) addrs.insert(s.pte_addr);
  EXPECT_EQ(addrs.size(), 3u);
}

TEST(EchPageTable, ResizesUnderLoadAndKeepsAllMappings) {
  PhysicalMemory pm(pm_cfg(128));
  EchConfig cfg;
  cfg.initial_entries_per_way = 1024;
  EchPageTable pt(pm, cfg);
  const std::uint64_t n = 20000;  // >> 3 * 1024 slots
  for (Vpn v = 0; v < n; ++v) pt.map(v * 7 + 1, v + 10);
  EXPECT_GT(pt.resizes(), 0u);
  EXPECT_EQ(pt.size(), n);
  for (Vpn v = 0; v < n; ++v) ASSERT_EQ(*pt.lookup(v * 7 + 1), v + 10);
  EXPECT_LE(pt.load_factor(), 0.75);
}

TEST(EchPageTable, OverwriteDoesNotGrow) {
  PhysicalMemory pm(pm_cfg());
  EchPageTable pt(pm);
  pt.map(5, 1);
  pt.map(5, 2);
  EXPECT_EQ(pt.size(), 1u);
  EXPECT_EQ(*pt.lookup(5), 2u);
}

TEST(EchPageTable, ProbeWidthGroupsWalkSteps) {
  PhysicalMemory pm(pm_cfg());
  EchConfig cfg;
  cfg.ways = 4;
  cfg.probe_width = 2;
  EchPageTable pt(pm, cfg);
  pt.map(1000, 5);
  const WalkPath p = pt.walk(1000);
  ASSERT_EQ(p.steps.size(), 4u);
  // Probes go out two at a time: groups {0,0,1,1}.
  EXPECT_EQ(p.steps[0].group, 0u);
  EXPECT_EQ(p.steps[1].group, 0u);
  EXPECT_EQ(p.steps[2].group, 1u);
  EXPECT_EQ(p.steps[3].group, 1u);
}

std::vector<std::uint64_t> saved(const PageTable& pt) {
  BlobWriter out;
  EXPECT_TRUE(pt.save_state(out));
  return out.take();
}

/// 64-bit FNV-1a over the words' little-endian bytes.
std::uint64_t fnv1a(const std::vector<std::uint64_t>& words) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (std::uint64_t w : words)
    for (unsigned b = 0; b < 8; ++b) {
      h ^= (w >> (8 * b)) & 0xFF;
      h *= 0x100000001B3ull;
    }
  return h;
}

TEST(EchPageTable, LayoutPinnedAcrossResizesAndRehomedEntries) {
  // Where each entry lands decides a walk's probe addresses, and every
  // displacement draws on the table's RNG, so results depend on the exact
  // rehash order. The golden grids cross at most 2 resizes and never
  // re-home a pending entry; a single allowed displacement makes inserts
  // fail, so here resize() re-homes the entry the failed insert left out.
  PhysicalMemory pm(pm_cfg());
  EchConfig cfg;
  cfg.initial_entries_per_way = 16;
  cfg.max_displacements = 1;
  EchPageTable pt(pm, cfg);
  std::vector<Vpn> vpns(3000);
  for (std::size_t i = 0; i < vpns.size(); ++i) vpns[i] = 0x4000 + 3 * i;
  Rng rng(2024);
  for (std::size_t i = vpns.size() - 1; i > 0; --i)
    std::swap(vpns[i], vpns[rng.below(i + 1)]);
  std::uint64_t rehomed = 0;
  auto map = [&](Vpn vpn, Pfn pfn) {
    // One resize per failed insert, plus one up front above the load bound.
    const bool grows = pt.load_factor() > cfg.max_load_factor;
    rehomed += pt.map(vpn, pfn).nodes_allocated - (grows ? 1 : 0);
  };
  for (std::size_t i = 0; i < vpns.size(); ++i) {
    map(vpns[i], 1000 + i);
    if (i % 7 == 3) pt.unmap(vpns[i / 2]);
    if (i % 11 == 5) map(vpns[i / 3], 50000 + i);  // overwrite or re-insert
  }
  // Then ascending, as prefault maps: each vpn lies above every earlier one.
  const Vpn top = 0x4000 + 3 * vpns.size();
  const Vpn end = top + 3000;
  for (Vpn v = top; v < end; ++v) {
    map(v, v);
    if (v % 13 == 0) pt.unmap(v - 40);
  }
  EXPECT_EQ(rehomed, 9u);
  // Recorded with a rehash that copied the live entries out first and
  // presence probes that always read the table: the faster paths must land
  // every entry in the same slot, with the same RNG draws.
  const std::vector<std::uint64_t> words = saved(pt);
  EXPECT_EQ(pt.resizes(), 10u);
  EXPECT_EQ(pt.entries_per_way(), 16384u);
  EXPECT_EQ(fnv1a(words), 0x25a9ae62533d83bcull);

  // A fresh table over a pool restored to the same point, as
  // System::adopt_prepared builds one, answers exactly like the original.
  PhysicalMemory pm2(pm_cfg());
  EchPageTable copy(pm2, cfg);
  pm2.restore(pm.snapshot());
  BlobReader in(words);
  ASSERT_TRUE(copy.load_state(in));
  EXPECT_EQ(saved(copy), words);
  Vpn top_mapped = 0;
  for (Vpn v = 0x3FF0; v < end + 64; ++v) {
    ASSERT_EQ(copy.lookup(v), pt.lookup(v)) << v;
    if (pt.lookup(v)) top_mapped = v;
  }
  for (EchPageTable* t : {&pt, &copy}) {
    const std::uint64_t n = t->size();
    t->map(top_mapped, 7);
    EXPECT_EQ(t->size(), n) << "re-mapping a present vpn overwrites it";
    EXPECT_EQ(*t->lookup(top_mapped), 7u);
  }
  // Both go on identically: same displacements, same resizes, same blocks.
  for (Vpn v = 0; v < 400; ++v) {
    pt.map(end + v * 5, v);
    copy.map(end + v * 5, v);
  }
  EXPECT_EQ(saved(copy), saved(pt));
}

/// The fields of an ECH save_state blob, to rebuild it with one defect.
struct EchBlob {
  struct Way {
    std::vector<std::uint64_t> vpns, pfns, valid, blocks;
  };
  std::uint64_t ways = 0, epw = 0;
  std::vector<Way> way;
  std::uint64_t pending_vpn = 0, pending_pfn = 0, pending_valid = 0;
  std::uint64_t live = 0, resizes = 0;
  std::vector<std::uint64_t> rng;

  static EchBlob of(const EchPageTable& pt) {
    const std::vector<std::uint64_t> words = saved(pt);
    BlobReader in(words);
    EchBlob b;
    EXPECT_EQ(in.str(), "ECH");
    b.ways = in.u64();
    b.epw = in.u64();
    b.way.resize(b.ways);
    for (Way& w : b.way) {
      w.vpns = in.u64s();
      w.pfns = in.u64s();
      w.valid = in.u64s();
      w.blocks = in.u64s();
    }
    b.pending_vpn = in.u64();
    b.pending_pfn = in.u64();
    b.pending_valid = in.u64();
    b.live = in.u64();
    b.resizes = in.u64();
    b.rng = in.u64s();
    EXPECT_TRUE(in.done());
    return b;
  }
  std::vector<std::uint64_t> words() const {
    BlobWriter out;
    out.str("ECH");
    out.u64(ways);
    out.u64(epw);
    for (const Way& w : way)
      for (const auto* column : {&w.vpns, &w.pfns, &w.valid, &w.blocks})
        out.u64s(*column);
    out.u64(pending_vpn);
    out.u64(pending_pfn);
    out.u64(pending_valid);
    out.u64(live);
    out.u64(resizes);
    out.u64s(rng);
    return out.take();
  }
};

/// What a walker and the OS see of a table: its geometry, its size and the
/// probe addresses and result of one walk.
std::vector<std::uint64_t> observed(const EchPageTable& pt, Vpn vpn) {
  std::vector<std::uint64_t> out{pt.entries_per_way(), pt.size()};
  const WalkPath p = pt.walk(vpn);
  for (const WalkStep& s : p.steps) out.push_back(s.pte_addr);
  out.push_back(p.mapped ? p.pfn : ~0ull);
  return out;
}

/// Expect the blob `edit` makes of `good` to fail load_state and leave `pt`
/// as it was.
template <class Edit>
void expect_rejected(EchPageTable& pt, const EchBlob& good, const char* what,
                     Edit edit) {
  const std::vector<std::uint64_t> before = observed(pt, 0x120);
  EchBlob b = good;
  edit(b);
  const std::vector<std::uint64_t> words = b.words();
  BlobReader in(words);
  EXPECT_FALSE(pt.load_state(in)) << what;
  EXPECT_EQ(observed(pt, 0x120), before) << what;
}

TEST(EchPageTable, LoadRejectsMalformedBlobs) {
  // Store blobs are bytes read from disk. 512 K entries per way need two
  // 2 MB blocks each, so a blob can be one block short without being empty.
  PhysicalMemory pm(pm_cfg());
  EchConfig cfg;
  cfg.ways = 2;
  cfg.initial_entries_per_way = 1ull << 19;
  EchPageTable pt(pm, cfg);
  for (Vpn v = 0x100; v < 0x180; ++v) pt.map(v, v + 7);
  const EchBlob good = EchBlob::of(pt);
  ASSERT_EQ(good.way[0].blocks.size(), 2u);
  {
    PhysicalMemory pm2(pm_cfg());
    EchPageTable other(pm2, cfg);
    pm2.restore(pm.snapshot());
    const std::vector<std::uint64_t> words = good.words();
    BlobReader in(words);
    ASSERT_TRUE(other.load_state(in)) << "the unmodified blob loads";
  }
  const Pfn data = pm.alloc_frame(FrameUse::kData);
  expect_rejected(pt, good, "blocks short", [](EchBlob& b) {
    b.way[1].blocks.pop_back();
  });
  expect_rejected(pt, good, "blocks long", [](EchBlob& b) {
    b.way[0].blocks.push_back(b.way[0].blocks[0]);
  });
  expect_rejected(pt, good, "block on a data frame", [&](EchBlob& b) {
    b.way[0].blocks[1] = data;
  });
  expect_rejected(pt, good, "block past the pool", [&](EchBlob& b) {
    b.way[1].blocks[0] = pm.num_frames();
  });
  expect_rejected(pt, good, "block in two ways", [](EchBlob& b) {
    b.way[1].blocks[1] = b.way[0].blocks[0];
  });
  expect_rejected(pt, good, "block misaligned", [](EchBlob& b) {
    b.way[0].blocks[0] += 1;
  });
  EXPECT_EQ(*pt.lookup(0x120), 0x127u);
}

TEST(EchPageTable, LoadRejectsMiscountedAndTruncatedBlobs) {
  PhysicalMemory pm(pm_cfg());
  EchConfig cfg;
  cfg.initial_entries_per_way = 16;  // one valid word per way, 48 bits spare
  EchPageTable pt(pm, cfg);
  for (Vpn v = 0x11A; v < 0x124; ++v) pt.map(v, v + 7);
  const std::vector<std::uint64_t> before = saved(pt);
  const EchBlob good = EchBlob::of(pt);
  expect_rejected(pt, good, "live over-counted", [](EchBlob& b) { ++b.live; });
  expect_rejected(pt, good, "live under-counted", [](EchBlob& b) { --b.live; });
  expect_rejected(pt, good, "valid bit flipped", [](EchBlob& b) {
    b.way[0].valid[0] ^= 1;
  });
  expect_rejected(pt, good, "valid bit past the way", [](EchBlob& b) {
    b.way[1].valid[0] |= 1ull << 40;
    ++b.live;
  });
  expect_rejected(pt, good, "wrong ways", [](EchBlob& b) { b.ways = 4; });
  expect_rejected(pt, good, "vpn column short", [](EchBlob& b) {
    b.way[2].vpns.pop_back();
  });
  expect_rejected(pt, good, "rng short", [](EchBlob& b) { b.rng.pop_back(); });
  for (std::size_t n = 0; n < before.size(); ++n) {
    BlobReader in(before.data(), n);
    EXPECT_FALSE(pt.load_state(in)) << "truncated to " << n << " words";
  }
  EXPECT_EQ(saved(pt), before);
  EXPECT_EQ(*pt.lookup(0x120), 0x127u);
}

// --------------------------------------------------------------- Hybrid ---

HybridConfig tiny_hybrid() {
  HybridConfig cfg;
  cfg.flat_bits = 12;  // 4096 slots: conflicts are easy to construct
  return cfg;
}

TEST(HybridPageTable, FlatHitIsOneProbeConflictFallsBackToRadix) {
  PhysicalMemory pm(pm_cfg());
  HybridPageTable pt(pm, tiny_hybrid());
  const Vpn a = 0x123;
  const Vpn b = a + (1ull << 12);  // same direct-mapped slot as `a`
  pt.map(a, 7);
  pt.map(b, 8);  // conflicts: first-come-first-served keeps `a` in the window
  EXPECT_EQ(pt.flat_live(), 1u);
  EXPECT_EQ(pt.fallback_live(), 1u);
  EXPECT_EQ(*pt.lookup(a), 7u);
  EXPECT_EQ(*pt.lookup(b), 8u);

  // Window resident: exactly one probe step, tagged with the hybrid level.
  const WalkPath wa = pt.walk(a);
  ASSERT_TRUE(wa.mapped);
  EXPECT_EQ(wa.pfn, 7u);
  ASSERT_EQ(wa.steps.size(), 1u);
  EXPECT_EQ(wa.steps[0].level, WalkStep::kHybridLevel);
  EXPECT_TRUE(pm.is_page_table_frame(pfn_of(wa.steps[0].pte_addr)));

  // Conflict victim: the probe plus a full radix walk, serialized after it.
  const WalkPath wb = pt.walk(b);
  ASSERT_TRUE(wb.mapped);
  EXPECT_EQ(wb.pfn, 8u);
  ASSERT_EQ(wb.steps.size(), 5u);
  EXPECT_EQ(wb.steps[0].level, WalkStep::kHybridLevel);
  EXPECT_EQ(wb.steps[0].group, 0u);
  for (unsigned i = 1; i < 5; ++i) {
    EXPECT_EQ(wb.steps[i].level, 5 - i);  // L4..L1
    EXPECT_GT(wb.steps[i].group, wb.steps[i - 1].group);
  }
}

TEST(HybridPageTable, UnmapRemapCoverBothHomes) {
  PhysicalMemory pm(pm_cfg());
  HybridPageTable pt(pm, tiny_hybrid());
  const Vpn a = 0x55, b = a + (1ull << 12);
  pt.map(a, 1);
  pt.map(b, 2);
  EXPECT_TRUE(pt.remap(a, 11));
  EXPECT_TRUE(pt.remap(b, 22));
  EXPECT_EQ(*pt.lookup(a), 11u);
  EXPECT_EQ(*pt.lookup(b), 22u);
  // A VPN stays in its home: remapping via map() keeps the fallback entry
  // in the fallback even once the window slot frees up.
  EXPECT_TRUE(pt.unmap(a));
  EXPECT_EQ(pt.flat_live(), 0u);
  pt.map(b, 23);
  EXPECT_EQ(pt.fallback_live(), 1u);
  EXPECT_EQ(pt.flat_live(), 0u);
  EXPECT_EQ(*pt.lookup(b), 23u);
  EXPECT_TRUE(pt.unmap(b));
  EXPECT_FALSE(pt.lookup(b).has_value());
  EXPECT_EQ(pt.fallback_live(), 0u);
}

TEST(Walker, PwcHitNeverSkipsHybridFlatProbe) {
  // The PWC caches radix interior entries; a hit may skip L4..hit-level of
  // the fallback walk but must never swallow the mandatory flat-window
  // probe (step 0 of every hybrid walk).
  PhysicalMemory pm(pm_cfg());
  HybridPageTable pt(pm, tiny_hybrid());
  const Vpn a = 0x321, b = a + (1ull << 12), c = a + (2ull << 12);
  pt.map(a, 1);  // window resident
  pt.map(b, 2);  // fallback (same slot)
  pt.map(c, 3);  // fallback, same radix PL1 node as b's neighborhood
  WalkerConfig cfg;
  cfg.pwc_levels = {4, 3};
  Walker w(pt, cfg);
  // b's fallback walk on cold PWCs: probe + 4 radix reads.
  Walker::WalkPlan plan;
  w.plan_into(b, plan);
  EXPECT_EQ(issued_reads(plan), 5u);
  w.finish(b, plan, 0, 0, 5);  // refills the L4/L3 PWCs
  // c shares b's L4/L3 prefix: the PWC hit skips L4+L3 but the flat probe
  // and the L2/L1 reads still issue.
  w.plan_into(c, plan);
  EXPECT_TRUE(plan.path.mapped);
  EXPECT_EQ(plan.first_step, 3u) << "probe, L4, L3 resolved by the PWC";
  EXPECT_TRUE(plan.executes(0)) << "the flat-window probe always issues";
  EXPECT_FALSE(plan.executes(1));
  EXPECT_FALSE(plan.executes(2));
  EXPECT_EQ(issued_reads(plan), 3u) << "flat probe + L2 + L1";
}

// ------------------------------------------------------------------ TLB ---

TEST(Tlb, HitAfterInsert) {
  Tlb tlb(TlbConfig{.name = "t", .entries = 16, .ways = 4, .latency = 1});
  EXPECT_FALSE(tlb.lookup(0x5000).has_value());
  tlb.insert(0x5000, 42, kPageShift);
  auto e = tlb.lookup(0x5123);  // same page, different offset
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->pfn, 42u);
  EXPECT_EQ(tlb.counters().hits, 1u);
  EXPECT_EQ(tlb.counters().misses, 1u);
}

TEST(Tlb, HugeEntryCoversTwoMegabytes) {
  Tlb tlb(TlbConfig{.name = "t", .entries = 16, .ways = 4, .latency = 1,
                    .huge_entries = 8, .huge_ways = 4});
  tlb.insert(0x200000, 512, kHugePageShift);
  auto e = tlb.lookup(0x200000 + 0x12345);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->page_shift, kHugePageShift);
  EXPECT_EQ(e->pfn, 512u);
  // Outside the huge page: miss.
  EXPECT_FALSE(tlb.lookup(0x400000).has_value());
}

TEST(Tlb, NoHugeCapacityDropsHugeInserts) {
  Tlb tlb(TlbConfig{.name = "l2", .entries = 16, .ways = 4, .latency = 12,
                    .huge_entries = 0, .huge_ways = 1});
  tlb.insert(0x200000, 512, kHugePageShift);
  EXPECT_FALSE(tlb.lookup(0x200000).has_value())
      << "this TLB does not cache 2 MB translations";
  tlb.insert(0x200000, 512, kPageShift);
  EXPECT_TRUE(tlb.lookup(0x200000).has_value());
}

TEST(Tlb, LruEvictionWithinSet) {
  Tlb tlb(TlbConfig{.name = "t", .entries = 4, .ways = 4, .latency = 1});
  // One set: 4 ways.
  for (VirtAddr p = 0; p < 4; ++p) tlb.insert(p << kPageShift, p, kPageShift);
  tlb.lookup(0);                       // page 0 most recent
  tlb.insert(4ull << kPageShift, 4, kPageShift);  // evicts page 1
  EXPECT_TRUE(tlb.lookup(0).has_value());
  EXPECT_FALSE(tlb.lookup(1ull << kPageShift).has_value());
  EXPECT_EQ(tlb.counters().evictions, 1u);
}

TEST(Tlb, InvalidateAndFlush) {
  Tlb tlb(TlbConfig{.name = "t", .entries = 16, .ways = 4, .latency = 1});
  tlb.insert(0x1000, 1, kPageShift);
  tlb.invalidate(0x1000);
  EXPECT_FALSE(tlb.lookup(0x1000).has_value());
  tlb.insert(0x2000, 2, kPageShift);
  tlb.flush();
  EXPECT_FALSE(tlb.lookup(0x2000).has_value());
  EXPECT_EQ(tlb.counters().flushes, 1u);
}

TEST(Tlb, PeekDoesNotTouchStats) {
  Tlb tlb(TlbConfig{.name = "t", .entries = 16, .ways = 4, .latency = 1});
  tlb.insert(0x1000, 1, kPageShift);
  const auto before = tlb.counters().hits + tlb.counters().misses;
  EXPECT_TRUE(tlb.peek(0x1000).has_value());
  EXPECT_FALSE(tlb.peek(0x9000).has_value());
  EXPECT_EQ(tlb.counters().hits + tlb.counters().misses, before);
}

// ------------------------------------------------------------------ PWC ---

TEST(Pwc, PrefixSharingHits) {
  Pwc pwc(2, PwcConfig{});
  const Vpn a = 0x12345678;
  const Vpn b = (a & ~0x1FFull) | 0x45;  // same level-2 prefix
  EXPECT_FALSE(pwc.lookup(a));
  pwc.insert(a);
  EXPECT_TRUE(pwc.lookup(b));
  EXPECT_DOUBLE_EQ(pwc.hit_rate(), 0.5);
}

TEST(PwcSet, DeepestHitWins) {
  PwcSet set({4, 3, 2}, PwcConfig{});
  const Vpn vpn = 0xABCDE12;
  EXPECT_EQ(set.deepest_hit(vpn), 0u);
  set.fill(vpn, {4, 3});
  EXPECT_EQ(set.deepest_hit(vpn), 3u);
  set.fill(vpn, {2});
  EXPECT_EQ(set.deepest_hit(vpn), 2u);
  EXPECT_TRUE(set.has_level(4));
  EXPECT_FALSE(set.has_level(1));
}

TEST(PwcSet, EmptySetHasNoLatency) {
  PwcSet none({}, PwcConfig{});
  EXPECT_EQ(none.latency(), 0u);
  PwcSet some({4, 3}, PwcConfig{});
  EXPECT_GT(some.latency(), 0u);
}

// --------------------------------------------------------------- Walker ---

struct WalkerRig {
  PhysicalMemory pm{pm_cfg()};
  RadixPageTable pt{pm, 1};
};

TEST(Walker, FullWalkWithoutPwcsDoesFourAccesses) {
  WalkerRig rig;
  rig.pt.map(0x777, 9);
  WalkerConfig cfg;
  cfg.pwc_levels = {};
  Walker w(rig.pt, cfg);
  Walker::WalkPlan plan;
  w.plan_into(0x777, plan);
  EXPECT_TRUE(plan.path.mapped);
  EXPECT_EQ(plan.path.pfn, 9u);
  EXPECT_EQ(plan.start_latency, 0u) << "no PWC to probe";
  EXPECT_EQ(issued_reads(plan), 4u);
}

TEST(Walker, PwcHitSkipsUpperLevels) {
  WalkerRig rig;
  rig.pt.map(0x777, 9);
  rig.pt.map(0x778, 10);
  WalkerConfig cfg;  // default PWCs at 4,3,2,1
  Walker w(rig.pt, cfg);
  Walker::WalkPlan plan;
  w.plan_into(0x777, plan);
  EXPECT_GT(plan.start_latency, 0u);
  EXPECT_EQ(issued_reads(plan), 4u);
  w.finish(0x777, plan, 0, 0, 4);
  // Second walk in the same PL1 node: PWC level 2 (or deeper) hits.
  w.plan_into(0x778, plan);
  EXPECT_LE(issued_reads(plan), 1u);
  EXPECT_GT(plan.first_step, 0u);
}

TEST(Walker, BypassedWalkLeavesL1Clean) {
  MmuConfig cfg;
  cfg.walker.pwc_levels = {};
  cfg.walker.bypass_caches_for_metadata = true;
  test::MmuRig rig(Mechanism::kRadix, cfg);
  rig.space.touch(0x999ull << kPageShift, 0);
  test::run_op(rig.mmu, 0, 0x999ull << kPageShift);
  EXPECT_EQ(rig.mem.l1(0).counters().hits(AccessClass::kMetadata), 0u);
  EXPECT_EQ(rig.mem.l1(0).counters().misses(AccessClass::kMetadata), 0u);
  EXPECT_EQ(rig.mem.counters().bypassed, 4u);
}

TEST(Walker, StatsAccumulate) {
  test::MmuRig rig;
  rig.space.touch(1ull << kPageShift, 0);
  test::run_op(rig.mmu, 0, 1ull << kPageShift);
  rig.mmu.l1_dtlb().flush();
  rig.mmu.l2_tlb().flush();
  test::run_op(rig.mmu, 50000, 1ull << kPageShift);
  const Walker& w = rig.mmu.walker();
  EXPECT_EQ(w.counters().walks, 2u);
  EXPECT_GT(w.counters().mem_accesses, 0u);
  EXPECT_GT(w.snapshot().average("latency")->mean(), 0.0);
}

// --------------------------------------------------------- AddressSpace ---

TEST(AddressSpace, PrefaultMapsDeclaredRegions) {
  PhysicalMemory pm(pm_cfg());
  AddressSpace as(pm, std::make_unique<RadixPageTable>(pm, 1), false);
  as.add_region(VmRegion{"a", 0x100000, 16 * kPageSize, true});
  as.add_region(VmRegion{"cold", 0x200000, 16 * kPageSize, false});
  as.prefault_all();
  EXPECT_TRUE(as.translate(0x100000).has_value());
  EXPECT_TRUE(as.translate(0x100000 + 15 * kPageSize).has_value());
  EXPECT_FALSE(as.translate(0x200000).has_value()) << "demand region stays cold";
  EXPECT_EQ(as.mapped_pages(), 16u);
}

TEST(AddressSpace, TouchFaultsOnceAndChargesCost) {
  PhysicalMemory pm(pm_cfg());
  AddressSpace as(pm, std::make_unique<RadixPageTable>(pm, 1), false);
  const auto r1 = as.touch(0x5000, 100);
  EXPECT_TRUE(r1.faulted);
  EXPECT_GE(r1.cost, pm.costs().fault_4k());
  const auto r2 = as.touch(0x5000, 200);
  EXPECT_FALSE(r2.faulted);
  EXPECT_EQ(r2.cost, 0u);
}

TEST(AddressSpace, FaultLockSerializesConcurrentFaults) {
  PhysicalMemory pm(pm_cfg());
  AddressSpace as(pm, std::make_unique<RadixPageTable>(pm, 1), false);
  const auto r1 = as.touch(0x1000, 1000);
  // A second fault arriving while the first is in service waits it out.
  const auto r2 = as.touch(0x2000, 1001);
  EXPECT_GT(r2.cost, r1.cost) << "lock wait must be charged";
  // A fault long after the lock released pays only its own work.
  const auto r3 = as.touch(0x3000, 10'000'000);
  EXPECT_LE(r3.cost, r1.cost + 1);
}

TEST(AddressSpace, HugeModeMapsTwoMegabytes) {
  PhysicalMemory pm(pm_cfg());
  AddressSpace as(pm, std::make_unique<RadixPageTable>(pm, 2), true);
  const auto r = as.touch(0x200000ull + 0x3456, 0);
  EXPECT_TRUE(r.faulted);
  EXPECT_GE(r.cost, pm.costs().fault_2m_base());
  // The whole 2 MB extent is now resident.
  EXPECT_TRUE(as.translate(0x200000).has_value());
  EXPECT_TRUE(as.translate(0x3FF000).has_value());
  EXPECT_EQ(as.mapped_pages(), 512u);
}

TEST(AddressSpace, CompactionRemapKeepsTranslationsCoherent) {
  // 3% boot noise removes pristine 2 MB blocks; filling most of the pool
  // with data leaves no noise-only window, so the order-9 table block below
  // must compact over *data* frames and rewire the page table via remap().
  PhysicalMemory pm(pm_cfg(64, 0.03));
  AddressSpace as(pm, std::make_unique<RadixPageTable>(pm, 1), false);
  const std::uint64_t to_map = pm.num_frames() * 3 / 4;
  for (Vpn v = 0; v < to_map; ++v)
    as.touch((0x100000ull + v) << kPageShift, 0);
  ASSERT_FALSE(pm.buddy().can_alloc(9));
  ASSERT_GE(pm.free_frames(), 1024u);

  const Pfn blk = pm.alloc_table_block(9);
  EXPECT_GT(as.stats().get("relocated_frames"), 0u);
  // Every translation still resolves after the relocations.
  for (Vpn v = 0; v < to_map; v += 97) {
    const VirtAddr va = (0x100000ull + v) << kPageShift;
    ASSERT_TRUE(as.translate(va).has_value());
  }
  pm.free_table_block(blk, 9);
}

/// A snapshot lists every owned frame once, with the page it backs, however
/// much of the reverse map has been built.
void expect_snapshot_owns_mapped_pages(const AddressSpace& as) {
  BlobWriter out;
  as.save_state(out);
  const std::vector<std::uint64_t> words = out.take();
  BlobReader in(words);
  ASSERT_EQ(in.str(), "AddressSpace");
  in.u64();  // huge mode
  const std::uint64_t regions = in.u64();
  for (std::uint64_t i = 0; i < regions; ++i) {
    in.str();
    in.u64();
    in.u64();
    in.u64();
  }
  const std::vector<std::uint64_t> pfns = in.u64s();
  const std::vector<std::uint64_t> vpns = in.u64s();
  ASSERT_TRUE(in.ok());
  ASSERT_EQ(pfns.size(), as.mapped_pages());
  ASSERT_EQ(vpns.size(), pfns.size());
  for (std::size_t i = 0; i < pfns.size(); ++i)
    ASSERT_EQ(as.translate(vpns[i] << kPageShift), frame_base(pfns[i])) << i;
}

TEST(AddressSpace, DestructionReturnsEveryFrame) {
  // Every path that moves a data frame in or out of the reverse map —
  // prefault, compaction relocation, demand faults, reclaim — and then
  // destruction: the pool must end exactly as full as it started, and a
  // snapshot lists every owned frame. Without relocation or reclaim nothing
  // reads the map, so it is never built and both read the owner log.
  for (const bool relocate : {true, false}) {
    SCOPED_TRACE(relocate ? "relocation and reclaim" : "no relocation");
    PhysicalMemory pm(pm_cfg(64, 0.03));
    const std::uint64_t before = pm.free_frames();
    {
      AddressSpace as(pm, std::make_unique<RadixPageTable>(pm, 1), false);
      const std::uint64_t pages = pm.num_frames() * (relocate ? 3 : 1) / 4;
      as.add_region(VmRegion{"data", 0x100000ull << kPageShift,
                             pages * kPageSize, true});
      as.prefault_all();
      ASSERT_EQ(as.mapped_pages(), pages);
      if (relocate) {
        const Pfn blk = pm.alloc_table_block(9);
        EXPECT_GT(as.stats().get("relocated_frames"), 0u);
        pm.free_table_block(blk, 9);
        Vpn v = 0x800000;
        while (as.stats().get("reclaim_events") == 0) {
          ASSERT_LT(v, 0x800000u + pm.num_frames()) << "reclaim never ran";
          as.touch(v++ << kPageShift, 0);
        }
        EXPECT_GT(as.stats().get("reclaimed_frames"), 0u);
      } else {
        for (Vpn v = 0x800000; v < 0x800100; ++v) as.touch(v << kPageShift, 0);
        EXPECT_EQ(as.stats().get("relocated_frames"), 0u);
        EXPECT_EQ(as.stats().get("reclaim_events"), 0u);
      }
      expect_snapshot_owns_mapped_pages(as);
      EXPECT_LT(pm.free_frames(), before);
    }
    EXPECT_EQ(pm.free_frames(), before);
  }
}

TEST(AddressSpace, RelocationAfterReclaimAppliesTheOwnerLogInOrder) {
  // Reclaim logs the frames it frees, and the faults after it take those
  // frames again at once, so the owner log holds an insert, an erase and an
  // insert for one frame. Nothing reads the reverse map until compaction
  // relocates a frame; its flush must apply the log in order, so every
  // relocated frame is found and the map holds each resident page once.
  PhysicalMemory pm(pm_cfg(192, 0.03));
  AddressSpace as(pm, std::make_unique<RadixPageTable>(pm, 1), false);
  Vpn v = 0x100000;
  while (as.stats().get("reclaim_events") == 0) as.touch(v++ << kPageShift, 0);
  for (int i = 0; i < 32; ++i) as.touch(v++ << kPageShift, 0);
  EXPECT_EQ(as.reverse_map_size(), 0u);
  ASSERT_FALSE(pm.buddy().can_alloc(9));
  const Pfn blk = pm.alloc_table_block(9);
  EXPECT_GT(as.stats().get("relocated_frames"), 0u);
  EXPECT_EQ(as.reverse_map_size(), as.mapped_pages());
  expect_snapshot_owns_mapped_pages(as);
  pm.free_table_block(blk, 9);
}

TEST(AddressSpace, DiptaPrefaultEvictionsLeaveTheReverseMapUnbuilt) {
  // One 2-way DIPTA set: from the third page on every prefault fault
  // evicts a page, and the next fault takes the freed frame again. The
  // evictions are logged, not applied, so nothing builds the reverse map,
  // and a snapshot applies the log in order.
  PhysicalMemory pm(pm_cfg());
  DiptaConfig cfg;
  cfg.ways = 2;
  cfg.coverage_frames = 2;
  AddressSpace as(pm, std::make_unique<DiptaPageTable>(pm, cfg), false);
  as.add_region(VmRegion{"data", 0x100000, 40 * kPageSize, true});
  as.prefault_all();
  ASSERT_EQ(as.stats().get("set_conflict_evictions"), 38u);
  EXPECT_EQ(as.reverse_map_size(), 0u);
  expect_snapshot_owns_mapped_pages(as);
}

TEST(AddressSpace, PrefaultMapsRunsAboveTheHighestMappedPage) {
  // A leaf's first page allocates its node and maps alone; the rest of the
  // leaf maps as one run. Pages below the highest mapped vpn (an
  // overlapping region) are looked up one by one and never remapped.
  PhysicalMemory pm(pm_cfg());
  AddressSpace as(pm, std::make_unique<RadixPageTable>(pm, 1), false);
  as.add_region(VmRegion{"a", 0x200000, 1024 * kPageSize, true});
  as.add_region(VmRegion{"b", 0x300000, 512 * kPageSize, true});
  as.prefault_all();
  EXPECT_EQ(as.prefault_pages(), 1024u);
  EXPECT_EQ(as.prefault_run_pages(), 1024u - 2u);
  EXPECT_EQ(as.mapped_pages(), 1024u);
  EXPECT_EQ(as.stats().get("fault_4k"), 1024u);
  expect_snapshot_owns_mapped_pages(as);
}

/// An AddressSpace save_state blob with its owner lists editable; the
/// words after them are kept verbatim.
struct SpaceBlob {
  std::vector<std::uint64_t> head, opfns, ovpns, tail;

  static SpaceBlob of(const AddressSpace& as) {
    BlobWriter out;
    as.save_state(out);
    const std::vector<std::uint64_t> words = out.take();
    BlobReader in(words);
    in.str();
    in.u64();
    const std::uint64_t regions = in.u64();
    for (std::uint64_t i = 0; i < regions; ++i) {
      in.str();
      in.u64();
      in.u64();
      in.u64();
    }
    SpaceBlob b;
    const std::size_t at = words.size() - in.remaining();
    b.head.assign(words.begin(), words.begin() + at);
    b.opfns = in.u64s();
    b.ovpns = in.u64s();
    EXPECT_TRUE(in.ok());
    b.tail.assign(words.end() - in.remaining(), words.end());
    return b;
  }
  std::vector<std::uint64_t> words() const {
    BlobWriter out;
    out.append(head);
    out.u64s(opfns);
    out.u64s(ovpns);
    out.append(tail);
    return out.take();
  }
};

TEST(AddressSpace, LoadRejectsMalformedOwnerLists) {
  // Owned frames are saved in ascending order, once each, inside the pool;
  // a blob read from disk that breaks that is rejected, state untouched.
  PhysicalMemory pm(pm_cfg());
  AddressSpace as(pm, std::make_unique<RadixPageTable>(pm, 1), false);
  as.add_region(VmRegion{"data", 0x100000ull << kPageShift, 64 * kPageSize,
                         true});
  as.prefault_all();
  const SpaceBlob good = SpaceBlob::of(as);
  const std::vector<std::uint64_t> before = good.words();
  ASSERT_EQ(good.opfns.size(), 64u);
  {
    BlobReader in(before);
    ASSERT_TRUE(as.load_state(in)) << "the unmodified blob loads";
  }
  std::vector<std::pair<std::string, SpaceBlob>> bad;
  auto add = [&](const char* what, auto edit) {
    SpaceBlob b = good;
    edit(b);
    bad.emplace_back(what, std::move(b));
  };
  add("unsorted", [](SpaceBlob& b) { std::swap(b.opfns[0], b.opfns[1]); });
  add("duplicated", [](SpaceBlob& b) { b.opfns[1] = b.opfns[0]; });
  add("past the pool", [&](SpaceBlob& b) { b.opfns.back() = pm.num_frames(); });
  add("vpn column short", [](SpaceBlob& b) { b.ovpns.pop_back(); });
  for (const auto& [what, blob] : bad) {
    const std::vector<std::uint64_t> words = blob.words();
    BlobReader in(words);
    EXPECT_FALSE(as.load_state(in)) << what;
    EXPECT_EQ(SpaceBlob::of(as).words(), before) << what;
  }
}

TEST(AddressSpace, HugeModeDestructionReturnsBlocksAndSplinters) {
  PhysicalMemory pm(pm_cfg(64));
  const std::uint64_t before = pm.free_frames();
  std::vector<Pfn> pins;
  {
    AddressSpace as(pm, std::make_unique<RadixPageTable>(pm, 2), true);
    as.touch(0x200000, 0);
    ASSERT_EQ(as.stats().get("fault_2m"), 1u);
    // Pin one unmovable frame in every 2 MB window: no block is free and
    // compaction has no window to assemble, so the next fault splinters.
    std::vector<Pfn> taken;
    while (pm.free_frames() > 0)
      taken.push_back(pm.alloc_frame(FrameUse::kPageTable));
    for (Pfn f : taken) {
      if (f % 512 == 0) {
        pins.push_back(f);
      } else {
        pm.free_frame(f);
      }
    }
    as.touch(0x800000, 0);
    ASSERT_EQ(as.stats().get("fault_2m_fallback"), 1u);
    EXPECT_EQ(as.mapped_pages(), 512u + 1u);
    EXPECT_TRUE(as.translate(0x800000).has_value());
  }
  for (Pfn f : pins) pm.free_frame(f);
  EXPECT_EQ(pm.free_frames(), before);
}

TEST(AddressSpace, ReclaimEvictsWhenMemoryLow) {
  // 192 MB pool: the low watermark (64 MB) is reachable quickly.
  PhysicalMemory pm(pm_cfg(192));
  AddressSpace as(pm, std::make_unique<RadixPageTable>(pm, 1), false);
  int shootdowns = 0;
  as.set_shootdown_hook([&](Vpn) { ++shootdowns; });
  const std::uint64_t total = pm.num_frames();
  // Touch pages until well past the watermark.
  Vpn v = 0x400000;
  while (pm.free_frames() > total / 8) as.touch(v++ << kPageShift, 0);
  const std::uint64_t faults_before = as.stats().get("demand_faults");
  for (int i = 0; i < 20000; ++i) as.touch(v++ << kPageShift, 0);
  EXPECT_GT(as.stats().get("reclaim_events"), 0u);
  EXPECT_GT(as.stats().get("reclaimed_frames"), 0u);
  EXPECT_GT(shootdowns, 0);
  EXPECT_GT(as.stats().get("demand_faults"), faults_before);
  // Reclaimed pages are unmapped: an early page should be gone.
  EXPECT_FALSE(as.translate(0x400000ull << kPageShift).has_value());
}

}  // namespace
}  // namespace ndp
