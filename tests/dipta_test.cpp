// Tests for the DIPTA-style restricted-associativity comparator (extension
// beyond the paper's five mechanisms; paper SVIII related work).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/mechanism.h"
#include "core/system.h"
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

std::vector<std::uint64_t> saved(const DiptaPageTable& pt) {
  BlobWriter out;
  EXPECT_TRUE(pt.save_state(out));
  return out.take();
}

/// The fields of a DIPTA save_state blob, to rebuild it with one defect.
struct DiptaBlob {
  std::uint64_t ways = 0, num_sets = 0;
  std::vector<std::uint64_t> sets, vpns, pfns, lrus, tags;
  std::uint64_t tick = 0, live = 0, conflicts = 0;

  static DiptaBlob of(const DiptaPageTable& pt) {
    const std::vector<std::uint64_t> words = saved(pt);
    BlobReader in(words);
    DiptaBlob b;
    EXPECT_EQ(in.str(), "DIPTA");
    b.ways = in.u64();
    b.num_sets = in.u64();
    b.sets = in.u64s();
    b.vpns = in.u64s();
    b.pfns = in.u64s();
    b.lrus = in.u64s();
    b.tags = in.u64s();
    b.tick = in.u64();
    b.live = in.u64();
    b.conflicts = in.u64();
    EXPECT_TRUE(in.done());
    return b;
  }
  std::vector<std::uint64_t> words() const {
    BlobWriter out;
    out.str("DIPTA");
    out.u64(ways);
    out.u64(num_sets);
    for (const auto* column : {&sets, &vpns, &pfns, &lrus, &tags})
      out.u64s(*column);
    out.u64(tick);
    out.u64(live);
    out.u64(conflicts);
    return out.take();
  }
};

TEST(DiptaPageTable, SnapshotFollowsMappedPagesNotThePool) {
  // The default 16 GB pool: 1 M four-way sets. A dense table would save
  // 3 words per way plus a valid bit, 12.6 M words; 1,000 mapped pages
  // fill at most 1,000 sets of one set id and three 4-word columns each.
  const SystemConfig sc = SystemConfig::ndp(1, "dipta");
  const auto base =
      std::make_shared<const SystemImage>(System::prepare_image(sc));
  System sys(sc, *base);
  sys.space().add_region(VmRegion{"data", 0x10000000, 1000 * kPageSize, true});
  sys.space().prefault_all();
  const auto& pt =
      static_cast<const DiptaPageTable&>(sys.space().page_table());
  ASSERT_EQ(pt.num_sets(), (16ull << 30) / kPageSize / 4);
  const auto snap = sys.snapshot_prepared(base);
  ASSERT_NE(snap, nullptr);
  EXPECT_LE(snap->pt_state.size(), 1000u * (1 + 3 * 4) + 64);
  // The timing model still sees every set.
  EXPECT_EQ(pt.occupancy()[0].capacity, pt.num_sets() * 4);
  EXPECT_EQ(pt.occupancy()[0].valid, 1000u);
}

TEST(DiptaPageTable, SaveLoadRoundTripsSparseState) {
  PhysicalMemory pm(pm_cfg());
  DiptaConfig cfg;
  cfg.coverage_frames = 256;  // 64 sets: conflicts and refills happen
  DiptaPageTable pt(pm, cfg);
  for (Vpn v = 0; v < 600; ++v) pt.map(v * 7, 1000 + v);
  for (Vpn v = 0; v < 600; v += 3) pt.unmap(v * 7);
  ASSERT_GT(pt.conflict_evictions(), 0u);
  const DiptaBlob blob = DiptaBlob::of(pt);
  for (std::size_t i = 1; i < blob.sets.size(); ++i)
    EXPECT_LT(blob.sets[i - 1], blob.sets[i]) << "sets save in ascending order";

  // A second pool built alike gives the copy the same tag blocks, as
  // restoring the snapshot's pool would.
  PhysicalMemory pm2(pm_cfg());
  DiptaPageTable copy(pm2, cfg);
  const std::vector<std::uint64_t> words = blob.words();
  BlobReader in(words);
  ASSERT_TRUE(copy.load_state(in));
  EXPECT_EQ(saved(copy), saved(pt));
  // Both tables go on identically: same victims, same reported evictions.
  for (Vpn v = 0; v < 100; ++v) {
    const MapResult a = pt.map(5000 + v, v);
    const MapResult b = copy.map(5000 + v, v);
    EXPECT_EQ(a.evicted, b.evicted) << v;
  }
  EXPECT_EQ(saved(copy), saved(pt));
}

TEST(DiptaPageTable, LoadRejectsMalformedSparseBlobs) {
  // Store blobs are bytes read from disk: every malformed one must fail
  // and leave the table as it was.
  PhysicalMemory pm(pm_cfg());
  DiptaPageTable pt(pm);
  for (Vpn v = 0x100; v < 0x140; ++v) pt.map(v, v + 7);
  const std::vector<std::uint64_t> before = saved(pt);
  const DiptaBlob good = DiptaBlob::of(pt);
  ASSERT_GE(good.sets.size(), 3u);
  {
    PhysicalMemory pm2(pm_cfg());
    DiptaPageTable other(pm2);
    const std::vector<std::uint64_t> words = good.words();
    BlobReader in(words);
    ASSERT_TRUE(other.load_state(in)) << "the unmodified blob loads";
  }

  std::vector<std::pair<std::string, DiptaBlob>> bad;
  auto add = [&](const char* what, auto edit) {
    DiptaBlob b = good;
    edit(b);
    bad.emplace_back(what, std::move(b));
  };
  add("sets unsorted", [](DiptaBlob& b) { std::swap(b.sets[0], b.sets[1]); });
  add("set duplicated", [](DiptaBlob& b) { b.sets[1] = b.sets[0]; });
  add("set == num_sets", [&](DiptaBlob& b) { b.sets.back() = pt.num_sets(); });
  add("set far out of range", [](DiptaBlob& b) { b.sets.back() = ~0ull >> 1; });
  add("one set too many",
      [&](DiptaBlob& b) { b.sets.push_back(pt.num_sets() - 1); });
  add("one set too few", [](DiptaBlob& b) { b.sets.pop_back(); });
  add("vpn column short", [](DiptaBlob& b) { b.vpns.pop_back(); });
  add("pfn column long", [](DiptaBlob& b) { b.pfns.push_back(0); });
  add("lru column short", [](DiptaBlob& b) { b.lrus.pop_back(); });
  add("tag blocks short", [](DiptaBlob& b) { b.tags.pop_back(); });
  add("live miscounted", [](DiptaBlob& b) { ++b.live; });
  add("wrong ways", [](DiptaBlob& b) { b.ways = 8; });
  add("wrong set count", [](DiptaBlob& b) { b.num_sets /= 2; });
  for (const auto& [what, blob] : bad) {
    const std::vector<std::uint64_t> words = blob.words();
    BlobReader in(words);
    EXPECT_FALSE(pt.load_state(in)) << what;
    EXPECT_EQ(saved(pt), before) << what;
  }
  const std::vector<std::uint64_t> words = good.words();
  for (std::size_t n = 0; n < words.size(); ++n) {
    BlobReader in(words.data(), n);
    EXPECT_FALSE(pt.load_state(in)) << "truncated to " << n << " words";
  }
  EXPECT_EQ(saved(pt), before);
  EXPECT_EQ(*pt.lookup(0x120), 0x127u);
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
