// Tests for the OS substrate: buddy allocator and physical-memory manager
// (noise injection, compaction, huge allocation, table blocks).
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/blob.h"
#include "common/rng.h"
#include "os/buddy.h"
#include "os/phys_mem.h"

namespace ndp {
namespace {

constexpr std::uint64_t kFrames = 16 * 1024;  // 64 MB pool

TEST(Buddy, StartsFullyFree) {
  BuddyAllocator b(kFrames);
  EXPECT_EQ(b.free_frames(), kFrames);
  EXPECT_EQ(b.largest_available_order(), int(BuddyAllocator::kMaxOrder));
  EXPECT_DOUBLE_EQ(b.fragmentation(), 1.0 - 1024.0 / kFrames);
}

TEST(Buddy, AllocAlignedAndSized) {
  BuddyAllocator b(kFrames);
  for (unsigned order = 0; order <= BuddyAllocator::kMaxOrder; ++order) {
    auto f = b.alloc(order);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(*f % (1ull << order), 0u) << "block must be size-aligned";
    b.free(*f, order);
  }
  EXPECT_EQ(b.free_frames(), kFrames);
}

TEST(Buddy, SplitAndCoalesce) {
  BuddyAllocator b(kFrames);
  auto a0 = b.alloc(0);
  ASSERT_TRUE(a0);
  EXPECT_EQ(b.free_frames(), kFrames - 1);
  // The max-order block containing a0 is split; freeing restores it.
  b.free(*a0, 0);
  EXPECT_EQ(b.largest_available_order(), int(BuddyAllocator::kMaxOrder));
}

TEST(Buddy, ExhaustionReturnsNullopt) {
  BuddyAllocator b(1ull << BuddyAllocator::kMaxOrder);  // one max block
  auto big = b.alloc(BuddyAllocator::kMaxOrder);
  ASSERT_TRUE(big);
  EXPECT_FALSE(b.alloc(0).has_value());
  b.free(*big, BuddyAllocator::kMaxOrder);
  EXPECT_TRUE(b.alloc(0).has_value());
}

TEST(Buddy, AllocSpecificSplitsAroundFrame) {
  BuddyAllocator b(kFrames);
  EXPECT_TRUE(b.alloc_specific(1234));
  EXPECT_FALSE(b.is_free(1234));
  EXPECT_FALSE(b.alloc_specific(1234)) << "already taken";
  EXPECT_EQ(b.free_frames(), kFrames - 1);
  // Everything around it still allocatable.
  auto n = b.alloc(0);
  ASSERT_TRUE(n);
  EXPECT_NE(*n, 1234u);
  b.free(1234, 0);
  b.free(*n, 0);
  EXPECT_EQ(b.free_frames(), kFrames);
  EXPECT_EQ(b.largest_available_order(), int(BuddyAllocator::kMaxOrder));
}

TEST(Buddy, FragmentationBlocksLargeOrders) {
  BuddyAllocator b(1ull << BuddyAllocator::kMaxOrder);
  // Take one frame in the middle: no max-order block remains.
  ASSERT_TRUE(b.alloc_specific(512));
  EXPECT_FALSE(b.alloc(BuddyAllocator::kMaxOrder).has_value());
  EXPECT_GT(b.fragmentation(), 0.0);
}

TEST(Buddy, RandomStressPreservesInvariants) {
  // Property test: random allocs/frees never overlap and always restore the
  // pool when everything is released.
  BuddyAllocator b(kFrames);
  Rng rng(77);
  std::vector<std::pair<Pfn, unsigned>> held;
  std::set<Pfn> owned;
  for (int it = 0; it < 3000; ++it) {
    if (held.empty() || rng.chance(0.55)) {
      const unsigned order = static_cast<unsigned>(rng.below(6));
      auto f = b.alloc(order);
      if (!f) continue;
      for (std::uint64_t i = 0; i < (1ull << order); ++i) {
        ASSERT_TRUE(owned.insert(*f + i).second) << "overlapping allocation";
      }
      held.push_back({*f, order});
    } else {
      const std::size_t k = rng.below(held.size());
      auto [base, order] = held[k];
      held.erase(held.begin() + static_cast<long>(k));
      for (std::uint64_t i = 0; i < (1ull << order); ++i) owned.erase(base + i);
      b.free(base, order);
    }
    ASSERT_EQ(b.free_frames(), kFrames - owned.size());
  }
  for (auto [base, order] : held) b.free(base, order);
  EXPECT_EQ(b.free_frames(), kFrames);
  EXPECT_EQ(b.largest_available_order(), int(BuddyAllocator::kMaxOrder));
}

PhysMemConfig small_pm(double noise = 0.03) {
  PhysMemConfig cfg;
  cfg.bytes = kFrames * kPageSize;
  cfg.noise_fraction = noise;
  cfg.seed = 99;
  return cfg;
}

std::vector<std::uint64_t> saved(const BuddyAllocator& b) {
  BlobWriter out;
  b.save_state(out);
  return out.take();
}

TEST(Buddy, AllocRunMatchesSingleFrameAllocs) {
  // alloc_run(n) against n alloc(0) calls on seeded fragmented pools: boot
  // noise, then frees of some of it and a few larger blocks, so runs start
  // in a split block and span many blocks of mixed orders.
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(seed);
    BuddyAllocator runs(kFrames);
    Rng rng(seed);
    std::vector<Pfn> noise;
    while (noise.size() < kFrames / 16) {
      const Pfn f = rng.below(kFrames);
      if (runs.alloc_specific(f)) noise.push_back(f);
    }
    for (Pfn f : noise)
      if (rng.below(3) == 0) runs.free(f, 0);
    for (unsigned order : {2u, 4u, 0u, 3u}) ASSERT_TRUE(runs.alloc(order));
    BuddyAllocator singles = runs;
    for (std::uint64_t n : {1u, 2u, 3u, 7u, 64u, 511u, 513u, 1000u, 4096u}) {
      SCOPED_TRACE(n);
      std::vector<Pfn> got(n);
      runs.alloc_run(n, got.data());
      std::vector<Pfn> want;
      for (std::uint64_t i = 0; i < n; ++i) want.push_back(*singles.alloc(0));
      ASSERT_EQ(got, want);
      ASSERT_EQ(saved(runs), saved(singles));
    }
    // The last run empties the pool.
    std::vector<Pfn> rest(runs.free_frames());
    runs.alloc_run(rest.size(), rest.data());
    for (Pfn f : rest) ASSERT_EQ(f, *singles.alloc(0));
    EXPECT_FALSE(singles.alloc(0).has_value());
    EXPECT_EQ(saved(runs), saved(singles));
  }
}

TEST(PhysMem, AllocFramesMatchesSingleFrameAllocs) {
  PhysMemConfig cfg;
  cfg.bytes = kFrames * kPageSize;
  cfg.noise_fraction = 0.05;
  cfg.seed = 11;
  PhysicalMemory runs(cfg), singles(cfg);
  // Past the ~800 single frames beside noise pages, into larger blocks.
  std::vector<Pfn> got(6000);
  runs.alloc_frames(got.size(), FrameUse::kData, got.data());
  for (Pfn f : got) {
    ASSERT_EQ(singles.alloc_frame(FrameUse::kData), f);
    EXPECT_EQ(runs.use_of(f), FrameUse::kData);
  }
  EXPECT_EQ(runs.stats().get("frame_alloc"), 6000u);
  BlobWriter a, b;
  runs.stats().save_state(a);
  singles.stats().save_state(b);
  EXPECT_EQ(a.take(), b.take());
  const PhysMemImage x = runs.snapshot(), y = singles.snapshot();
  EXPECT_EQ(saved(x.buddy), saved(y.buddy));
  EXPECT_EQ(x.use, y.use);
  EXPECT_EQ(x.win_movable, y.win_movable);
  EXPECT_EQ(x.win_unmovable, y.win_unmovable);
}

TEST(PhysMem, NoiseInjectionFragmentsPool) {
  PhysicalMemory pm(small_pm(0.05));
  const auto expected = static_cast<std::uint64_t>(0.05 * kFrames);
  EXPECT_EQ(pm.stats().get("noise_frames"), expected);
  EXPECT_EQ(pm.free_frames(), kFrames - expected);
  // With 5% scattered noise, pristine 2 MB blocks are essentially gone.
  EXPECT_LT(pm.buddy().largest_available_order(), 10);
}

TEST(PhysMem, FrameUseTracking) {
  PhysicalMemory pm(small_pm(0.0));
  const Pfn d = pm.alloc_frame(FrameUse::kData);
  const Pfn t = pm.alloc_frame(FrameUse::kPageTable);
  EXPECT_EQ(pm.use_of(d), FrameUse::kData);
  EXPECT_TRUE(pm.is_page_table_frame(t));
  EXPECT_FALSE(pm.is_page_table_frame(d));
  pm.free_frame(d);
  EXPECT_EQ(pm.use_of(d), FrameUse::kFree);
}

TEST(PhysMem, HugeAllocWithoutNoiseIsDirect) {
  PhysicalMemory pm(small_pm(0.0));
  const auto r = pm.alloc_huge();
  EXPECT_FALSE(r.fell_back);
  EXPECT_FALSE(r.used_compaction);
  EXPECT_EQ(r.base % 512, 0u);
  EXPECT_EQ(r.cost, pm.costs().fault_2m_base());
  pm.free_huge(r.base);
}

TEST(PhysMem, HugeAllocCompactsThroughNoise) {
  PhysicalMemory pm(small_pm(0.05));
  // Direct order-9 blocks may or may not survive the noise injection.
  const auto r = pm.alloc_huge();
  ASSERT_FALSE(r.fell_back);
  if (r.used_compaction) {
    EXPECT_GT(r.frames_moved, 0u);
    EXPECT_GT(r.cost, pm.costs().fault_2m_base());
  }
  // The block is real: all 512 frames owned.
  for (std::uint64_t i = 0; i < 512; ++i)
    EXPECT_EQ(pm.use_of(r.base + i), FrameUse::kHugePart);
  pm.free_huge(r.base);
}

TEST(PhysMem, CompactionRelocatesDataWithHook) {
  PhysicalMemory pm(small_pm(0.0));
  // Fill the pool with data, then free a scattered third of it: every 2 MB
  // window still holds data, so a huge allocation must compact and the
  // relocation hook must fire for each moved data frame.
  std::vector<Pfn> data;
  while (pm.free_frames() > 0) data.push_back(pm.alloc_frame(FrameUse::kData));
  std::set<Pfn> freed;
  for (std::size_t i = 0; i < data.size(); i += 3) {
    pm.free_frame(data[i]);
    freed.insert(data[i]);
  }
  ASSERT_FALSE(pm.buddy().can_alloc(9)) << "setup must fragment";

  std::uint64_t relocations = 0;
  pm.set_relocate_hook([&](Pfn oldf, Pfn newf) {
    ++relocations;
    EXPECT_NE(oldf, newf);
    EXPECT_EQ(pm.use_of(newf), FrameUse::kData);
  });
  const auto r = pm.alloc_huge();
  pm.set_relocate_hook(nullptr);
  ASSERT_FALSE(r.fell_back);
  EXPECT_TRUE(r.used_compaction);
  EXPECT_EQ(relocations, r.frames_moved);
  EXPECT_GT(relocations, 0u);
  EXPECT_GT(r.cost, pm.costs().fault_2m_base());
}

TEST(PhysMem, TableBlockAllocatesContiguousAndTagged) {
  PhysicalMemory pm(small_pm(0.04));
  const Pfn base = pm.alloc_table_block(9);  // needs compaction under noise
  for (std::uint64_t i = 0; i < 512; ++i)
    EXPECT_TRUE(pm.is_page_table_frame(base + i));
  pm.free_table_block(base, 9);
  EXPECT_FALSE(pm.is_page_table_frame(base));
}

TEST(PhysMem, HugeFallbackWhenMemoryExhausted) {
  PhysicalMemory pm(small_pm(0.0));
  // Drain almost everything.
  std::vector<Pfn> frames;
  while (pm.free_frames() > 256) frames.push_back(pm.alloc_frame(FrameUse::kData));
  const auto r = pm.alloc_huge();
  EXPECT_TRUE(r.fell_back);
  for (Pfn f : frames) pm.free_frame(f);
}

TEST(PhysMem, TeardownIgnoresFreesUntilRestore) {
  PhysicalMemory pm(small_pm(0.0));
  const PhysMemImage boot = pm.snapshot();
  const Pfn frame = pm.alloc_frame(FrameUse::kData);
  const Pfn block = pm.alloc_table_block(2);
  const auto huge = pm.alloc_huge();
  ASSERT_FALSE(huge.fell_back);
  const std::uint64_t held = pm.free_frames();
  const std::uint64_t freed_before = pm.stats().get("frame_free");

  pm.begin_teardown();
  EXPECT_TRUE(pm.tearing_down());
  pm.free_frame(frame);
  pm.free_table_block(block, 2);
  pm.free_huge(huge.base);
  EXPECT_EQ(pm.free_frames(), held) << "a dying pool takes nothing back";
  EXPECT_EQ(pm.use_of(frame), FrameUse::kData);
  EXPECT_TRUE(pm.is_page_table_frame(block));
  EXPECT_EQ(pm.use_of(huge.base), FrameUse::kHugePart);
  EXPECT_EQ(pm.stats().get("frame_free"), freed_before);

  pm.restore(boot);
  EXPECT_FALSE(pm.tearing_down());
  EXPECT_EQ(pm.free_frames(), kFrames);
  const Pfn again = pm.alloc_frame(FrameUse::kData);
  pm.free_frame(again);
  EXPECT_EQ(pm.free_frames(), kFrames) << "restore() re-arms frees";
  EXPECT_EQ(pm.use_of(again), FrameUse::kFree);
}

TEST(OsCosts, FaultCostOrdering) {
  const OsCosts c;
  EXPECT_GT(c.fault_2m_base(), 30 * c.fault_4k())
      << "2 MB faults must be far heavier than 4 KB faults";
}

}  // namespace
}  // namespace ndp
