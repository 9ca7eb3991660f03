// SoA-TLB conformance: the structure-of-arrays Tlb (translate/tlb.h) must be
// behaviorally identical to the per-way array-of-structs design it replaced.
//
// The reference model below is the old layout spelled out: one struct per
// way with an explicit valid flag, page-size-split sub-TLBs, LRU refresh on
// hit, refresh-on-reinsert, first-invalid-then-oldest victim selection, and
// eviction counting only when a valid way is displaced. The fuzz drives both
// implementations with one op stream over a deliberately tiny VA range (to
// force set conflicts and evictions) and checks every lookup/peek result and
// every counter — so any SoA scan/victim/accounting divergence, including in
// the huge-page sub-TLB, fails loudly rather than drifting the goldens.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "translate/tlb.h"

namespace ndp {
namespace {

// The pre-SoA design: per-way entry objects with a valid flag.
class RefTlb {
 public:
  explicit RefTlb(const TlbConfig& cfg) {
    small_.ways.assign(cfg.entries, {});
    small_.num_ways = cfg.ways;
    small_.sets = cfg.entries / cfg.ways;
    if (cfg.huge_entries > 0) {
      huge_.ways.assign(cfg.huge_entries, {});
      huge_.num_ways = cfg.huge_ways;
      huge_.sets = cfg.huge_entries / cfg.huge_ways;
    }
  }

  std::optional<TlbEntry> lookup(VirtAddr va) {
    ++tick_;
    for (auto [sub, shift] : subs()) {
      if (Way* w = find(*sub, va, shift)) {
        w->lru = tick_;
        ++hits;
        return TlbEntry{w->pfn, shift};
      }
    }
    ++misses;
    return std::nullopt;
  }

  std::optional<TlbEntry> peek(VirtAddr va) const {
    for (auto [sub, shift] : subs()) {
      if (const Way* w = find(*const_cast<Sub*>(sub), va, shift))
        return TlbEntry{w->pfn, shift};
    }
    return std::nullopt;
  }

  void insert(VirtAddr va, Pfn pfn, unsigned page_shift) {
    ++tick_;
    Sub& a = page_shift == kPageShift ? small_ : huge_;
    if (a.ways.empty()) return;  // no capacity for this page size
    if (Way* w = find(a, va, page_shift)) {
      w->pfn = pfn;
      w->lru = tick_;
      return;
    }
    const std::size_t base = base_of(a, va, page_shift);
    Way* victim = nullptr;
    for (unsigned w = 0; w < a.num_ways; ++w) {
      Way& cand = a.ways[base + w];
      if (!cand.valid) {
        victim = &cand;
        break;
      }
      if (!victim || cand.lru < victim->lru) victim = &cand;
    }
    if (victim->valid) ++evictions;
    victim->valid = true;
    victim->vpn = va >> page_shift;
    victim->pfn = pfn;
    victim->lru = tick_;
  }

  void invalidate(VirtAddr va) {
    for (auto [sub, shift] : subs())
      if (Way* w = find(*sub, va, shift)) w->valid = false;
  }

  std::uint64_t hits = 0, misses = 0, evictions = 0;

 private:
  struct Way {
    bool valid = false;
    Vpn vpn = 0;
    Pfn pfn = 0;
    std::uint64_t lru = 0;
  };
  struct Sub {
    std::vector<Way> ways;  ///< sets x num_ways, row-major
    unsigned num_ways = 1;
    unsigned sets = 1;
  };

  std::array<std::pair<Sub*, unsigned>, 2> subs() const {
    auto* self = const_cast<RefTlb*>(this);
    return {{{&self->small_, kPageShift}, {&self->huge_, kHugePageShift}}};
  }

  static std::size_t base_of(const Sub& a, VirtAddr va, unsigned shift) {
    return static_cast<std::size_t>((va >> shift) % a.sets) * a.num_ways;
  }

  static Way* find(Sub& a, VirtAddr va, unsigned shift) {
    if (a.ways.empty()) return nullptr;
    const std::size_t base = base_of(a, va, shift);
    for (unsigned w = 0; w < a.num_ways; ++w) {
      Way& cand = a.ways[base + w];
      if (cand.valid && cand.vpn == (va >> shift)) return &cand;
    }
    return nullptr;
  }

  Sub small_, huge_;
  std::uint64_t tick_ = 0;
};

void fuzz_against_reference(const TlbConfig& cfg, std::uint64_t seed,
                            unsigned ops) {
  Tlb soa(cfg);
  RefTlb ref(cfg);
  Rng rng(seed);
  // 4x more 4 KB pages than small-TLB entries, and a handful of 2 MB pages,
  // so sets overflow constantly and the victim path runs thousands of times.
  const std::uint64_t small_pages = cfg.entries * 4ull;
  for (unsigned i = 0; i < ops; ++i) {
    SCOPED_TRACE(i);
    const std::uint64_t r = rng.below(100);
    if (r < 45) {  // lookup
      const VirtAddr va = rng.below(small_pages) * kPageSize + rng.below(64);
      const auto a = soa.lookup(va);
      const auto b = ref.lookup(va);
      ASSERT_EQ(a.has_value(), b.has_value());
      if (a) {
        EXPECT_EQ(a->pfn, b->pfn);
        EXPECT_EQ(a->page_shift, b->page_shift);
      }
    } else if (r < 55) {  // stat-free peek
      const VirtAddr va = rng.below(small_pages) * kPageSize;
      const auto a = soa.peek(va);
      const auto b = ref.peek(va);
      ASSERT_EQ(a.has_value(), b.has_value());
      if (a) {
        EXPECT_EQ(a->pfn, b->pfn);
      }
    } else if (r < 85) {  // 4 KB insert (reinsert-refresh exercised too)
      const VirtAddr va = rng.below(small_pages) * kPageSize;
      const Pfn pfn = rng.below(1 << 20);
      soa.insert(va, pfn, kPageShift);
      ref.insert(va, pfn, kPageShift);
    } else if (r < 95) {  // 2 MB insert
      const VirtAddr va = rng.below(16) * kHugePageSize;
      const Pfn pfn = rng.below(1 << 20) & ~Pfn{0x1FF};
      soa.insert(va, pfn, kHugePageShift);
      ref.insert(va, pfn, kHugePageShift);
    } else {  // shootdown
      const VirtAddr va = rng.below(small_pages) * kPageSize;
      soa.invalidate(va);
      ref.invalidate(va);
    }
    ASSERT_EQ(soa.counters().hits, ref.hits);
    ASSERT_EQ(soa.counters().misses, ref.misses);
    ASSERT_EQ(soa.counters().evictions, ref.evictions);
  }
  EXPECT_GT(ref.evictions, 0u) << "fuzz never reached the victim path";
}

TEST(TlbConformance, L1ShapeMatchesPerWayReference) {
  fuzz_against_reference(TlbConfig{.name = "l1d",
                                   .entries = 64,
                                   .ways = 4,
                                   .latency = 1,
                                   .huge_entries = 32,
                                   .huge_ways = 4},
                         0x51AB5, 20000);
}

TEST(TlbConformance, L2ShapeNoHugeCapacityMatchesReference) {
  fuzz_against_reference(TlbConfig{.name = "l2",
                                   .entries = 1536,
                                   .ways = 12,
                                   .latency = 12,
                                   .huge_entries = 0,
                                   .huge_ways = 1},
                         77, 30000);
}

TEST(TlbConformance, FullyAssociativeSingleSetMatchesReference) {
  fuzz_against_reference(TlbConfig{.name = "fa",
                                   .entries = 8,
                                   .ways = 8,
                                   .latency = 1,
                                   .huge_entries = 4,
                                   .huge_ways = 4},
                         3, 20000);
}

}  // namespace
}  // namespace ndp
