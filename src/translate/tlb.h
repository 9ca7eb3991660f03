// Translation lookaside buffers (Table I: 64-entry L1 DTLB, 1536-entry
// unified L2 TLB; traces carry no instruction fetches, so Table I's
// 128-entry L1 ITLB is not modelled).
//
// The structure is page-size aware: 4 KB and 2 MB translations index
// different sets (va >> 12 vs va >> 21), matching split-TLB hardware while
// sharing one capacity pool — that is how the Huge Page baseline's reach
// advantage materializes.
//
// Storage is structure-of-arrays: each sub-TLB keeps parallel tag / pfn /
// lru vectors instead of an array of per-way line objects, so a probe is a
// contiguous scan of a set's tags (one cache line for up to 8 ways, a
// compare loop the compiler unrolls and vectorizes) and the pfn/lru
// columns are only touched on a hit. The hot entry points (lookup / peek /
// insert) are defined inline here — they sit on the per-access path of the
// simulation engine, where the call itself used to cost as much as the
// scan. Empty ways carry the reserved tag kInvalidTag, which removes the
// per-way valid flag from the scan entirely (a real tag is va >> 12 of a
// canonical address and can never be all-ones).
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace ndp {

struct TlbConfig {
  std::string name = "L1D";
  unsigned entries = 64;       ///< 4 KB-translation entries
  unsigned ways = 4;
  Cycle latency = 1;
  /// Capacity of the separate 2 MB-translation sub-TLB. Real L1 DTLBs keep
  /// a small dedicated array (32 entries here); L2 TLBs in the class of
  /// parts Table I describes do not cache 2 MB translations at all (0).
  unsigned huge_entries = 32;
  unsigned huge_ways = 4;
};

struct TlbEntry {
  Pfn pfn = 0;              ///< frame of the page (base frame for 2 MB)
  unsigned page_shift = kPageShift;
};

class Tlb {
 public:
  explicit Tlb(TlbConfig cfg);

  /// Probe for the translation covering va (checks 4 KB then 2 MB tags).
  std::optional<TlbEntry> lookup(VirtAddr va) {
    ++tick_;
    if (unsigned w = probe(small_, va, kPageShift); w != kNoWay) {
      const std::size_t i = small_.base_of(va, kPageShift) + w;
      small_.lru[i] = tick_;
      ++counters_.hits;
      return TlbEntry{small_.pfns[i], kPageShift};
    }
    if (unsigned w = probe(huge_, va, kHugePageShift); w != kNoWay) {
      const std::size_t i = huge_.base_of(va, kHugePageShift) + w;
      huge_.lru[i] = tick_;
      ++counters_.hits;
      return TlbEntry{huge_.pfns[i], kHugePageShift};
    }
    ++counters_.misses;
    return std::nullopt;
  }

  /// Stat-free probe (no hit/miss accounting, no LRU update) — used by
  /// walk-coalescing polls, which are not architectural TLB lookups.
  std::optional<TlbEntry> peek(VirtAddr va) const {
    if (unsigned w = probe(small_, va, kPageShift); w != kNoWay)
      return TlbEntry{small_.pfns[small_.base_of(va, kPageShift) + w],
                      kPageShift};
    if (unsigned w = probe(huge_, va, kHugePageShift); w != kNoWay)
      return TlbEntry{huge_.pfns[huge_.base_of(va, kHugePageShift) + w],
                      kHugePageShift};
    return std::nullopt;
  }

  /// Install a translation; evicts LRU within the set.
  void insert(VirtAddr va, Pfn pfn, unsigned page_shift) {
    assert(page_shift == kPageShift || page_shift == kHugePageShift);
    ++tick_;
    SubTlb& a = page_shift == kPageShift ? small_ : huge_;
    if (a.tags.empty()) return;  // this TLB does not cache this page size
    const Vpn tag = va >> page_shift;
    const std::size_t base = a.base_of(va, page_shift);
    if (unsigned w = scan_set(&a.tags[base], a.ways, tag); w != kNoWay) {
      a.pfns[base + w] = pfn;  // refresh
      a.lru[base + w] = tick_;
      return;
    }
    // Victim: first empty way, else the strict-minimum (oldest) LRU stamp.
    unsigned victim = 0;
    for (unsigned w = 0; w < a.ways; ++w) {
      if (a.tags[base + w] == kInvalidTag) {
        victim = w;
        break;
      }
      if (a.lru[base + w] < a.lru[base + victim]) victim = w;
    }
    if (a.tags[base + victim] != kInvalidTag) ++counters_.evictions;
    a.tags[base + victim] = tag;
    a.pfns[base + victim] = pfn;
    a.lru[base + victim] = tick_;
  }

  /// Drop every entry covering the page of va (shootdown support).
  void invalidate(VirtAddr va);
  void flush();

  struct Counters {
    std::uint64_t hits = 0, misses = 0, evictions = 0, flushes = 0;
  };

  const TlbConfig& config() const { return cfg_; }
  const Counters& counters() const { return counters_; }
  void reset_counters() { counters_ = Counters{}; }
  StatSet snapshot() const;
  double miss_rate() const {
    const double t = static_cast<double>(counters_.hits + counters_.misses);
    return t > 0 ? static_cast<double>(counters_.misses) / t : 0.0;
  }

 private:
  /// Reserved tag marking an empty way: unreachable because a tag is
  /// va >> page_shift and virtual addresses stay far below 2^64.
  static constexpr Vpn kInvalidTag = ~Vpn{0};
  static constexpr unsigned kNoWay = ~0u;

  /// One page-size sub-TLB in structure-of-arrays layout.
  struct SubTlb {
    std::vector<Vpn> tags;  ///< per-set contiguous; kInvalidTag = empty way
    std::vector<Pfn> pfns;
    std::vector<std::uint64_t> lru;
    unsigned sets = 1;
    unsigned ways = 1;

    std::size_t base_of(VirtAddr va, unsigned page_shift) const {
      return static_cast<std::size_t>((va >> page_shift) % sets) * ways;
    }
  };

  /// Contiguous tag scan of one set; returns the hit way or kNoWay. Each
  /// way's compare is independent (insert keeps tags unique within a set),
  /// so the loop carries no data dependence and vectorizes.
  static unsigned scan_set(const Vpn* tags, unsigned ways, Vpn tag) {
    unsigned hit = kNoWay;
    for (unsigned w = 0; w < ways; ++w)
      if (tags[w] == tag) hit = w;
    return hit;
  }

  static unsigned probe(const SubTlb& a, VirtAddr va, unsigned page_shift) {
    if (a.tags.empty()) return kNoWay;
    return scan_set(&a.tags[a.base_of(va, page_shift)], a.ways,
                    va >> page_shift);
  }

  TlbConfig cfg_;
  SubTlb small_;  ///< 4 KB entries
  SubTlb huge_;   ///< 2 MB entries (may be empty)
  std::uint64_t tick_ = 0;
  Counters counters_;
};

}  // namespace ndp
