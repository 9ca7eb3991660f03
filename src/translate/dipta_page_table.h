// DIPTA-style restricted-associativity translation (Picorel et al.,
// "Near-Memory Address Translation", PACT'17) — the second related-work
// system the paper discusses (SVIII).
//
// Idea: restrict where a virtual page may live physically to a small
// associative set determined by its VA. Translation then only needs to
// resolve *which way* of the set holds the page — metadata small enough to
// sit next to the data — so a walk is a single memory access to the set's
// way-tag array. The cost is page-conflict pressure: when more hot pages
// map to a set than it has ways, the OS must evict/migrate pages
// (set-conflict faults), the degradation the paper cites.
//
// Implementation: physical memory is carved into a direct region of
// `ways`-page sets. map() places a page in its set (evicting the LRU way
// if full — an OS-visible conflict), lookup/walk resolve through the
// per-set tag array whose storage is a real physical table-block, so the
// timing model sees genuine metadata accesses.
//
// Host storage follows the sets that hold pages, not the pool. The timing
// model sees all num_sets_ sets: tag_addr() and occupancy() cover every
// set, and the tag blocks spanning them are allocated up front. Host-side
// ways exist only for sets map() has placed a page in: one way for a set's
// first page, all `ways` from its second page on, kept after the pages are
// unmapped. A 16 GB pool has 1 M four-way sets, 128 MB as a dense array; a
// cell mapping 263 K pages fills 233 K sets, most with one page, and keeps
// about 8 MB of ways. save_state() writes only the filled sets.
#pragma once

#include <cstdint>
#include <vector>

#include "common/flat_u64_map.h"
#include "os/phys_mem.h"
#include "translate/page_table.h"

namespace ndp {

struct DiptaConfig {
  unsigned ways = 4;           ///< pages per set (placement associativity)
  std::uint64_t coverage_frames = 0;  ///< 0 = size from physical memory
};

class DiptaPageTable : public PageTable {
 public:
  DiptaPageTable(PhysicalMemory& pm, DiptaConfig cfg = {});
  ~DiptaPageTable() override;

  MapResult map(Vpn vpn, Pfn pfn, unsigned page_shift = kPageShift) override;
  bool unmap(Vpn vpn) override;
  std::optional<Pfn> lookup(Vpn vpn) const override;
  bool remap(Vpn vpn, Pfn new_pfn) override;
  void walk_into(Vpn vpn, WalkPath& out) const override;
  void reserve(std::uint64_t pages) override;
  std::vector<LevelOccupancy> occupancy() const override;
  std::string name() const override { return "DIPTA"; }
  std::uint64_t table_bytes() const override;
  bool save_state(BlobWriter& out) const override;
  bool load_state(BlobReader& in) override;

  /// Pages displaced because their set was full — the page-conflict
  /// pathology the paper's related-work section points at.
  std::uint64_t conflict_evictions() const { return conflict_evictions_; }
  std::uint64_t num_sets() const { return num_sets_; }

 private:
  /// One way of a filled set. lru is the map() tick that last placed or
  /// refreshed the page, and 0 marks an empty way: ticks start at 1, so the
  /// set's first way with the smallest lru is its first empty way if it
  /// has one, else its least recently mapped page.
  struct Way {
    Vpn vpn = 0;
    Pfn pfn = 0;  ///< actual frame backing the page (OS-allocated)
    std::uint64_t lru = 0;
  };

  /// A filled set's entry in blocks_: the index of its first way in ways_,
  /// shifted left by one, with kFullBlock set once the set has all its ways
  /// (until its second page it has one).
  static constexpr std::uint64_t kFullBlock = 1;

  std::uint64_t set_of(Vpn vpn) const { return splitmix64(vpn) % num_sets_; }
  PhysAddr tag_addr(std::uint64_t set) const;
  unsigned block_ways(std::uint64_t block) const {
    return block & kFullBlock ? cfg_.ways : 1;
  }
  /// The way holding `vpn`, or nullptr.
  Way* find(Vpn vpn);
  const Way* find(Vpn vpn) const;

  PhysicalMemory& pm_;
  DiptaConfig cfg_;
  std::uint64_t num_sets_;
  FlatU64Map blocks_;  ///< filled set -> its block
  std::vector<Way> ways_;  ///< the blocks, in the order sets got them
  std::vector<Pfn> tag_blocks_;  ///< physical storage of the way tags
  std::uint64_t tick_ = 0;
  std::uint64_t live_ = 0;
  std::uint64_t conflict_evictions_ = 0;
};

}  // namespace ndp
