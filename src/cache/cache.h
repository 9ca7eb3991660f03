// Set-associative cache model (tags only — the simulator is trace driven and
// never stores data bytes).
//
// The model tracks, per line, which AccessClass filled it. That is how the
// paper's pollution analysis (Fig. 7) is measured: PTE fills evicting data
// lines show up as "pollution victims", and per-class hit/miss counters give
// the metadata vs normal-data miss-rate split.
//
// Replacement is LRU (an empty way first, then the least recently used).
//
// Storage is structure-of-arrays (the same layout as translate/tlb.h): the
// tag, LRU, dirty, and class columns are parallel vectors, so the hit
// probe — the single hottest scan in the simulator — reads one contiguous
// run of eight tags (one host cache line) instead of striding across 24-byte
// line objects, and the replacement columns are only touched on a hit or
// fill. An empty way holds kInvalidTag in the tag column (a real tag is
// pa >> 6 of a physical address and never all-ones), which removes the
// per-way valid flag from the scan.
//
// Statistics are plain counters (the access path is the simulator's hottest
// loop); snapshot() materializes them into a named StatSet for reporting.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace ndp {

struct CacheConfig {
  std::string name = "L1D";
  std::uint64_t size_bytes = 32 * 1024;
  unsigned ways = 8;
  Cycle latency = 4;
};

/// Result of a lookup-and-fill access.
struct CacheOutcome {
  bool hit = false;
  bool evicted = false;              ///< a valid line was displaced on fill
  bool victim_dirty = false;         ///< displaced line needs write-back
  std::uint64_t victim_line = 0;     ///< line address of the displaced line
  AccessClass victim_class = AccessClass::kData;
};

/// Per-class hit/miss counters (index by AccessClass).
struct CacheCounters {
  std::uint64_t hit[2] = {0, 0};
  std::uint64_t miss[2] = {0, 0};
  std::uint64_t pollution_victims = 0;  ///< metadata fill evicted a data line

  std::uint64_t hits(AccessClass c) const { return hit[static_cast<int>(c)]; }
  std::uint64_t misses(AccessClass c) const { return miss[static_cast<int>(c)]; }
};

class Cache {
 public:
  explicit Cache(CacheConfig cfg);

  /// Lookup `line`; on miss, fill it (possibly evicting). Write hits mark the
  /// line dirty. Statistics are recorded per AccessClass.
  CacheOutcome access(std::uint64_t line, AccessType type, AccessClass cls);

  /// Hot-path hit probe, inlined into the hierarchy's access loop: on a hit
  /// it updates replacement state + counters and returns true; on a miss it
  /// records nothing and returns false — the caller completes the access
  /// with fill_miss() (which reuses the tick this probe advanced).
  bool access_hit(std::uint64_t line, AccessType type, AccessClass cls) {
    const std::size_t base = base_of(line);
    ++tick_;
    for (unsigned w = 0; w < ways_; ++w) {
      if (tags_[base + w] != line) continue;
      lru_[base + w] = tick_;
      if (type == AccessType::kWrite) dirty_[base + w] = 1;
      ++counters_.hit[static_cast<int>(cls)];
      return true;
    }
    return false;
  }
  /// Miss half of access(): record the miss and fill (possibly evicting).
  /// Only valid immediately after an access_hit() that returned false.
  CacheOutcome fill_miss(std::uint64_t line, AccessType type, AccessClass cls);
  /// Tag probe with no state change.
  bool probe(std::uint64_t line) const;
  /// Drop a line if present (returns true if it was dirty).
  bool invalidate(std::uint64_t line);

  const CacheConfig& config() const { return cfg_; }
  unsigned num_sets() const { return num_sets_; }
  const CacheCounters& counters() const { return counters_; }
  void reset_counters() { counters_ = CacheCounters{}; }
  /// Named statistics snapshot ("cache.hit.data", "cache.miss.meta", ...).
  StatSet snapshot() const;

  /// Miss rate restricted to one access class (Fig. 7's quantities).
  double miss_rate(AccessClass cls) const;
  /// Fraction of currently valid lines filled by metadata (pollution level).
  double metadata_occupancy() const;

 private:
  /// Empty-way marker in the tag column: a tag is a 64 B line address
  /// (pa >> 6) and physical memory tops out far below 2^64.
  static constexpr std::uint64_t kInvalidTag = ~std::uint64_t{0};

  std::size_t base_of(std::uint64_t line) const {
    return static_cast<std::size_t>(line % num_sets_) * ways_;
  }
  unsigned pick_victim(std::size_t base) const;

  CacheConfig cfg_;
  unsigned num_sets_;
  unsigned ways_;
  std::vector<std::uint64_t> tags_;   ///< num_sets_ x ways, row-major columns
  std::vector<std::uint64_t> lru_;    ///< higher == more recent
  std::vector<std::uint8_t> dirty_;
  std::vector<std::uint8_t> cls_;     ///< AccessClass that filled the line
  std::uint64_t tick_ = 0;   ///< LRU clock
  CacheCounters counters_;
};

}  // namespace ndp
