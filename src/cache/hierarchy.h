// Memory-system composition: private caches -> (shared L3) -> mesh -> DRAM.
//
// Two instantiations reproduce Table I of the paper:
//   * CPU system:  per-core L1D (32 KB) + L2 (512 KB), shared L3 (2 MB/core),
//                  DDR4-2400 behind memory-controller mesh endpoints.
//   * NDP system:  per-core L1D only, HBM2 vaults reached over the
//                  logic-layer mesh (4-cycle hops).
//
// The `bypass_caches` flag on access() is the hardware half of NDPage's
// metadata-bypass mechanism (paper §V-A): the request skips every cache
// level (no lookup, no fill) and goes straight over the NoC to DRAM.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "cache/cache.h"
#include "common/stats.h"
#include "common/types.h"
#include "dram/dram.h"
#include "noc/mesh.h"

namespace ndp {

struct MemorySystemConfig {
  unsigned num_cores = 1;
  CacheConfig l1;
  std::optional<CacheConfig> l2;  ///< private per-core (CPU system only)
  std::optional<CacheConfig> l3;  ///< shared; size_bytes is *per core*
  DramTiming dram = DramTiming::hbm2();
  Cycle mesh_hop_latency = 4;

  /// NDP system per Table I: shallow L1 only, HBM2.
  static MemorySystemConfig ndp(unsigned cores);
  /// CPU system per Table I: three-level hierarchy, DDR4-2400.
  static MemorySystemConfig cpu(unsigned cores);

  /// The NoC configuration this memory system instantiates (endpoints
  /// follow the DRAM channel count).
  MeshConfig mesh() const;
};

/// Where a request was finally served from (for statistics).
enum class ServedBy : std::uint8_t { kL1, kL2, kL3, kDram };

struct MemAccessResult {
  Cycle finish = 0;
  ServedBy served_by = ServedBy::kDram;
};

class MemorySystem {
 public:
  explicit MemorySystem(const MemorySystemConfig& cfg);

  /// One full memory access for a 64 B line containing `pa`, issued by
  /// `core` at `now`. With bypass_caches the request goes NoC -> DRAM
  /// directly and allocates nowhere.
  MemAccessResult access(Cycle now, unsigned core, PhysAddr pa,
                         AccessType type, AccessClass cls,
                         bool bypass_caches = false);

  struct Counters {
    std::uint64_t access = 0, access_meta = 0, bypassed = 0;
    std::uint64_t served_l1 = 0, served_l2 = 0, served_l3 = 0, served_dram = 0;
    std::uint64_t writebacks = 0;
  };

  Cache& l1(unsigned core) { return *l1_[core]; }
  const Cache& l1(unsigned core) const { return *l1_[core]; }
  Cache* l2(unsigned core) { return l2_.empty() ? nullptr : l2_[core].get(); }
  Cache* l3() { return l3_.get(); }
  Dram& dram() { return dram_; }
  const Dram& dram() const { return dram_; }
  Mesh& mesh() { return mesh_; }
  const MemorySystemConfig& config() const { return cfg_; }
  const Counters& counters() const { return counters_; }

  /// Aggregate of every component's StatSet plus this object's counters
  /// (prefixed per component) — what the experiment runner snapshots.
  StatSet collect_stats() const;
  /// Clear all statistics (timing/tag state is kept) — used after warmup.
  void reset_stats();

 private:
  MemAccessResult dram_round_trip(Cycle now, unsigned core, PhysAddr pa,
                                  AccessType type, AccessClass cls);
  void write_back(Cycle now, unsigned core, std::uint64_t victim_line,
                  AccessClass cls);

  MemorySystemConfig cfg_;
  std::vector<std::unique_ptr<Cache>> l1_;
  std::vector<std::unique_ptr<Cache>> l2_;
  std::unique_ptr<Cache> l3_;
  Mesh mesh_;
  Dram dram_;
  Counters counters_;
};

}  // namespace ndp
