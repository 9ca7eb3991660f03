// Page-table abstraction shared by every translation mechanism.
//
// A PageTable is both a *functional* map (vpn -> pfn, used to place data in
// physical memory) and a *structural* description of the memory accesses a
// hardware page-table walk must perform (used by the timing model). Keeping
// the two views in one object guarantees the timing model walks exactly the
// structure the OS populated — PTE physical addresses are real frame
// addresses, so they land in real DRAM banks and real cache sets.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/blob.h"
#include "common/types.h"

namespace ndp {

/// One PTE memory access of a walk, root first.
struct WalkStep {
  PhysAddr pte_addr = 0;  ///< physical address of the entry to read
  /// Structural level id: 4..1 for radix levels, kFlatLevel for NDPage's
  /// merged L2/L1 node, kHashLevel for ECH ways.
  unsigned level = 0;
  /// Steps sharing a group id may be issued in parallel (ECH's d ways);
  /// groups execute in ascending order.
  unsigned group = 0;

  static constexpr unsigned kFlatLevel = 21;    ///< NDPage flattened L2/L1
  static constexpr unsigned kHybridLevel = 22;  ///< Hybrid's flat-window probe
  static constexpr unsigned kHashLevel = 99;    ///< ECH hashed buckets

  /// Radix interior/leaf levels (4..1) — the only levels PWCs cache, and
  /// therefore the only steps a PWC hit may skip. Mechanism-specific level
  /// ids (kFlatLevel, kHybridLevel, kHashLevel) must stay outside 1..4.
  static constexpr unsigned kMaxRadixLevel = 4;
  static constexpr bool is_radix_level(unsigned l) {
    return l >= 1 && l <= kMaxRadixLevel;
  }
};

/// Full walk description for one virtual page.
struct WalkPath {
  std::vector<WalkStep> steps;
  Pfn pfn = 0;
  bool mapped = false;
  unsigned page_shift = kPageShift;  ///< 12, or 21 for a huge-page leaf

  /// Make the path reusable in place: clears fields but keeps the steps
  /// vector's capacity, so a recycled WalkPath walks without allocating.
  void reset() {
    steps.clear();
    pfn = 0;
    mapped = false;
    page_shift = kPageShift;
  }
};

/// Per-level occupancy snapshot (the quantity of the paper's Fig. 8).
struct LevelOccupancy {
  std::string level;             ///< "PL4", "PL3", "PL2", "PL1", "PL2/PL1"
  std::uint64_t nodes = 0;       ///< allocated table nodes at this level
  std::uint64_t valid = 0;       ///< valid entries across those nodes
  std::uint64_t capacity = 0;    ///< nodes x entries-per-node
  double rate() const {
    return capacity ? static_cast<double>(valid) / static_cast<double>(capacity)
                    : 0.0;
  }
};

/// Outcome of a map() call, for OS cost accounting.
struct MapResult {
  unsigned nodes_allocated = 0;  ///< new table nodes the OS had to allocate
  std::uint64_t bytes_allocated = 0;  ///< table bytes those nodes cover
  bool replaced = false;         ///< an existing translation was overwritten
  /// A *different* translation this map displaced (restricted-associativity
  /// designs like DIPTA evict set conflicts). The owner must release the
  /// evicted page's frame and shoot down its TLB entries.
  std::optional<std::pair<Vpn, Pfn>> evicted;
};

class PageTable {
 public:
  virtual ~PageTable() = default;

  /// Install vpn -> pfn. `page_shift` selects the leaf size (12 or 21);
  /// a 21 mapping covers 512 consecutive vpns with one leaf entry.
  virtual MapResult map(Vpn vpn, Pfn pfn, unsigned page_shift = kPageShift) = 0;
  /// Remove a translation (used by tests and by huge-page splintering).
  virtual bool unmap(Vpn vpn) = 0;
  /// Functional lookup (no timing).
  virtual std::optional<Pfn> lookup(Vpn vpn) const = 0;
  /// Re-point an existing translation at a new frame (compaction support).
  virtual bool remap(Vpn vpn, Pfn new_pfn) = 0;

  /// The memory accesses a hardware walker performs for `vpn`, assuming no
  /// page-walk-cache hits. For an unmapped vpn, steps cover the levels
  /// actually visited before the walk faults.
  WalkPath walk(Vpn vpn) const {
    WalkPath p;
    walk_into(vpn, p);
    return p;
  }
  /// walk() into a caller-owned path: `out` is reset() and refilled, reusing
  /// its steps capacity. This is the engine's per-TLB-miss path — a recycled
  /// WalkPath makes a walk allocation-free after the first few ops.
  virtual void walk_into(Vpn vpn, WalkPath& out) const = 0;
  /// walk_into() with caller-provided scratch for mechanisms whose walk
  /// composes a second path internally (Hybrid's radix fallback after a
  /// flat-window tag miss). The default ignores `scratch`. The Walker calls
  /// this overload with a per-core recycled scratch path, so a mechanism
  /// never needs hidden mutable walk state to stay allocation-free in the
  /// measured loop.
  virtual void walk_into(Vpn vpn, WalkPath& out, WalkPath& scratch) const {
    (void)scratch;
    walk_into(vpn, out);
  }

  /// Hint that about `pages` more 4 KB pages are about to be mapped (the
  /// prefault announces its whole resident set). A table whose host
  /// storage grows with use sizes it once instead of page by page. It
  /// never changes what the table maps; the default ignores it.
  virtual void reserve(std::uint64_t pages) { (void)pages; }

  /// Run span: how many consecutive 4 KB pages from `vpn` on map() installs
  /// without allocating, evicting or freeing a frame, so prefault can take
  /// their frames in one PhysicalMemory::alloc_frames() call and write
  /// them with one map_run(). 0 when mapping `vpn` would allocate a table
  /// node: that page still goes through map(), so the node's frames follow
  /// its data frame. The default promises nothing (0), which keeps tables
  /// that resize (ECH), evict (DIPTA) or place by conflict (Hybrid) on the
  /// page-at-a-time path.
  virtual std::uint64_t run_span(Vpn vpn) const {
    (void)vpn;
    return 0;
  }
  /// Map pages first .. first + count - 1 to pfns[0 .. count) as 4 KB
  /// pages, with count <= run_span(first): the table ends up as after
  /// count map() calls, which is what the default makes.
  virtual void map_run(Vpn first, std::uint64_t count, const Pfn* pfns) {
    for (std::uint64_t i = 0; i < count; ++i) map(first + i, pfns[i]);
  }

  virtual std::vector<LevelOccupancy> occupancy() const = 0;
  virtual std::string name() const = 0;
  /// Bytes of physical memory consumed by table nodes.
  virtual std::uint64_t table_bytes() const = 0;

  /// Serialize the table's complete functional state for a post-prefault
  /// snapshot (sim/image_store.h). The first words must identify the
  /// concrete structure and its shape so load_state can reject a blob from
  /// a different mechanism or configuration. Returns false when the table
  /// does not support snapshotting (the default — custom registry
  /// mechanisms opt in by overriding both hooks); the Session then simply
  /// skips prepared-image caching for that design point.
  virtual bool save_state(BlobWriter& out) const {
    (void)out;
    return false;
  }
  /// Restore state written by save_state() into an identically-configured
  /// table whose PhysicalMemory has already been restored to the matching
  /// post-snapshot image — every frame the blob references is already
  /// allocated and tagged there, so the load overwrites host-side members
  /// wholesale and never allocates or frees frames. Returns false (leaving
  /// the table untouched) on a tag/shape mismatch or truncated input.
  virtual bool load_state(BlobReader& in) {
    (void)in;
    return false;
  }
};

}  // namespace ndp
