// Physical memory manager: the OS half of the simulated system.
//
// Wraps the buddy allocator with
//   * frame-use bookkeeping (data / page-table / OS noise / huge),
//   * boot-time fragmentation injection ("noise": long-running-system pages
//     scattered through the pool, as in the Ingens discussion the paper
//     cites for Huge Page behaviour),
//   * 2 MB huge-frame allocation with real compaction (relocating movable
//     frames, with a relocation hook so the owner can fix its page tables),
//   * page-table frame tagging, which is how NDPage's OS marks metadata
//     regions for the L1-bypass mechanism (paper §V-A),
//   * a cycle-cost model for faults/zeroing/compaction used by the
//     simulator's fault path.
//
// Teardown contract: a pool about to die (System's destructor) is told so
// with begin_teardown() before its consumers go. From then on free_frame(),
// free_table_block() and free_huge() return at once, so the address space
// and page tables skip returning millions of frames to state nobody reads
// again. restore() re-arms frees. A pool that is never told keeps the
// strict accounting the frame-conservation tests check.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"
#include "os/buddy.h"

namespace ndp {

enum class FrameUse : std::uint8_t {
  kFree,
  kData,       ///< application pages (movable by compaction)
  kPageTable,  ///< page-table nodes — metadata, never moved
  kNoise,      ///< boot-time system pages (movable, no remap needed)
  kHugePart,   ///< part of an assembled 2 MB block
};

/// Cycle costs charged by the OS model (core cycles @ 2.6 GHz).
struct OsCosts {
  Cycle minor_fault = 1500;       ///< kernel entry + fault path + map
  Cycle zero_per_kb = 32;         ///< 4 KB => 128 cy, 2 MB => 65536 cy
  Cycle compact_per_frame = 600;  ///< copy 4 KB + remap during compaction
  Cycle huge_fault_extra = 2500;  ///< THP alloc path overhead
  Cycle reclaim_per_frame = 1200; ///< writeback/swap-out one 4 KB frame
  Cycle shootdown = 2000;         ///< TLB-shootdown IPI round per batch

  Cycle fault_4k() const { return minor_fault + 4 * zero_per_kb; }
  Cycle fault_2m_base() const {
    return minor_fault + huge_fault_extra + 2048 * zero_per_kb;
  }
};

struct PhysMemConfig {
  std::uint64_t bytes = 16ull << 30;  ///< Table I: 16 GB
  double noise_fraction = 0.03;       ///< of frames, scattered at boot
  std::uint64_t seed = 0x05EEDull;
  OsCosts costs;
};

/// Immutable snapshot of a PhysicalMemory's complete allocation state —
/// buddy bitmaps, per-frame use tags, compaction window occupancy, and the
/// RNG — taken right after boot-noise injection. Restoring it is a few
/// large copies instead of re-running the ~10^5 scattered alloc_specific()
/// calls of noise injection, which is what lets a Session share one
/// prepared substrate across every cell of a sweep (see sim/session.h).
struct PhysMemImage {
  PhysMemConfig cfg;
  BuddyAllocator buddy;  ///< a value copy IS the buddy snapshot
  std::vector<FrameUse> use;
  std::vector<std::uint16_t> win_movable, win_unmovable;
  Rng rng;
  std::uint64_t noise_frames = 0;  ///< frames placed by noise injection

  /// Host bytes this snapshot keeps resident (Session cache accounting).
  std::uint64_t resident_bytes() const {
    return buddy.resident_bytes() + use.size() * sizeof(FrameUse) +
           (win_movable.size() + win_unmovable.size()) *
               sizeof(std::uint16_t);
  }
};

class PhysicalMemory {
 public:
  explicit PhysicalMemory(const PhysMemConfig& cfg);
  /// Adopt a prepared substrate: identical observable state to constructing
  /// from `image.cfg` (same buddy layout, frame tags, RNG position, and the
  /// post-boot stats), without re-running noise injection.
  explicit PhysicalMemory(const PhysMemImage& image);

  /// Capture the current allocation state (cheap value copies).
  PhysMemImage snapshot() const;
  /// Return to `image`'s state. Statistics reset to the post-boot values a
  /// fresh construction would report; the relocate hook is cleared (its
  /// owner, the AddressSpace, sets it again in load_state()), and frees
  /// count again after a begin_teardown(). Asserts the pool geometry
  /// matches.
  void restore(const PhysMemImage& image);

  /// The pool's state will not be read again before it is destroyed or
  /// restore()d: every free becomes a no-op (see the teardown contract
  /// above).
  void begin_teardown() { tearing_down_ = true; }
  bool tearing_down() const { return tearing_down_; }

  /// Allocate one 4 KB frame. Asserts on true OOM (experiments are sized to
  /// fit); returns the PFN.
  Pfn alloc_frame(FrameUse use);
  /// `n` alloc_frame(use) calls at once: the same frames in the same order
  /// (BuddyAllocator::alloc_run), tagged, with the counters added once.
  void alloc_frames(std::uint64_t n, FrameUse use, Pfn* out);
  void free_frame(Pfn pfn);

  /// Contiguous 2^order-frame block for page-table structures (NDPage's
  /// 2 MB flattened nodes, ECH way storage). Asserts on failure: table
  /// blocks are allocated early, before data fragments the pool.
  Pfn alloc_table_block(unsigned order);
  void free_table_block(Pfn base, unsigned order);

  struct HugeResult {
    Pfn base = 0;                    ///< valid iff !fell_back
    bool used_compaction = false;
    bool fell_back = false;          ///< no 2 MB block even after compaction
    std::uint64_t frames_moved = 0;  ///< relocations performed
    Cycle cost = 0;                  ///< full OS cycle cost of this request
  };
  /// Allocate a 2 MB-aligned block of 512 frames for a huge page, compacting
  /// movable frames if fragmentation requires it.
  HugeResult alloc_huge();
  void free_huge(Pfn base);

  /// Owner's callback invoked when compaction moves a kData frame, so page
  /// tables can be repointed: fn(old_pfn, new_pfn).
  void set_relocate_hook(std::function<void(Pfn, Pfn)> fn) {
    relocate_hook_ = std::move(fn);
  }

  FrameUse use_of(Pfn pfn) const { return use_[pfn]; }
  /// True iff the frame holds page-table metadata — the address check behind
  /// the bypass mechanism's "is this a PTE region?" question.
  bool is_page_table_frame(Pfn pfn) const {
    return pfn < use_.size() && use_[pfn] == FrameUse::kPageTable;
  }

  std::uint64_t num_frames() const { return buddy_.num_frames(); }
  std::uint64_t free_frames() const { return buddy_.free_frames(); }
  const BuddyAllocator& buddy() const { return buddy_; }
  const OsCosts& costs() const { return cfg_.costs; }
  StatSet& stats() { return stats_; }
  const StatSet& stats() const { return stats_; }

 private:
  /// Shared construction path: `image` non-null adopts its state wholesale
  /// instead of injecting boot noise.
  PhysicalMemory(const PhysMemConfig& cfg, const PhysMemImage* image);

  struct CompactResult {
    Pfn base;
    std::uint64_t moved;
  };
  std::optional<CompactResult> compact_for_huge();
  void set_use(Pfn pfn, FrameUse use);
  std::uint64_t window_of(Pfn pfn) const { return pfn >> 9; }

  PhysMemConfig cfg_;
  BuddyAllocator buddy_;
  std::vector<FrameUse> use_;
  // Per-2MB-window occupancy, maintained incrementally so compaction's
  // window search is O(#windows), not O(#frames).
  std::vector<std::uint16_t> win_movable_;    ///< kData + kNoise frames
  std::vector<std::uint16_t> win_unmovable_;  ///< kPageTable + kHugePart
  std::function<void(Pfn, Pfn)> relocate_hook_;
  bool tearing_down_ = false;
  Rng rng_;
  StatSet stats_;
  // Counter handles resolved once at construction: frame alloc/free runs on
  // every fault and for every prefaulted page — no string-keyed lookups
  // there. Names match the previous inc() keys exactly.
  StatSet::Counter* c_noise_frames_;
  StatSet::Counter* c_frame_alloc_;
  StatSet::Counter* c_frame_free_;
  StatSet::Counter* c_pt_frames_;
  StatSet::Counter* c_table_block_alloc_;
  StatSet::Counter* c_table_block_free_;
  StatSet::Counter* c_compaction_;
  StatSet::Counter* c_compaction_moves_;
  StatSet::Counter* c_compaction_abort_;
  StatSet::Counter* c_huge_alloc_;
  StatSet::Counter* c_huge_alloc_compacted_;
  StatSet::Counter* c_huge_fallback_;
  StatSet::Counter* c_huge_free_;
  StatSet::Sample* s_compaction_moved_;
};

}  // namespace ndp
