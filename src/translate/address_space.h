// Process address space: VM regions, demand paging, pre-faulting, and the
// OS fault-cost model — the software half of translation.
//
// Workload generators declare their data structures as VM regions. Regions
// marked `prefault` are populated before timing starts (the paper measures
// steady state after the 8-33 GB datasets are resident); the rest fault on
// first touch during the run, which is where the Huge Page baseline pays
// its allocation/compaction bill.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_u64_map.h"
#include "common/stats.h"
#include "common/types.h"
#include "os/phys_mem.h"
#include "translate/page_table.h"

namespace ndp {

struct VmRegion {
  std::string name;
  VirtAddr base = 0;
  std::uint64_t bytes = 0;
  bool prefault = true;

  VirtAddr end() const { return base + bytes; }
  bool contains(VirtAddr va) const { return va >= base && va < end(); }
};

class AddressSpace {
 public:
  /// `use_huge_pages`: map at 2 MB granularity (the Huge Page baseline);
  /// requires a page table whose preferred leaf supports it.
  AddressSpace(PhysicalMemory& pm, std::unique_ptr<PageTable> pt,
               bool use_huge_pages = false);
  /// Returns every frame the space owns to the pool, unless the pool is in
  /// teardown (PhysicalMemory::begin_teardown()).
  ~AddressSpace();

  void add_region(VmRegion region);
  const std::vector<VmRegion>& regions() const { return regions_; }

  /// Map every prefault region (no timing; setup phase). Above the
  /// highest vpn mapped so far, where the page table promises a run
  /// (PageTable::run_span), a run's frames come from one
  /// PhysicalMemory::alloc_frames() call and its entries from one
  /// PageTable::map_run(): the same frames, entries and statistics as
  /// mapping the pages one at a time, which every other page still does.
  void prefault_all();

  struct TouchResult {
    bool faulted = false;
    Cycle cost = 0;  ///< OS cycles charged to the faulting access
  };
  /// Demand paging: ensure the page of va is mapped. Runs watermark-based
  /// reclaim first when free physical memory is low (kswapd-style), which
  /// is where the Huge Page baseline's bloat turns into thrashing.
  ///
  /// Faults serialize on the address-space lock (mmap-lock semantics): a
  /// fault arriving at `now` while an earlier fault is still being serviced
  /// waits for it. This is the mechanism behind huge-page latency spikes
  /// under concurrency — 2 MB zero+compaction holds the lock ~50x longer
  /// than a 4 KB fault, so fault-heavy multi-core runs queue behind it.
  TouchResult touch(VirtAddr va, Cycle now = 0);
  /// Map without charging costs or taking the lock (the Ideal mechanism).
  void touch_untimed(VirtAddr va);

  /// Invoked for every vpn whose translation is torn down by reclaim, so
  /// the owner can shoot down TLBs. Set by the System assembly.
  void set_shootdown_hook(std::function<void(Vpn)> fn) {
    shootdown_ = std::move(fn);
  }

  /// Functional translation (no timing); nullopt if unmapped.
  std::optional<PhysAddr> translate(VirtAddr va) const;

  PageTable& page_table() { return *pt_; }
  const PageTable& page_table() const { return *pt_; }
  PhysicalMemory& phys() { return pm_; }
  bool huge_pages() const { return huge_; }
  StatSet& stats() { return stats_; }
  const StatSet& stats() const { return stats_; }
  std::uint64_t mapped_pages() const { return mapped_4k_ + mapped_2m_ * 512; }
  std::uint64_t mapped_bytes() const { return mapped_pages() * kPageSize; }
  /// Pages prefault_all() mapped (a 2 MB block counts 512), and how many
  /// of them it mapped in runs. Host-side work counters: never saved, and
  /// 0 in a space restored from a snapshot.
  std::uint64_t prefault_pages() const { return prefault_pages_; }
  std::uint64_t prefault_run_pages() const { return prefault_run_pages_; }
  /// Entries in the reverse map proper: 0 until something reads it.
  std::size_t reverse_map_size() const { return frame_owner_.size(); }

  /// Serialize the space's complete post-prefault state — regions, frame
  /// ownership, reclaim FIFO order, lock horizon, and statistics. The page
  /// table serializes separately (PageTable::save_state).
  void save_state(BlobWriter& out) const;
  /// Restore state written by save_state. The backing PhysicalMemory must
  /// already be restored to the matching snapshot (ownership is adopted,
  /// never re-allocated), and this re-registers the relocate hook that
  /// PhysicalMemory::restore() cleared. Returns false on malformed input,
  /// leaving the non-statistics members untouched.
  bool load_state(BlobReader& in);

 private:
  Cycle fault_in_4k(Vpn vpn);
  Cycle fault_in_2m(Vpn vpn_aligned);
  /// Evict FIFO victims until free memory recovers; returns cycles charged.
  Cycle maybe_reclaim(std::uint64_t frames_needed);
  void on_relocate(Pfn old_pfn, Pfn new_pfn);
  /// Record that `pfn` backs `vpn`: appends to owner_log_.
  void own_frame(Pfn pfn, Vpn vpn);
  /// Record that `pfn` no longer backs a page: appends (pfn, kNoOwner).
  void disown_frame(Pfn pfn);
  /// Apply owner_log_ to frame_owner_ in order; a long log releases its
  /// storage.
  void flush_owners();

  /// The vpn of a log entry that erases its frame from the reverse map.
  static constexpr Vpn kNoOwner = ~0ull;
  /// Most pages a prefault run maps at once (the frame buffer's size).
  static constexpr std::uint64_t kRunPages = 512;

  PhysicalMemory& pm_;
  std::unique_ptr<PageTable> pt_;
  bool huge_;
  std::vector<VmRegion> regions_;
  /// Reverse map for compaction: data frame -> vpn (4 KB mappings only;
  /// 2 MB blocks and page-table frames are never relocated). It is built
  /// when first read: faults append (pfn, vpn) to owner_log_, DIPTA's
  /// set-conflict evictions and reclaim append (pfn, kNoOwner), and only
  /// compaction's on_relocate() reads frame_owner_, flushing the log
  /// first. save_state(), the destructor and the flush apply the log over
  /// the map in order: a freed frame is often allocated again at once.
  FlatU64Map frame_owner_;
  std::vector<std::pair<Pfn, Vpn>> owner_log_;
  /// 2 MB blocks owned by this space: base vpn -> base pfn.
  FlatU64Map huge_blocks_;
  /// Reclaim FIFOs (allocation order). Entries may be stale (already
  /// reclaimed or relocated); validated on pop.
  std::deque<Vpn> fifo_4k_;
  std::deque<Vpn> fifo_2m_;
  std::function<void(Vpn)> shootdown_;
  Cycle fault_lock_until_ = 0;  ///< mmap-lock busy horizon
  std::uint64_t mapped_4k_ = 0;
  std::uint64_t mapped_2m_ = 0;
  /// One past the highest vpn ever mapped (load_state() rebuilds it from
  /// the owned frames and blocks): no page at or above it is mapped, so
  /// prefault skips the presence lookup there.
  Vpn vpn_limit_ = 0;
  std::uint64_t prefault_pages_ = 0;
  std::uint64_t prefault_run_pages_ = 0;
  StatSet stats_;
  // Counter handles resolved once at construction — neither the fault path
  // nor prefault does a string-keyed lookup. Names match the previous
  // inc() keys exactly.
  StatSet::Counter* c_prefault_done_;
  StatSet::Counter* c_fault_4k_;
  StatSet::Counter* c_fault_2m_;
  StatSet::Counter* c_fault_2m_compacted_;
  StatSet::Counter* c_fault_2m_fallback_;
  StatSet::Counter* c_demand_faults_;
  StatSet::Counter* c_fault_cycles_;
  StatSet::Counter* c_fault_lock_wait_;
  StatSet::Counter* c_set_conflict_evictions_;
  StatSet::Counter* c_reclaim_events_;
  StatSet::Counter* c_reclaimed_frames_;
  StatSet::Counter* c_reclaim_cycles_;
  StatSet::Counter* c_relocated_frames_;
};

}  // namespace ndp
