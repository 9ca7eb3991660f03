#include "translate/address_space.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <utility>

namespace ndp {

namespace {
// kswapd-style watermarks as fractions of the pool: reclaim kicks in below
// low_watermark() free frames and recovers up to high_watermark().
// (16 GB pool: low = 64 MB, high = 192 MB.)
std::uint64_t low_watermark(const PhysicalMemory& pm) {
  return pm.num_frames() / 256;
}
std::uint64_t high_watermark(const PhysicalMemory& pm) {
  return pm.num_frames() / 256 * 3;
}
}  // namespace

AddressSpace::AddressSpace(PhysicalMemory& pm, std::unique_ptr<PageTable> pt,
                           bool use_huge_pages)
    : pm_(pm), pt_(std::move(pt)), huge_(use_huge_pages),
      c_prefault_done_(stats_.counter("prefault_done")),
      c_fault_4k_(stats_.counter("fault_4k")),
      c_fault_2m_(stats_.counter("fault_2m")),
      c_fault_2m_compacted_(stats_.counter("fault_2m_compacted")),
      c_fault_2m_fallback_(stats_.counter("fault_2m_fallback")),
      c_demand_faults_(stats_.counter("demand_faults")),
      c_fault_cycles_(stats_.counter("fault_cycles")),
      c_fault_lock_wait_(stats_.counter("fault_lock_wait")),
      c_set_conflict_evictions_(stats_.counter("set_conflict_evictions")),
      c_reclaim_events_(stats_.counter("reclaim_events")),
      c_reclaimed_frames_(stats_.counter("reclaimed_frames")),
      c_reclaim_cycles_(stats_.counter("reclaim_cycles")),
      c_relocated_frames_(stats_.counter("relocated_frames")) {
  pm_.set_relocate_hook(
      [this](Pfn oldf, Pfn newf) { on_relocate(oldf, newf); });
}

AddressSpace::~AddressSpace() {
  pm_.set_relocate_hook(nullptr);
  if (pm_.tearing_down()) return;
  // Return data frames in ascending pfn order, so the buddy bitmaps are
  // walked sequentially: in hash order every free is a cache miss on a
  // paper-sized pool. A one-bit-per-frame mark set is the sort, alive only
  // here (512 KB for 16 GB). The page table returns its own frames in its
  // dtor.
  std::vector<std::uint64_t> owned((pm_.num_frames() + 63) / 64);
  auto mark = [&](Pfn pfn) { owned[pfn >> 6] |= 1ull << (pfn & 63); };
  frame_owner_.for_each([&](Pfn pfn, Vpn) { mark(pfn); });
  for (const auto& [pfn, vpn] : owner_log_) {
    if (vpn == kNoOwner)
      owned[pfn >> 6] &= ~(1ull << (pfn & 63));
    else
      mark(pfn);
  }
  for (std::size_t w = 0; w < owned.size(); ++w)
    for (std::uint64_t bits = owned[w]; bits; bits &= bits - 1)
      pm_.free_frame(w * 64 + static_cast<Pfn>(__builtin_ctzll(bits)));
  huge_blocks_.for_each([&](Vpn, Pfn base) { pm_.free_huge(base); });
}

void AddressSpace::add_region(VmRegion region) {
  assert(region.bytes > 0);
  assert(page_offset(region.base) == 0 && "regions must be page aligned");
  regions_.push_back(std::move(region));
}

void AddressSpace::prefault_all() {
  // Size the owner log (the block map in huge mode) once for every page
  // (2 MB block) the loop below can map, so no append regrows it; tell a
  // 4 KB page table too.
  std::uint64_t entries = 0;
  for (const VmRegion& r : regions_) {
    if (!r.prefault) continue;
    entries += huge_ ? (vpn_of(r.end() - 1) >> 9) - (vpn_of(r.base) >> 9) + 1
                     : vpn_of(r.end() - 1) - vpn_of(r.base) + 1;
  }
  if (huge_) {
    huge_blocks_.reserve(huge_blocks_.size() + entries);
  } else {
    owner_log_.reserve(owner_log_.size() + entries);
    pt_->reserve(entries);
  }
  // Nothing is mapped at or above vpn_limit_, so only a page below it
  // (regions out of order or overlapping) needs a presence lookup. Above
  // it, the page table's run span says how many pages map as one run.
  std::array<Pfn, kRunPages> pfns;
  for (const VmRegion& r : regions_) {
    if (!r.prefault) continue;
    if (huge_) {
      // Round the region outward to 2 MB boundaries; THP-style policy maps
      // the whole extent with huge pages where possible.
      const Vpn first = vpn_of(r.base) & ~0x1FFull;
      const Vpn last = vpn_of(r.end() - 1) | 0x1FFull;
      for (Vpn v = first; v <= last; v += 512) {
        if (v < vpn_limit_ && pt_->lookup(v)) continue;
        const std::uint64_t blocks = mapped_2m_;
        fault_in_2m(v);
        prefault_pages_ += mapped_2m_ > blocks ? 512 : 1;
      }
      continue;
    }
    const Vpn last = vpn_of(r.end() - 1);
    for (Vpn v = vpn_of(r.base); v <= last;) {
      const std::uint64_t run =
          v < vpn_limit_ ? 0
                         : std::min<std::uint64_t>(
                               {pt_->run_span(v), last - v + 1, kRunPages});
      if (run == 0) {
        // Page by page: below the limit v may be mapped already; at or
        // above it, the table promised no run (mapping v allocates a node,
        // whose frames then follow v's, or the table makes no promises).
        if (v >= vpn_limit_ || !pt_->lookup(v)) {
          fault_in_4k(v);
          ++prefault_pages_;
        }
        ++v;
        continue;
      }
      pm_.alloc_frames(run, FrameUse::kData, pfns.data());
      pt_->map_run(v, run, pfns.data());
      for (std::uint64_t i = 0; i < run; ++i) {
        own_frame(pfns[i], v + i);
        fifo_4k_.push_back(v + i);
      }
      mapped_4k_ += run;
      c_fault_4k_->add(run);
      v += run;
      vpn_limit_ = v;
      prefault_pages_ += run;
      prefault_run_pages_ += run;
    }
  }
  c_prefault_done_->add();
}

Cycle AddressSpace::maybe_reclaim(std::uint64_t frames_needed) {
  if (pm_.free_frames() >= low_watermark(pm_) + frames_needed) return 0;
  Cycle cost = pm_.costs().shootdown;  // one IPI round per reclaim batch
  std::uint64_t freed = 0;
  const std::uint64_t goal = high_watermark(pm_) + frames_needed;
  auto unmap_4k = [&](Vpn vpn) -> bool {
    const auto pfn = pt_->lookup(vpn);
    if (!pfn) return false;
    // Only 4 KB mappings sit in fifo_4k_; huge blocks live in fifo_2m_.
    if (!pt_->unmap(vpn)) return false;
    disown_frame(*pfn);
    pm_.free_frame(*pfn);
    --mapped_4k_;
    ++freed;
    cost += pm_.costs().reclaim_per_frame;
    if (shootdown_) shootdown_(vpn);
    return true;
  };
  while (pm_.free_frames() < goal && (!fifo_4k_.empty() || !fifo_2m_.empty())) {
    // Alternate: prefer reclaiming huge blocks first when present — they
    // recover 512 frames per unmap and are the bloat we are fighting.
    if (!fifo_2m_.empty()) {
      const Vpn base = fifo_2m_.front();
      fifo_2m_.pop_front();
      const std::uint64_t* block = huge_blocks_.find(base);
      if (!block) continue;  // stale entry
      pt_->unmap(base);
      pm_.free_huge(*block);
      huge_blocks_.erase(base);
      --mapped_2m_;
      freed += 512;
      // Sequential writeback of 2 MB is far cheaper per frame than random
      // 4 KB swaps; charge a quarter of the per-frame rate.
      cost += 512 * (pm_.costs().reclaim_per_frame / 4);
      if (shootdown_) shootdown_(base);
      continue;
    }
    const Vpn vpn = fifo_4k_.front();
    fifo_4k_.pop_front();
    unmap_4k(vpn);
  }
  c_reclaim_events_->add();
  c_reclaimed_frames_->add(freed);
  c_reclaim_cycles_->add(cost);
  return cost;
}

Cycle AddressSpace::fault_in_4k(Vpn vpn) {
  const Pfn pfn = pm_.alloc_frame(FrameUse::kData);
  const MapResult mr = pt_->map(vpn, pfn, kPageShift);
  own_frame(pfn, vpn);
  fifo_4k_.push_back(vpn);
  ++mapped_4k_;
  vpn_limit_ = std::max(vpn_limit_, vpn + 1);
  c_fault_4k_->add();
  Cycle extra = 0;
  if (mr.evicted) {
    // Restricted-associativity set conflict: the displaced page is gone —
    // release its frame, forget it, and shoot down stale TLB entries. The
    // page re-faults on its next touch (DIPTA's page-conflict penalty).
    const auto [evpn, epfn] = *mr.evicted;
    disown_frame(epfn);
    pm_.free_frame(epfn);
    --mapped_4k_;
    if (shootdown_) shootdown_(evpn);
    c_set_conflict_evictions_->add();
    extra += pm_.costs().reclaim_per_frame + pm_.costs().shootdown;
  }
  // Node allocations are zeroed 4 KB frames: charge like small faults.
  return extra + pm_.costs().fault_4k() +
         (mr.bytes_allocated / 1024) * pm_.costs().zero_per_kb;
}

Cycle AddressSpace::fault_in_2m(Vpn vpn_aligned) {
  assert((vpn_aligned & 0x1FFull) == 0);
  const PhysicalMemory::HugeResult hr = pm_.alloc_huge();
  if (!hr.fell_back) {
    const MapResult mr = pt_->map(vpn_aligned, hr.base, kHugePageShift);
    huge_blocks_.insert_or_assign(vpn_aligned, hr.base);
    fifo_2m_.push_back(vpn_aligned);
    ++mapped_2m_;
    vpn_limit_ = std::max(vpn_limit_, vpn_aligned + 512);
    c_fault_2m_->add();
    if (hr.used_compaction) c_fault_2m_compacted_->add();
    return hr.cost + (mr.bytes_allocated / 1024) * pm_.costs().zero_per_kb;
  }
  // THP failure: splinter to a single 4 KB page for the touched vpn's slot.
  // The failed huge attempt still cost the allocation/compaction scan.
  c_fault_2m_fallback_->add();
  return pm_.costs().huge_fault_extra + fault_in_4k(vpn_aligned);
}

AddressSpace::TouchResult AddressSpace::touch(VirtAddr va, Cycle now) {
  const Vpn vpn = vpn_of(va);
  if (pt_->lookup(vpn)) return TouchResult{};
  TouchResult r;
  r.faulted = true;
  // mmap-lock: wait out any fault still being serviced.
  const Cycle lock_wait = now < fault_lock_until_ ? fault_lock_until_ - now : 0;
  Cycle work = maybe_reclaim(huge_ ? 512 : 1);
  if (huge_) {
    const Vpn aligned = vpn & ~0x1FFull;
    work += fault_in_2m(aligned);
    // Splintered fallback maps only `aligned`; make sure the touched page
    // itself is resident.
    if (!pt_->lookup(vpn)) work += fault_in_4k(vpn);
  } else {
    work += fault_in_4k(vpn);
  }
  fault_lock_until_ = std::max(fault_lock_until_, now) + work;
  r.cost = lock_wait + work;
  c_demand_faults_->add();
  c_fault_cycles_->add(r.cost);
  c_fault_lock_wait_->add(lock_wait);
  return r;
}

void AddressSpace::touch_untimed(VirtAddr va) {
  const Vpn vpn = vpn_of(va);
  if (pt_->lookup(vpn)) return;
  if (huge_) {
    const Vpn aligned = vpn & ~0x1FFull;
    fault_in_2m(aligned);
    if (!pt_->lookup(vpn)) fault_in_4k(vpn);
  } else {
    fault_in_4k(vpn);
  }
}

std::optional<PhysAddr> AddressSpace::translate(VirtAddr va) const {
  const auto pfn = pt_->lookup(vpn_of(va));
  if (!pfn) return std::nullopt;
  return frame_base(*pfn) + page_offset(va);
}

void AddressSpace::own_frame(Pfn pfn, Vpn vpn) {
  owner_log_.emplace_back(pfn, vpn);
}

void AddressSpace::disown_frame(Pfn pfn) {
  owner_log_.emplace_back(pfn, kNoOwner);
}

void AddressSpace::flush_owners() {
  if (owner_log_.empty()) return;
  // The log's capacity is what prefault_all() reserved for its whole run,
  // so a flush in mid-prefault sizes the map once for all of it. Each slot
  // is prefetched 16 inserts ahead: a table of millions of entries misses
  // every cache, and this hides the miss behind the inserts in between.
  constexpr std::size_t kAhead = 16;
  frame_owner_.reserve(frame_owner_.size() + owner_log_.capacity());
  const std::size_t n = owner_log_.size();
  // A frame freed and allocated again is logged twice, so the entries
  // apply in log order.
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kAhead < n) frame_owner_.prefetch(owner_log_[i + kAhead].first);
    const auto [pfn, vpn] = owner_log_[i];
    if (vpn == kNoOwner)
      frame_owner_.erase(pfn);
    else
      frame_owner_.insert_or_assign(pfn, vpn);
  }
  // A prefault's worth of log gives its storage back. A short one keeps it:
  // a compaction relocates frame after frame, and every relocation after
  // the first flushes only what was logged since the one before.
  constexpr std::size_t kKeptEntries = 4096;
  owner_log_.clear();
  if (owner_log_.capacity() > kKeptEntries)
    std::vector<std::pair<Pfn, Vpn>>().swap(owner_log_);
}

void AddressSpace::on_relocate(Pfn old_pfn, Pfn new_pfn) {
  flush_owners();
  const std::uint64_t* owner = frame_owner_.find(old_pfn);
  assert(owner && "compaction moved a data frame this space does not own");
  const Vpn vpn = *owner;
  const bool ok = pt_->remap(vpn, new_pfn);
  assert(ok && "reverse map points at an unmapped vpn");
  (void)ok;
  frame_owner_.erase(old_pfn);
  frame_owner_.insert_or_assign(new_pfn, vpn);
  // The frame moved under the translation: TLBs must not serve the old pa.
  if (shootdown_) shootdown_(vpn);
  c_relocated_frames_->add();
}

void AddressSpace::save_state(BlobWriter& out) const {
  out.str("AddressSpace");
  out.u64(huge_ ? 1 : 0);
  out.u64(regions_.size());
  for (const VmRegion& r : regions_) {
    out.str(r.name);
    out.u64(r.base);
    out.u64(r.bytes);
    out.u64(r.prefault ? 1 : 0);
  }
  // Hash maps serialize sorted by key so identical state always produces
  // identical bytes (the store's byte-identity contract). The reverse map
  // writes frame_owner_ with the unflushed log applied in order: the bytes
  // do not depend on how much of it has been built. The sort is stable, so
  // a key's map entry comes first and its log entries follow in log order;
  // the last one wins, and kNoOwner drops the key.
  auto write_sorted = [&out](const FlatU64Map& map,
                             const std::vector<std::pair<Pfn, Vpn>>& log) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;
    entries.reserve(map.size() + log.size());
    map.for_each([&](std::uint64_t k, std::uint64_t v) {
      entries.emplace_back(k, v);
    });
    entries.insert(entries.end(), log.begin(), log.end());
    std::stable_sort(entries.begin(), entries.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    std::vector<std::uint64_t> keys, values;
    keys.reserve(entries.size());
    values.reserve(entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (i + 1 < entries.size() && entries[i + 1].first == entries[i].first)
        continue;
      if (entries[i].second == kNoOwner) continue;
      keys.push_back(entries[i].first);
      values.push_back(entries[i].second);
    }
    out.u64s(keys);
    out.u64s(values);
  };
  write_sorted(frame_owner_, owner_log_);
  write_sorted(huge_blocks_, {});
  out.u64s(std::vector<std::uint64_t>(fifo_4k_.begin(), fifo_4k_.end()));
  out.u64s(std::vector<std::uint64_t>(fifo_2m_.begin(), fifo_2m_.end()));
  out.u64(fault_lock_until_);
  out.u64(mapped_4k_);
  out.u64(mapped_2m_);
  stats_.save_state(out);
}

bool AddressSpace::load_state(BlobReader& in) {
  if (in.str() != "AddressSpace" || in.u64() != (huge_ ? 1u : 0u))
    return false;
  const std::uint64_t n_regions = in.u64();
  if (!in.ok() || n_regions > in.remaining()) return false;
  std::vector<VmRegion> regions;
  regions.reserve(n_regions);
  for (std::uint64_t i = 0; i < n_regions && in.ok(); ++i) {
    VmRegion r;
    r.name = in.str();
    r.base = in.u64();
    r.bytes = in.u64();
    r.prefault = in.u64() != 0;
    regions.push_back(std::move(r));
  }
  const std::vector<std::uint64_t> opfns = in.u64s();
  const std::vector<std::uint64_t> ovpns = in.u64s();
  const std::vector<std::uint64_t> hvpns = in.u64s();
  const std::vector<std::uint64_t> hpfns = in.u64s();
  const std::vector<std::uint64_t> f4 = in.u64s();
  const std::vector<std::uint64_t> f2 = in.u64s();
  const Cycle lock_until = in.u64();
  const std::uint64_t m4 = in.u64();
  const std::uint64_t m2 = in.u64();
  if (!in.ok() || opfns.size() != ovpns.size() || hvpns.size() != hpfns.size())
    return false;
  // Owned frames were saved in ascending order, each at most once, and lie
  // in the pool.
  for (std::size_t i = 1; i < opfns.size(); ++i)
    if (opfns[i - 1] >= opfns[i]) return false;
  if (!opfns.empty() && opfns.back() >= pm_.num_frames()) return false;
  if (!stats_.load_state(in)) return false;
  regions_ = std::move(regions);
  // The reverse map is built on first read, as after a prefault.
  frame_owner_.clear();
  std::vector<std::pair<Pfn, Vpn>> log;
  log.reserve(opfns.size());
  for (std::size_t i = 0; i < opfns.size(); ++i)
    log.emplace_back(opfns[i], ovpns[i]);
  owner_log_ = std::move(log);
  huge_blocks_.clear();
  huge_blocks_.reserve(hvpns.size());
  for (std::size_t i = 0; i < hvpns.size(); ++i)
    huge_blocks_.insert_or_assign(hvpns[i], hpfns[i]);
  fifo_4k_.assign(f4.begin(), f4.end());
  fifo_2m_.assign(f2.begin(), f2.end());
  fault_lock_until_ = lock_until;
  mapped_4k_ = m4;
  mapped_2m_ = m2;
  // Every mapped page is an owned frame or lies in an owned 2 MB block.
  vpn_limit_ = 0;
  for (Vpn v : ovpns) vpn_limit_ = std::max(vpn_limit_, v + 1);
  for (Vpn v : hvpns) vpn_limit_ = std::max(vpn_limit_, v + 512);
  // PhysicalMemory::restore() cleared the relocate hook; this space owns
  // the restored frames again, so compaction callbacks must reach it.
  pm_.set_relocate_hook(
      [this](Pfn oldf, Pfn newf) { on_relocate(oldf, newf); });
  return true;
}

}  // namespace ndp
