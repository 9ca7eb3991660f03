#include "core/mmu.h"

#include <cassert>

namespace ndp {

Mmu::Mmu(const MmuConfig& cfg, AddressSpace& space, MemorySystem& mem,
         unsigned core)
    : cfg_(cfg), space_(space), mem_(mem), core_(core), l1_dtlb_(cfg.l1_dtlb),
      l2_tlb_(cfg.l2_tlb),
      walker_(std::make_unique<Walker>(space.page_table(), cfg.walker)) {}

namespace {
/// Physical address for va given a TLB-style (base_pfn, page_shift) entry.
PhysAddr pa_from_entry(VirtAddr va, Pfn base_pfn, unsigned page_shift) {
  const Vpn vpn = vpn_of(va);
  const Vpn entry_base_vpn = (va >> page_shift) << (page_shift - kPageShift);
  return frame_base(base_pfn + (vpn - entry_base_vpn)) + page_offset(va);
}
}  // namespace

Cycle MmuOp::begin(Mmu& mmu, Cycle now, VirtAddr va, AccessType type) {
  mmu_ = &mmu;
  va_ = va;
  type_ = type;
  issue_ = now;
  fault_cycles_ = 0;
  walked_ = false;
  retried_after_fault_ = false;
  walk_accesses_ = 0;
  step_idx_ = 0;

  if (mmu.cfg_.ideal) {
    // Paper §VI: "every address translation request hits the L1 TLB, and
    // the access latency ... is zero". Pages still materialize so data
    // placement matches the other mechanisms.
    auto pa = mmu.space_.translate(va);
    if (!pa) {
      mmu.space_.touch_untimed(va);  // free by design for the limit case
      pa = mmu.space_.translate(va);
    }
    pa_ = *pa;
    trans_done_ = now;
    ++mmu.counters_.ideal_translations;
    stage_ = Stage::kData;
    return now;
  }

  Cycle t = now + mmu.l1_dtlb_.config().latency;
  if (auto e = mmu.l1_dtlb_.lookup(va)) {
    pa_ = pa_from_entry(va, e->pfn, e->page_shift);
    trans_done_ = t;
    ++mmu.counters_.l1_hits;
    stage_ = Stage::kData;
    return t;
  }
  t += mmu.l2_tlb_.config().latency;
  if (auto e = mmu.l2_tlb_.lookup(va)) {
    pa_ = pa_from_entry(va, e->pfn, e->page_shift);
    mmu.l1_dtlb_.insert(va, e->pfn, e->page_shift);
    trans_done_ = t;
    ++mmu.counters_.l2_hits;
    stage_ = Stage::kData;
    return t;
  }

  // TLB miss. If this core is already walking the same page, coalesce onto
  // that walk (MSHR behaviour) instead of duplicating PTE accesses.
  walk_begin_ = t;
  if (mmu.walk_inflight(vpn_of(va))) {
    ++mmu.counters_.coalesced_walks;
    stage_ = Stage::kWaitWalk;
    return t + kWalkPollInterval;
  }
  return start_walk(t);
}

Cycle MmuOp::start_walk(Cycle now) {
  Mmu& mmu = *mmu_;
  // Plan the page-table walk (paper Fig. 11 steps 2-4).
  walked_ = true;
  ++mmu.counters_.walks;
  mmu.add_inflight_walk(vpn_of(va_));
  mmu.walker_->plan_into(vpn_of(va_), plan_);
  plan_start_ = now;
  step_idx_ = 0;
  stage_ = Stage::kWalk;
  return now + plan_.start_latency;
}

Cycle MmuOp::on_walk_complete(Cycle now) {
  Mmu& mmu = *mmu_;
  mmu.walker_->finish(vpn_of(va_), plan_, plan_start_, now, walk_accesses_);

  if (!plan_.path.mapped) {
    // Page fault: the OS maps the page, then the hardware walks again. A
    // concurrent op may have faulted the same page in already (touch() then
    // reports no fault and costs nothing) — the re-walk still happens.
    const AddressSpace::TouchResult tr = mmu.space_.touch(va_, now);
    if (tr.faulted) {
      fault_cycles_ += tr.cost;
      ++mmu.counters_.faults;
    }
    retried_after_fault_ = true;
    const Cycle t = now + tr.cost;
    mmu.walker_->plan_into(vpn_of(va_), plan_);
    assert(plan_.path.mapped && "touch() must leave the page mapped");
    plan_start_ = t;
    step_idx_ = 0;
    walk_accesses_ = 0;
    stage_ = Stage::kWalk;
    return t + plan_.start_latency;
  }

  // TLB refill: entries hold the base frame of the (possibly huge) page.
  const Vpn vpn = vpn_of(va_);
  const unsigned shift = plan_.path.page_shift;
  const Vpn entry_base_vpn = (va_ >> shift) << (shift - kPageShift);
  const Pfn base_pfn = plan_.path.pfn - (vpn - entry_base_vpn);
  mmu.l1_dtlb_.insert(va_, base_pfn, shift);
  mmu.l2_tlb_.insert(va_, base_pfn, shift);

  // Release the walk so coalesced waiters can resolve from the TLBs.
  mmu.release_inflight_walk(vpn);

  pa_ = frame_base(plan_.path.pfn) + page_offset(va_);
  trans_done_ = now;
  mmu.counters_.walk_latency.add(static_cast<double>(now - walk_begin_));
  stage_ = Stage::kData;
  return now;
}

Cycle MmuOp::step(Cycle now) {
  Mmu& mmu = *mmu_;
  switch (stage_) {
    case Stage::kWaitWalk: {
      // Poll for the coalesced walk's TLB refill.
      if (auto e = mmu.l1_dtlb_.peek(va_)) {
        pa_ = pa_from_entry(va_, e->pfn, e->page_shift);
        trans_done_ = now;
        stage_ = Stage::kData;
        return now;
      }
      if (auto e = mmu.l2_tlb_.peek(va_)) {
        mmu.l1_dtlb_.insert(va_, e->pfn, e->page_shift);
        pa_ = pa_from_entry(va_, e->pfn, e->page_shift);
        trans_done_ = now;
        stage_ = Stage::kData;
        return now;
      }
      if (mmu.walk_inflight(vpn_of(va_)))
        return now + kWalkPollInterval;  // still walking
      // The walk finished but the entry was already displaced (or torn
      // down): perform our own walk.
      return start_walk(now);
    }
    case Stage::kWalk: {
      const auto& steps = plan_.path.steps;
      // PWC-skipped steps issue nothing (non-radix preamble steps survive
      // the skip — see WalkPlan::executes).
      while (step_idx_ < steps.size() && !plan_.executes(step_idx_))
        ++step_idx_;
      if (step_idx_ >= steps.size()) return on_walk_complete(now);
      // Issue every surviving step of the current group concurrently.
      const unsigned group = steps[step_idx_].group;
      Cycle group_finish = now;
      for (; step_idx_ < steps.size() && steps[step_idx_].group == group;
           ++step_idx_) {
        if (!plan_.executes(step_idx_)) continue;
        const MemAccessResult r = mmu.mem_.access(
            now, mmu.core_, steps[step_idx_].pte_addr, AccessType::kRead,
            AccessClass::kMetadata,
            mmu.cfg_.walker.bypass_caches_for_metadata);
        group_finish = std::max(group_finish, r.finish);
        ++walk_accesses_;
      }
      if (step_idx_ >= steps.size()) return on_walk_complete(group_finish);
      return group_finish;
    }
    case Stage::kData: {
      const MemAccessResult r = mmu.mem_.access(
          now, mmu.core_, pa_, type_, AccessClass::kData, false);
      finish_ = r.finish;
      stage_ = Stage::kDone;
      return finish_;
    }
    case Stage::kIdle:
    case Stage::kDone:
      break;
  }
  assert(false && "step() on an idle/finished op");
  return now;
}

StatSet Mmu::snapshot() const {
  StatSet s;
  s.inc("ideal_translations", counters_.ideal_translations);
  s.inc("l1_hit", counters_.l1_hits);
  s.inc("l2_hit", counters_.l2_hits);
  s.inc("walks", counters_.walks);
  s.inc("coalesced_walks", counters_.coalesced_walks);
  s.inc("faults", counters_.faults);
  s.merge_average("walk_latency", counters_.walk_latency);
  return s;
}

}  // namespace ndp
