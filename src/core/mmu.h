// Per-core MMU front-end: the address-translation workflow of the paper's
// Fig. 3 (conventional) and Fig. 11 (NDPage).
//
//   L1 DTLB (1 cy) -> L2 TLB (12 cy) -> page-table walk (PWCs + PTE memory
//   accesses, bypassed for NDPage) -> [page fault: OS maps, walker retries]
//   -> TLB refill.
//
// MmuOp runs that workflow one event at a time. The split with
// translate/walker.h: the Walker plans the walk and refills the PWCs; MmuOp
// issues the PTE reads.
//
// The Ideal mechanism short-circuits everything: translations resolve
// functionally with zero latency and generate no metadata traffic, giving
// the performance ceiling the paper plots as "Ideal".
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "cache/hierarchy.h"
#include "common/stats.h"
#include "common/types.h"
#include "core/mechanism.h"
#include "translate/address_space.h"
#include "translate/tlb.h"
#include "translate/walker.h"

namespace ndp {

struct MmuConfig {
  TlbConfig l1_dtlb{.name = "L1DTLB", .entries = 64, .ways = 4, .latency = 1,
                    .huge_entries = 32, .huge_ways = 4};
  /// The unified L2 TLB caches 4 KB translations only (2 MB translations are
  /// served by the dedicated L1 array, as in the x86 generations Table I's
  /// sizes correspond to) — this is what keeps the Huge Page baseline's
  /// reach at realistic levels.
  TlbConfig l2_tlb{.name = "L2TLB", .entries = 1536, .ways = 12, .latency = 12,
                   .huge_entries = 0, .huge_ways = 1};
  WalkerConfig walker;
  bool ideal = false;
};

class Mmu {
 public:
  Mmu(const MmuConfig& cfg, AddressSpace& space, MemorySystem& mem,
      unsigned core);

  Tlb& l1_dtlb() { return l1_dtlb_; }
  const Tlb& l1_dtlb() const { return l1_dtlb_; }
  Tlb& l2_tlb() { return l2_tlb_; }
  const Tlb& l2_tlb() const { return l2_tlb_; }
  struct Counters {
    std::uint64_t ideal_translations = 0;
    std::uint64_t l1_hits = 0, l2_hits = 0;
    std::uint64_t walks = 0, faults = 0;
    std::uint64_t coalesced_walks = 0;  ///< ops that piggybacked on a walk
    Average walk_latency;
  };

  Walker& walker() { return *walker_; }
  const Walker& walker() const { return *walker_; }
  const Counters& counters() const { return counters_; }
  void reset_counters() { counters_ = Counters{}; }
  StatSet snapshot() const;

 private:
  friend class MmuOp;

  /// Is a walk for vpn in flight on this core?
  bool walk_inflight(Vpn vpn) const {
    for (const auto& w : inflight_walks_)
      if (w.first == vpn) return true;
    return false;
  }
  void add_inflight_walk(Vpn vpn) {
    for (auto& w : inflight_walks_) {
      if (w.first == vpn) {
        ++w.second;
        return;
      }
    }
    inflight_walks_.emplace_back(vpn, 1u);
  }
  void release_inflight_walk(Vpn vpn) {
    for (auto& w : inflight_walks_) {
      if (w.first != vpn) continue;
      if (--w.second == 0) {
        w = inflight_walks_.back();
        inflight_walks_.pop_back();
      }
      return;
    }
  }

  MmuConfig cfg_;
  AddressSpace& space_;
  MemorySystem& mem_;
  unsigned core_;
  Tlb l1_dtlb_;
  Tlb l2_tlb_;
  std::unique_ptr<Walker> walker_;
  /// Walks currently in flight on this core, keyed by vpn. A second op
  /// missing the TLBs for the same page coalesces onto the existing walk
  /// (MSHR-style) instead of duplicating its PTE accesses. At most mlp
  /// walks are ever in flight, so a flat vector with linear probes beats a
  /// hash map (no per-walk node allocation on the TLB-miss path).
  std::vector<std::pair<Vpn, unsigned>> inflight_walks_;
  Counters counters_;
};

/// One memory operation (translation + data access) advanced one event at a
/// time — the discrete-event engine's view of the Fig. 3/Fig. 11 workflow.
///
/// Contract: begin() at the op's issue time returns the first event time;
/// each step(now) performs exactly the memory accesses due at `now` and
/// returns the next event time; when done() the results are readable. This
/// keeps every shared-resource access (DRAM banks, channel slots, caches)
/// ordered by global simulation time across cores, which a synchronous
/// whole-op model cannot do.
class MmuOp {
 public:
  /// Starts the op. Returns the next event time.
  Cycle begin(Mmu& mmu, Cycle now, VirtAddr va, AccessType type);
  /// Advance at event time `now`; returns the next event time (call step()
  /// again then), or the completion time when the op finished.
  Cycle step(Cycle now);
  bool done() const { return stage_ == Stage::kDone; }

  Cycle issue_time() const { return issue_; }
  Cycle translation_done() const { return trans_done_; }
  Cycle finish_time() const { return finish_; }
  Cycle fault_cycles() const { return fault_cycles_; }
  PhysAddr pa() const { return pa_; }
  bool walked() const { return walked_; }
  bool faulted() const { return fault_cycles_ > 0; }

 private:
  enum class Stage : std::uint8_t { kIdle, kWalk, kWaitWalk, kData, kDone };
  static constexpr Cycle kWalkPollInterval = 16;

  Cycle start_walk(Cycle now);
  Cycle on_walk_complete(Cycle now);
  Cycle start_data(Cycle now);

  Mmu* mmu_ = nullptr;
  VirtAddr va_ = 0;
  AccessType type_ = AccessType::kRead;
  Stage stage_ = Stage::kIdle;

  Walker::WalkPlan plan_;
  std::size_t step_idx_ = 0;       ///< next step within plan_.path.steps
  unsigned walk_accesses_ = 0;
  Cycle walk_begin_ = 0;           ///< after TLB lookups (paper's PTW start)
  Cycle plan_start_ = 0;           ///< start of the current plan's execution
  bool retried_after_fault_ = false;

  PhysAddr pa_ = 0;
  Cycle issue_ = 0;
  Cycle trans_done_ = 0;
  Cycle finish_ = 0;
  Cycle fault_cycles_ = 0;
  bool walked_ = false;
};

}  // namespace ndp
