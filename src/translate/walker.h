// Hardware page-table walker: plans a PageTable's WalkPath against the
// page-walk caches (paper Fig. 3's PTW, plus NDPage's §V-D workflow).
//
// The split: the Walker plans the walk and refills the PWCs; MmuOp
// (core/mmu.h) issues the PTE reads through the memory hierarchy, at their
// event times. The Walker
//   * probes the configured PWC levels in parallel (one latency charge),
//   * marks every radix step at or above the deepest PWC hit as skipped,
//   * refills the PWCs with the levels a finished walk traversed.
// MmuOp issues the surviving steps with AccessClass::kMetadata, with cache
// bypass when the mechanism asks for it (NDPage §V-A), and issues steps
// sharing a group id concurrently (ECH's parallel ways).
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "translate/page_table.h"
#include "translate/pwc.h"

namespace ndp {

struct WalkerConfig {
  /// NDPage's metadata-bypass mechanism: PTE requests skip the caches.
  bool bypass_caches_for_metadata = false;
  /// Which radix levels get a PWC ({4,3,2,1} Radix, {4,3} NDPage/Huge,
  /// empty for ECH/Ideal).
  std::vector<unsigned> pwc_levels{4, 3, 2, 1};
  PwcConfig pwc;
  /// Per-level entry-count overrides (level -> entries); levels not listed
  /// use `pwc.entries`. This is how the `pwc_lN` mechanism parameters size
  /// individual PWCs.
  std::map<unsigned, unsigned> pwc_entries;
};

class Walker {
 public:
  Walker(PageTable& pt, WalkerConfig cfg);

  /// Phase 1: probe PWCs and lay out the PTE accesses. Functionally
  /// read-only: faults are the MMU front-end's job (it maps and re-plans).
  struct WalkPlan {
    WalkPath path;              ///< full structural path
    std::size_t first_step = 0; ///< first step past the PWC-resolved level
    Cycle start_latency = 0;    ///< PWC probe latency to charge up front
    /// Does step i issue a memory access? PWCs cache radix interior
    /// entries, so a hit skips only the *radix-level* steps up to the
    /// resolved level — a mechanism's non-radix preamble (e.g. Hybrid's
    /// flat-window probe) is issued regardless.
    bool executes(std::size_t i) const {
      return i >= first_step || !WalkStep::is_radix_level(path.steps[i].level);
    }
  };
  /// Plan the walk for `vpn` into a caller-owned plan: `out` is reset and
  /// refilled reusing its path's steps capacity, so a recycled plan (the
  /// engine keeps one per op slot) makes planning a walk allocation-free.
  void plan_into(Vpn vpn, WalkPlan& out);
  /// Phase 2 (after the caller issued the steps): refill PWCs and record
  /// statistics.
  void finish(Vpn vpn, const WalkPlan& plan, Cycle start, Cycle end,
              unsigned mem_accesses);

  struct Counters {
    std::uint64_t walks = 0, mem_accesses = 0, faulting_walks = 0;
    Average latency;
    Average accesses_per_walk;
  };

  PwcSet& pwcs() { return pwcs_; }
  const PwcSet& pwcs() const { return pwcs_; }
  const WalkerConfig& config() const { return cfg_; }
  const Counters& counters() const { return counters_; }
  void reset_counters() { counters_ = Counters{}; }
  StatSet snapshot() const;

 private:
  PageTable& pt_;
  WalkerConfig cfg_;
  PwcSet pwcs_;
  Counters counters_;
  /// Per-core walk scratch (each core owns one Walker): handed to the page
  /// table's walk_into(vpn, out, scratch) overload so mechanisms that build
  /// a secondary path (Hybrid's radix fallback) reuse its capacity instead
  /// of keeping hidden mutable state or allocating per walk.
  WalkPath scratch_;
};

}  // namespace ndp
