#include "translate/walker.h"

#include <utility>

namespace ndp {

Walker::Walker(PageTable& pt, WalkerConfig cfg)
    : pt_(pt), cfg_(std::move(cfg)),
      pwcs_(cfg_.pwc_levels, cfg_.pwc, cfg_.pwc_entries) {}

void Walker::plan_into(Vpn vpn, WalkPlan& p) {
  pt_.walk_into(vpn, p.path, scratch_);
  p.first_step = 0;
  p.start_latency = 0;
  if (cfg_.pwc_levels.empty()) return;

  p.start_latency = pwcs_.latency();
  if (const unsigned deepest = pwcs_.deepest_hit(vpn)) {
    // Skip every step up to and including the level the PWC resolved.
    for (std::size_t i = 0; i < p.path.steps.size(); ++i) {
      if (p.path.steps[i].level == deepest) {
        p.first_step = i + 1;
        break;
      }
    }
  }
}

void Walker::finish(Vpn vpn, const WalkPlan& plan, Cycle start, Cycle end,
                    unsigned mem_accesses) {
  if (!cfg_.pwc_levels.empty()) pwcs_.fill(vpn, plan.path);
  ++counters_.walks;
  counters_.mem_accesses += mem_accesses;
  counters_.latency.add(static_cast<double>(end - start));
  counters_.accesses_per_walk.add(static_cast<double>(mem_accesses));
  if (!plan.path.mapped) ++counters_.faulting_walks;
}

StatSet Walker::snapshot() const {
  StatSet s;
  s.inc("walks", counters_.walks);
  s.inc("mem_accesses", counters_.mem_accesses);
  s.inc("faulting_walks", counters_.faulting_walks);
  s.merge_average("latency", counters_.latency);
  s.merge_average("accesses_per_walk", counters_.accesses_per_walk);
  return s;
}

}  // namespace ndp
