#include "sim/engine.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "core/mmu.h"
#include "sim/event_heap.h"

namespace ndp {

std::uint64_t RunResult::total_instructions() const {
  std::uint64_t n = 0;
  for (const CoreStats& c : cores) n += c.instructions;
  return n;
}

Engine::Engine(System& system, TraceSource& trace, EngineConfig cfg)
    : sys_(system), trace_(trace), cfg_(cfg) {
  if (cfg_.instructions_per_core == 0)
    throw std::invalid_argument(
        "EngineConfig.instructions_per_core must be > 0: a zero budget "
        "retires nothing and would report 0 cycles");
}

namespace {

// The event queue itself lives in sim/event_heap.h (unit-tested there);
// kIssueSlot tags a front-end issue event vs an op-slot event.
using Event = EngineEvent;
constexpr unsigned kIssueSlot = EventHeap::kIssueSlot;

struct Slot {
  MmuOp op;
  std::uint32_t gap = 0;  ///< the op's preceding non-memory instructions
  bool busy = false;
};

struct CoreCtx {
  Cycle front = 0;  ///< front-end clock
  MemRef pending{};
  bool issue_scheduled = false;
  bool fetch_done = false;  ///< instruction budget reached; stop issuing
  unsigned inflight = 0;
  std::uint64_t instrs_issued = 0;
  std::vector<Slot> slots;
  CoreStats stats;
  std::uint64_t warmup_left = 0;
  bool counting = false;
};

}  // namespace

void Engine::prepare() {
  if (prepared_) return;
  prepared_ = true;
  auto t_phase = HostProfile::Clock::now();
  // Declare the shared dataset regions, then populate the resident set.
  // Session-shared material skips re-deriving the layout per cell.
  if (cfg_.material) {
    for (const VmRegion& r : cfg_.material->regions) sys_.space().add_region(r);
  } else {
    for (const VmRegion& r : trace_.regions()) sys_.space().add_region(r);
  }
  t_phase = stamp_phase(setup_profile_, ProfilePhase::kInstall, t_phase);
  sys_.space().prefault_all();
  // Pre-touch the workload's steady-state-warm demand pages (e.g. the hot
  // part of a hash table built before the measured window).
  if (cfg_.material) {
    for (VirtAddr va : cfg_.material->warm_pages) sys_.space().touch_untimed(va);
  } else {
    for (VirtAddr va : trace_.warm_pages()) sys_.space().touch_untimed(va);
  }
  stamp_phase(setup_profile_, ProfilePhase::kPrefault, t_phase);
}

RunResult Engine::run() {
  const unsigned ncores = sys_.num_cores();
  const unsigned mlp = sys_.mlp();

  prepare();
  RunResult out;
  out.host_profile.merge(setup_profile_);
  // Counted by prefault_all(); 0 when the System was adopted prepared.
  out.host.prefault_pages = sys_.space().prefault_pages();
  out.host.prefault_run_pages = sys_.space().prefault_run_pages();
  auto t_phase = HostProfile::Clock::now();
  auto end_phase = [&](ProfilePhase p) {
    t_phase = stamp_phase(out.host_profile, p, t_phase);
  };

  std::vector<CoreCtx> ctx(ncores);
  // Outstanding events per core: one per busy op slot plus one issue event.
  EventHeap pq(static_cast<std::size_t>(ncores) * (mlp + 1));
  unsigned cores_warm = 0;
  bool stats_reset_done = false;
  std::uint64_t events = 0;

  auto schedule_issue = [&](unsigned c, Cycle now) {
    CoreCtx& cc = ctx[c];
    if (cc.issue_scheduled || cc.fetch_done || cc.inflight >= mlp) return;
    const Cycle t = std::max(cc.front + cc.pending.gap, now);
    pq.push(Event{t, c, kIssueSlot});
    cc.issue_scheduled = true;
  };

  for (unsigned c = 0; c < ncores; ++c) {
    CoreCtx& cc = ctx[c];
    cc.slots.resize(mlp);
    cc.warmup_left = cfg_.warmup_refs_per_core;
    cc.counting = (cfg_.warmup_refs_per_core == 0);
    if (cc.counting) ++cores_warm;
    cc.pending = trace_.next(c);
    schedule_issue(c, 0);
  }
  if (cores_warm == ncores) stats_reset_done = true;
  if (stats_reset_done) end_phase(ProfilePhase::kWarmup);  // no warmup window

  // Pop-per-event on purpose: this loop pushes same-cycle events while
  // processing (stage transitions return `now`; completions re-issue at
  // `now`), and the golden-pinned tie order requires those pushes to land
  // in the live heap among the remaining ties. EventHeap::drain_same_cycle
  // documents why a pre-drained batch cannot reproduce that order.
  while (!pq.empty()) {
    const Event ev = pq.top();
    pq.pop();
    ++events;
    CoreCtx& cc = ctx[ev.core];

    if (ev.slot == kIssueSlot) {
      // Front-end: start the pending memory op in a free slot.
      cc.issue_scheduled = false;
      assert(cc.inflight < mlp);
      unsigned s = 0;
      while (cc.slots[s].busy) ++s;
      Slot& slot = cc.slots[s];
      slot.busy = true;
      slot.gap = cc.pending.gap;
      ++cc.inflight;
      const Cycle next = slot.op.begin(sys_.mmu(ev.core), ev.time,
                                       cc.pending.va, cc.pending.type);
      pq.push(Event{next, ev.core, s});
      cc.front = ev.time + 1;

      // Fetch the next reference unless the post-warmup budget is spent
      // (instrs_issued resets when warmup ends).
      cc.instrs_issued += cc.pending.gap + 1;
      if (cc.counting && cc.instrs_issued >= cfg_.instructions_per_core) {
        cc.fetch_done = true;
      } else {
        cc.pending = trace_.next(ev.core);
        schedule_issue(ev.core, ev.time);
      }
      continue;
    }

    // Op event: either advance one step, or (if the op already reached its
    // final state) this is the completion event at finish_time().
    Slot& slot = cc.slots[ev.slot];
    if (!slot.op.done()) {
      const Cycle next = slot.op.step(ev.time);
      // When step() drove the op to done, `next` is the completion time of
      // the in-flight data access: the slot stays occupied until then.
      pq.push(Event{next, ev.core, ev.slot});
      continue;
    }

    // Op completed (ev.time == finish_time()).
    slot.busy = false;
    --cc.inflight;
    const MmuOp& op = slot.op;
    if (cc.counting) {
      cc.stats.instructions += slot.gap + 1;
      cc.stats.memrefs += 1;
      cc.stats.gap_cycles += slot.gap;
      cc.stats.translation_cycles += op.translation_done() - op.issue_time();
      cc.stats.data_cycles += op.finish_time() - op.translation_done();
      cc.stats.fault_cycles += op.fault_cycles();
      if (cc.stats.start == 0) cc.stats.start = op.issue_time();
      cc.stats.end = std::max(cc.stats.end, op.finish_time());
    } else if (--cc.warmup_left == 0) {
      cc.counting = true;
      cc.instrs_issued = 0;  // budget counts post-warmup instructions
      ++cores_warm;
      if (!stats_reset_done && cores_warm == ncores) {
        sys_.reset_stats();
        stats_reset_done = true;
        end_phase(ProfilePhase::kWarmup);
      }
    }
    schedule_issue(ev.core, ev.time);
  }
  end_phase(ProfilePhase::kRun);

  out.cores.reserve(ncores);
  std::uint64_t sum_trans = 0, sum_data = 0, sum_gap = 0, sum_refs = 0;
  for (unsigned c = 0; c < ncores; ++c) {
    const CoreStats& cs = ctx[c].stats;
    if (cs.instructions == 0 || cs.end <= cs.start) {
      // An all-warmup / zero-work core would serialize as 0 cycles and
      // silently poison every speedup table built on this result.
      throw std::runtime_error(
          "engine: core " + std::to_string(c) +
          " retired no post-warmup instructions (budget=" +
          std::to_string(cfg_.instructions_per_core) +
          ", warmup=" + std::to_string(cfg_.warmup_refs_per_core) +
          "); raise instructions_per_core or lower warmup_refs_per_core");
    }
    out.cores.push_back(cs);
    out.total_cycles = std::max(out.total_cycles, cs.cycles());
    sum_trans += cs.translation_cycles;
    sum_data += cs.data_cycles;
    sum_gap += cs.gap_cycles;
    sum_refs += cs.memrefs;
  }
  out.stats = sys_.collect_stats();
  out.host.events = events;
  out.host.heap_pushes = pq.pushes();
  out.host.heap_peak = pq.peak();

  if (const Average* a = out.stats.average("walker.latency"))
    out.avg_ptw_latency = a->mean();
  const double busy =
      static_cast<double>(sum_trans + sum_data + sum_gap + sum_refs);
  out.translation_fraction =
      busy > 0 ? static_cast<double>(sum_trans) / busy : 0.0;
  out.l1_tlb_miss_rate =
      out.stats.rate("tlb.l1d.miss", "tlb.l1d.hit");
  out.l2_tlb_miss_rate = out.stats.rate("tlb.l2.miss", "tlb.l2.hit");
  const double mem_total = static_cast<double>(out.stats.get("mem.access"));
  out.pte_access_share =
      mem_total > 0
          ? static_cast<double>(out.stats.get("mem.access.meta")) / mem_total
          : 0.0;
  out.ipc = out.total_cycles
                ? static_cast<double>(out.total_instructions()) /
                      static_cast<double>(out.total_cycles) / ncores
                : 0.0;
  end_phase(ProfilePhase::kCollect);
  return out;
}

}  // namespace ndp
