// One-core MMU rig shared by the MMU, walker and model-behaviour suites, and
// run_op(), which drives MmuOp — the engine's begin/step translation
// workflow — to completion, so every MMU test times the path that runs.
#pragma once

#include "cache/hierarchy.h"
#include "core/mechanism.h"
#include "core/mmu.h"
#include "os/phys_mem.h"
#include "translate/address_space.h"

namespace ndp::test {

/// Issue one memory operation (translation + data access) at `at` and step
/// it to done().
inline MmuOp run_op(Mmu& mmu, Cycle at, VirtAddr va,
                    AccessType type = AccessType::kRead) {
  MmuOp op;
  Cycle t = op.begin(mmu, at, va, type);
  while (!op.done()) t = op.step(t);
  return op;
}

/// Cycles from issue to translation: the TLB lookups plus any walk and
/// fault.
inline Cycle translation_cycles(const MmuOp& op) {
  return op.translation_done() - op.issue_time();
}

/// Core 0's MMU for one mechanism over a private 128 MB pool without boot
/// noise, in a 1-core NDP memory system.
struct MmuRig {
  PhysicalMemory pm{pool()};
  MemorySystem mem{MemorySystemConfig::ndp(1)};
  AddressSpace space;
  Mmu mmu;

  explicit MmuRig(Mechanism m = Mechanism::kRadix) : MmuRig(m, config_of(m)) {}
  MmuRig(Mechanism m, const MmuConfig& cfg)
      : space(pm, make_page_table(m, pm), uses_huge_pages(m)),
        mmu(cfg, space, mem, 0) {}

  static MmuConfig config_of(Mechanism m) {
    MmuConfig cfg;
    cfg.walker = make_walker_config(m);
    cfg.ideal = !models_translation(m);
    return cfg;
  }
  static PhysMemConfig pool() {
    PhysMemConfig cfg;
    cfg.bytes = 128ull << 20;
    cfg.noise_fraction = 0.0;
    cfg.seed = 7;
    return cfg;
  }
};

}  // namespace ndp::test
