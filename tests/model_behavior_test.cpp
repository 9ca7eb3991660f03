// Deeper behavioural tests of the timing model: the specific effects the
// paper's argument rests on, checked at component scale where they are
// unambiguous.
#include <gtest/gtest.h>

#include "core/mmu.h"
#include "core/system.h"
#include "mmu_harness.h"
#include "sim/experiment.h"

namespace ndp {
namespace {

using test::MmuRig;
using test::run_op;
using test::translation_cycles;

/// Issue-to-finish cycles of one op: translation plus data access.
Cycle op_cycles(const MmuOp& op) {
  return op.finish_time() - op.issue_time();
}

TEST(ModelBehavior, ColdWalkCostOrdering) {
  // On identical cold state, walk cost must order:
  //   NDPage (1 access) <= HugePage-ish <= Radix (2+ accesses, cold PWCs).
  MmuRig radix(Mechanism::kRadix);
  MmuRig ndpage(Mechanism::kNdpage);
  // Prefault one page each, then translate it cold (TLBs empty).
  radix.space.touch(0x12345000, 0);
  ndpage.space.touch(0x12345000, 0);
  const MmuOp r = run_op(radix.mmu, 0, 0x12345000);
  const MmuOp n = run_op(ndpage.mmu, 0, 0x12345000);
  ASSERT_TRUE(r.walked());
  ASSERT_TRUE(n.walked());
  // Cold PWCs: radix pays 4 memory accesses, NDPage pays 3.
  EXPECT_LT(translation_cycles(n), translation_cycles(r));
}

TEST(ModelBehavior, WarmPwcsShortenBothWalks) {
  MmuRig radix(Mechanism::kRadix);
  for (Vpn v = 0; v < 64; ++v) radix.space.touch(v << kPageShift, 0);
  // Warm the PWCs with one walk, then measure a sibling page's walk.
  const MmuOp cold = run_op(radix.mmu, 0, 0);
  const MmuOp warm = run_op(radix.mmu, 1'000'000, 5 << kPageShift);
  ASSERT_TRUE(cold.walked());
  ASSERT_TRUE(warm.walked());
  const auto& pwcs = radix.mmu.walker().pwcs();
  EXPECT_GT(pwcs.level(2)->counters().hits + pwcs.level(3)->counters().hits,
            0u);
  EXPECT_LT(translation_cycles(warm), translation_cycles(cold));
}

TEST(ModelBehavior, BypassedWalkIsImmuneToCacheState) {
  // The same PTE access costs the same no matter how often it repeats:
  // bypass goes straight to memory (SV-A), so there is no cache-warming
  // effect. (The first walk is excluded: it warms the L4/L3 PWCs, which
  // NDPage keeps by design.)
  MmuRig ndpage(Mechanism::kNdpage);
  ndpage.space.touch(0x7000, 0);
  run_op(ndpage.mmu, 0, 0x7000);  // warms PWCs
  ndpage.mmu.l1_dtlb().flush();
  ndpage.mmu.l2_tlb().flush();
  const Cycle second = op_cycles(run_op(ndpage.mmu, 10'000'000, 0x7000));
  ndpage.mmu.l1_dtlb().flush();
  ndpage.mmu.l2_tlb().flush();
  const Cycle third = op_cycles(run_op(ndpage.mmu, 20'000'000, 0x7000));
  EXPECT_NEAR(double(second), double(third), 60.0)
      << "row-buffer state may differ slightly, nothing else";
}

TEST(ModelBehavior, RadixRepeatWalkBenefitsFromCachedPte) {
  // Opposite of the bypass case: a radix re-walk of the same page hits the
  // L1-resident PTE line and is much faster — the very effect that makes
  // PTEs pollute the cache.
  MmuRig radix(Mechanism::kRadix);
  radix.space.touch(0x9000, 0);
  const Cycle first = op_cycles(run_op(radix.mmu, 0, 0x9000));
  radix.mmu.l1_dtlb().flush();
  radix.mmu.l2_tlb().flush();
  const Cycle second = op_cycles(run_op(radix.mmu, 1'000, 0x9000));
  EXPECT_LT(second, first);
}

TEST(ModelBehavior, HugePageTlbReachBeatsRadix) {
  MmuRig radix(Mechanism::kRadix);
  MmuRig huge(Mechanism::kHugePage);
  // Touch 256 pages spanning 1 MB: one 2 MB entry covers them all for the
  // huge-page rig, while radix needs 256 distinct 4 KB entries.
  for (Vpn v = 0; v < 256; ++v) {
    radix.space.touch(v << kPageShift, 0);
    huge.space.touch(v << kPageShift, 0);
  }
  Cycle t = 1'000'000;
  for (Vpn v = 0; v < 256; ++v) {
    run_op(radix.mmu, t, v << kPageShift);
    run_op(huge.mmu, t, v << kPageShift);
    t += 10'000;
  }
  EXPECT_LT(huge.mmu.counters().walks, radix.mmu.counters().walks / 4);
}

TEST(ModelBehavior, EchParallelWalkBeatsSequentialRadixColdCache) {
  // With cold caches and cold PWCs, ECH's 3 parallel probes finish faster
  // than radix's 4 dependent accesses.
  MmuRig radix(Mechanism::kRadix);
  MmuRig ech(Mechanism::kEch);
  radix.space.touch(0xA000, 0);
  ech.space.touch(0xA000, 0);
  const MmuOp r = run_op(radix.mmu, 0, 0xA000);
  const MmuOp e = run_op(ech.mmu, 0, 0xA000);
  ASSERT_TRUE(r.walked());
  ASSERT_TRUE(e.walked());
  EXPECT_LT(translation_cycles(e), translation_cycles(r));
}

TEST(ModelBehavior, FaultChargesAppearOnceNotTwice) {
  MmuRig radix(Mechanism::kRadix);
  const MmuOp op = run_op(radix.mmu, 0, 0xB000);
  EXPECT_TRUE(op.faulted());
  // A replayed op on the now-mapped page must not fault again.
  radix.mmu.l1_dtlb().flush();
  radix.mmu.l2_tlb().flush();
  const MmuOp op2 = run_op(radix.mmu, op.finish_time() + 1000, 0xB000);
  EXPECT_FALSE(op2.faulted());
  EXPECT_EQ(radix.mmu.counters().faults, 1u);
}

TEST(ModelBehavior, SharedL3GivesCpuPteReuseAcrossCores) {
  // Two CPU cores walking the same page table share PTE lines through the
  // L3: the second core's walk is cheaper. This is the CPU-side mechanism
  // behind Fig. 4's NDP-vs-CPU gap.
  PhysicalMemory pm(MmuRig::pool());
  MemorySystem mem{MemorySystemConfig::cpu(2)};
  AddressSpace space(pm, make_page_table(Mechanism::kRadix, pm), false);
  const MmuConfig cfg = MmuRig::config_of(Mechanism::kRadix);
  Mmu mmu0(cfg, space, mem, 0), mmu1(cfg, space, mem, 1);
  space.touch(0xC000, 0);
  const MmuOp a = run_op(mmu0, 0, 0xC000);
  const MmuOp b = run_op(mmu1, 100'000, 0xC000);
  ASSERT_TRUE(a.walked());
  ASSERT_TRUE(b.walked());
  EXPECT_LT(translation_cycles(b), translation_cycles(a));
}

TEST(ModelBehavior, TranslationFractionTracksMechanismQuality) {
  // End-to-end: translation share must order Ideal < NDPage < Radix on the
  // pure-random workload.
  auto frac = [](Mechanism m) {
    RunSpec s;
    s.system = SystemKind::kNdp;
    s.cores = 1;
    s.mechanism = m;
    s.workload = WorkloadKind::kRND;
    s.instructions_per_core = 20'000;
    s.warmup_refs = 1'000;
    s.scale = 1.0 / 32.0;
    return run_experiment(s).translation_fraction;
  };
  const double radix = frac(Mechanism::kRadix);
  const double ndpage = frac(Mechanism::kNdpage);
  const double ideal = frac(Mechanism::kIdeal);
  EXPECT_LT(ideal, ndpage);
  EXPECT_LT(ndpage, radix);
}

}  // namespace
}  // namespace ndp
