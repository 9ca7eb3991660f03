// Tests for the discrete-event engine and experiment runner.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "sim/experiment.h"

namespace ndp {
namespace {

RunSpec tiny_spec(Mechanism m = Mechanism::kRadix, unsigned cores = 1) {
  RunSpec s;
  s.system = SystemKind::kNdp;
  s.cores = cores;
  s.mechanism = m;
  s.workload = WorkloadKind::kRND;
  s.instructions_per_core = 15'000;
  s.warmup_refs = 500;
  s.scale = 1.0 / 64.0;
  return s;
}

TEST(Engine, RespectsInstructionBudget) {
  const RunResult r = run_experiment(tiny_spec());
  ASSERT_EQ(r.cores.size(), 1u);
  EXPECT_GE(r.cores[0].instructions, 15'000u);
  EXPECT_LT(r.cores[0].instructions, 16'000u) << "overshoot bounded by one ref";
  EXPECT_GT(r.cores[0].memrefs, 0u);
  EXPECT_GT(r.total_cycles, r.cores[0].instructions / 8)
      << "cannot exceed the front-end width";
}

TEST(Engine, AllCoresComplete) {
  const RunResult r = run_experiment(tiny_spec(Mechanism::kRadix, 4));
  ASSERT_EQ(r.cores.size(), 4u);
  for (const CoreStats& c : r.cores) {
    EXPECT_GE(c.instructions, 15'000u);
    EXPECT_GT(c.cycles(), 0u);
  }
}

TEST(Engine, AccountingDecomposesOpLatency) {
  const RunResult r = run_experiment(tiny_spec());
  const CoreStats& c = r.cores[0];
  EXPECT_GT(c.translation_cycles, 0u);
  EXPECT_GT(c.data_cycles, 0u);
  EXPECT_GT(c.gap_cycles, 0u);
  EXPECT_GT(r.translation_fraction, 0.0);
  EXPECT_LT(r.translation_fraction, 1.0);
}

TEST(Engine, HeadlineMetricsPopulated) {
  const RunResult r = run_experiment(tiny_spec());
  EXPECT_GT(r.avg_ptw_latency, 0.0);
  EXPECT_GT(r.l1_tlb_miss_rate, 0.0);
  EXPECT_GT(r.l2_tlb_miss_rate, 0.0);
  EXPECT_GT(r.pte_access_share, 0.0);
  EXPECT_GT(r.ipc, 0.0);
  EXPECT_GT(r.stats.get("walker.walks"), 0u);
  EXPECT_GT(r.stats.get("dram.access"), 0u);
}

TEST(Engine, IdealHasNoTranslationCost) {
  const RunResult ideal = run_experiment(tiny_spec(Mechanism::kIdeal));
  EXPECT_DOUBLE_EQ(ideal.translation_fraction, 0.0);
  EXPECT_EQ(ideal.stats.get("walker.walks"), 0u);
  EXPECT_EQ(ideal.stats.get("mem.access.meta"), 0u);
}

TEST(Engine, IdealIsFastest) {
  const RunResult radix = run_experiment(tiny_spec(Mechanism::kRadix));
  const RunResult ideal = run_experiment(tiny_spec(Mechanism::kIdeal));
  EXPECT_LT(ideal.total_cycles, radix.total_cycles);
}

TEST(Engine, NdpageBypassesAndNeverTouchesL1WithMetadata) {
  const RunResult r = run_experiment(tiny_spec(Mechanism::kNdpage));
  EXPECT_GT(r.stats.get("mem.bypassed"), 0u);
  EXPECT_EQ(r.stats.get("l1.hit.meta"), 0u);
  EXPECT_EQ(r.stats.get("l1.miss.meta"), 0u);
}

TEST(Engine, DeterministicAcrossRuns) {
  const RunResult a = run_experiment(tiny_spec());
  const RunResult b = run_experiment(tiny_spec());
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.stats.get("walker.walks"), b.stats.get("walker.walks"));
  EXPECT_EQ(a.stats.get("dram.access"), b.stats.get("dram.access"));
}

TEST(Engine, MoreCoresMoreAggregateWork) {
  const RunResult one = run_experiment(tiny_spec(Mechanism::kRadix, 1));
  const RunResult four = run_experiment(tiny_spec(Mechanism::kRadix, 4));
  EXPECT_GT(four.total_instructions(), 3 * one.total_instructions());
  // Shared-resource contention: 4 cores cannot be faster per core.
  EXPECT_GE(four.total_cycles * 10, one.total_cycles * 9);
}

TEST(Experiment, GeomeanBasics) {
  EXPECT_DOUBLE_EQ(geomean({2.0, 8.0}), 4.0);
  EXPECT_DOUBLE_EQ(geomean({1.0}), 1.0);
}

TEST(Experiment, DefaultInstructionsOverridableByEnv) {
  // Exercise both branches explicitly so the test is independent of the
  // ambient environment (CI sets NDPAGE_INSTRS to shorten runs).
  const char* saved = std::getenv("NDPAGE_INSTRS");
  const std::string saved_value = saved ? saved : "";
  ::setenv("NDPAGE_INSTRS", "123456", 1);
  EXPECT_EQ(default_instructions(), 123'456u);
  ::setenv("NDPAGE_INSTRS", "0", 1);  // non-positive: fall back to default
  EXPECT_EQ(default_instructions(), 150'000u);
  ::unsetenv("NDPAGE_INSTRS");
  EXPECT_EQ(default_instructions(), 150'000u);
  // Anything but a whole number is an error naming the variable and value,
  // not a silently truncated budget ("1e5" used to run 1 instruction).
  for (const char* bad : {"1e5", "20k", "abc", " 5"}) {
    ::setenv("NDPAGE_INSTRS", bad, 1);
    try {
      default_instructions();
      ADD_FAILURE() << "NDPAGE_INSTRS='" << bad << "' was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("NDPAGE_INSTRS takes a number, got '") + bad + "'");
    }
  }
  ::unsetenv("NDPAGE_INSTRS");
  if (saved) ::setenv("NDPAGE_INSTRS", saved_value.c_str(), 1);
}

}  // namespace
}  // namespace ndp
