// Cross-mechanism conformance suite: every registered built-in mechanism —
// at its defaults and across a matrix of parameter points — runs the same
// seeded trace and must uphold the invariants shared by all translation
// designs. Any future registration or new parameter point is automatically
// screened by adding it to the matrix (and the defaults of every built-in
// are picked up from the registry, so brand-new built-ins are covered
// without editing this file):
//   * determinism — repeated runs serialize byte-identically;
//   * Ideal is an upper bound — no real mechanism beats the free-TLB limit
//     on cycles (small tolerance for data-placement noise);
//   * statistics self-consistency — TLB probe chains, walk/miss accounting
//     and memory-system conservation all add up;
//   * the post-prefault snapshot round-trips — adopted from memory or
//     restored from an image store, a cell serializes as run_experiment()
//     does, and its page-table state saves back to the same words.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/mechanism_registry.h"
#include "core/system.h"
#include "sim/engine.h"
#include "sim/experiment.h"
#include "sim/session.h"
#include "temp_store_dir.h"
#include "workloads/workload_registry.h"

namespace ndp {
namespace {

/// Built-ins at defaults plus the parameter matrix: >= 3 points each for
/// ECH associativity/probing and for per-level PWC sizing, plus the hybrid
/// window sizes.
std::vector<std::string> conformance_points() {
  std::vector<std::string> points =
      MechanismRegistry::instance().builtin_names();
  for (const char* p : {
           // ECH associativity / probe-width points.
           "ech(ways=2)",
           "ech(ways=4,probes=2)",
           "ech(ways=8)",
           // Per-level PWC sizing points.
           "radix(pwc_l4=64,pwc_l3=64,pwc_l2=64,pwc_l1=64)",
           "radix(pwc_l2=8,pwc_l1=8)",
           "ndpage(pwc_l4=8,pwc_l3=8)",
           "ndpage(pwc_l4=128,pwc_l3=128)",
           // Hybrid flat-window sizes (beyond the default).
           "hybrid(flat_bits=14)",
           "hybrid(flat_bits=18)",
       })
    points.push_back(p);
  return points;
}

/// The shared seeded cell every point runs: small but translation-heavy
/// (random access defeats the TLBs), so the invariants bite.
RunSpec cell_for(const std::string& mechanism) {
  return RunSpecBuilder()
      .system("ndp")
      .cores(2)
      .mechanism(mechanism)
      .workload("gups")
      .instructions(6'000)
      .warmup(300)
      .scale(1.0 / 64.0)
      .seed(7)
      .build();
}

class MechanismConformanceTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(MechanismConformanceTest, DeterministicAndSelfConsistent) {
  const RunSpec spec = cell_for(GetParam());
  const RunResult a = run_experiment(spec);
  const RunResult b = run_experiment(spec);

  // Determinism: the full serialized document — headline metrics, per-core
  // breakdowns, every stat counter — matches byte for byte.
  EXPECT_EQ(to_json(a, &spec), to_json(b, &spec)) << spec.mechanism_label();

  const bool ideal = !spec.mechanism_name.empty()
                         ? !MechanismRegistry::instance()
                                .resolve(spec.mechanism_name)
                                .descriptor->models_translation
                         : false;
  const auto lookups = [&](const char* prefix) {
    return a.stats.get(std::string(prefix) + ".hit") +
           a.stats.get(std::string(prefix) + ".miss");
  };

  if (ideal) {
    // The limit case: no TLB probes, no walks, no metadata traffic.
    EXPECT_EQ(a.stats.get("walker.walks"), 0u);
    EXPECT_EQ(lookups("tlb.l1d"), 0u);
    EXPECT_GT(a.stats.get("mmu.ideal_translations"), 0u);
  } else {
    // Probe chain: every reference probes the L1 TLB; every L1 miss probes
    // the L2; every L2 miss either starts a walk or coalesces onto one.
    EXPECT_GT(lookups("tlb.l1d"), 0u);
    EXPECT_EQ(lookups("tlb.l2"), a.stats.get("tlb.l1d.miss"));
    EXPECT_GE(a.stats.get("mmu.walks") + a.stats.get("mmu.coalesced_walks"),
              a.stats.get("tlb.l2.miss"));
    // Walks at least cover the MMU-initiated ones (faults re-walk).
    EXPECT_GE(a.stats.get("walker.walks"), a.stats.get("mmu.walks"));
    EXPECT_GT(a.stats.get("walker.walks"), 0u);
    // Walk traffic accounting: accesses/walk x walks == PTE reads issued.
    const Average* apw = a.stats.average("walker.accesses_per_walk");
    ASSERT_NE(apw, nullptr);
    EXPECT_NEAR(apw->mean() * double(a.stats.get("walker.walks")),
                double(a.stats.get("walker.mem_accesses")),
                1.0 + 0.01 * double(a.stats.get("walker.mem_accesses")));
    // PWC levels probe in parallel on every planned walk, so all configured
    // levels must report identical lookup totals.
    std::uint64_t pwc_lookups = 0;
    for (unsigned level = 1; level <= 4; ++level) {
      const std::string prefix = "pwc.l" + std::to_string(level);
      const std::uint64_t n = lookups(prefix.c_str());
      if (n == 0) continue;
      if (pwc_lookups == 0) pwc_lookups = n;
      EXPECT_EQ(n, pwc_lookups) << prefix;
    }
  }

  // Memory-system conservation holds for every design point.
  const auto served =
      a.stats.get("mem.served.l1") + a.stats.get("mem.served.l2") +
      a.stats.get("mem.served.l3") + a.stats.get("mem.served.dram");
  EXPECT_EQ(served, a.stats.get("mem.access"));
  EXPECT_EQ(a.stats.get("dram.access"),
            a.stats.get("mem.served.dram") + a.stats.get("mem.writeback"));
}

TEST_P(MechanismConformanceTest, PreparedSnapshotRoundTrips) {
  const RunSpec spec = cell_for(GetParam());
  const std::string want = to_json(run_experiment(spec), &spec);

  // The first Session captures the snapshot (and writes the store), then
  // adopts it from memory; the second restores it from the directory.
  test::TempStoreDir dir("conformance");
  SessionOptions opts;
  opts.image_store = dir.path();
  Session first(opts);
  EXPECT_EQ(to_json(first.run(spec), &spec), want);
  EXPECT_EQ(to_json(first.run(spec), &spec), want);
  EXPECT_EQ(first.stats().prepared_builds, 1u);
  EXPECT_EQ(first.stats().prepared_hits, 1u);
  Session second(opts);
  EXPECT_EQ(to_json(second.run(spec), &spec), want);
  // One store hit each for the system image, the trace material and the
  // snapshot.
  EXPECT_EQ(second.stats().store_hits, 3u);
  EXPECT_EQ(second.stats().store_errors, 0u);

  // save -> load -> save gives the same page-table words.
  SystemConfig sc = SystemConfig::ndp(spec.cores, spec.mechanism);
  sc.mechanism_name = spec.mechanism_name;
  sc.seed = spec.seed;
  const auto base =
      std::make_shared<const SystemImage>(System::prepare_image(sc));
  System prepared(sc, *base);
  WorkloadParams wp;
  wp.num_cores = spec.cores;
  wp.scale = spec.scale;
  wp.seed = spec.seed;
  const auto trace =
      resolve_workload(spec.workload, spec.workload_name).make(wp);
  Engine(prepared, *trace, EngineConfig{}).prepare();
  const auto saved = prepared.snapshot_prepared(base);
  ASSERT_NE(saved, nullptr);
  System adopted(sc, *base);
  ASSERT_TRUE(adopted.adopt_prepared(*saved));
  EXPECT_EQ(adopted.snapshot_prepared(base)->pt_state, saved->pt_state);
}

std::string point_name(const ::testing::TestParamInfo<std::string>& info) {
  std::string out;
  for (char c : info.param)
    out += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllRegisteredPoints, MechanismConformanceTest,
                         ::testing::ValuesIn(conformance_points()),
                         point_name);

// Ideal is the limit case: it must not lose to any real design point on
// total cycles. A small tolerance absorbs data-placement noise (different
// table layouts shift physical frames, hence cache/DRAM behaviour).
TEST(MechanismConformance, IdealIsAnUpperBoundOnPerformance) {
  const RunResult ideal = run_experiment(cell_for("ideal"));
  ASSERT_GT(ideal.total_cycles, 0u);
  for (const std::string& point : conformance_points()) {
    if (point == "Ideal") continue;
    const RunResult r = run_experiment(cell_for(point));
    EXPECT_LE(static_cast<double>(ideal.total_cycles),
              static_cast<double>(r.total_cycles) * 1.02)
        << "Ideal should not lose to " << point;
  }
}

}  // namespace
}  // namespace ndp
