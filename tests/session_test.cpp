// Session run-lifecycle contract (sim/session.h).
//
// The whole point of sharing prepared system images is that it must be
// invisible in the results: a pooled Session, a one-shot run_experiment(),
// and a from-scratch System must produce byte-identical output, at any job
// count. These tests pin that — including over the checked-in golden grids
// — plus the cache-keying rules (different seeds/overrides never share an
// image) and LRU eviction.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/run_config.h"
#include "sim/session.h"
#include "sim/sweep_runner.h"

namespace ndp {
namespace {

#ifndef NDP_SOURCE_DIR
#error "session_test needs NDP_SOURCE_DIR (set by CMakeLists.txt)"
#endif

RunConfig tiny_grid() {
  return RunConfig::from_json(R"json({
    "name": "session_tiny",
    "mechanisms": ["radix", "ndpage", "ech(ways=2)"],
    "workloads": ["RND", "PR"],
    "cores": [1, 2],
    "instructions": 2000,
    "warmup": 150,
    "scale": 0.015625,
    "baseline": "radix"
  })json");
}

RunSpec tiny_spec() {
  return RunSpecBuilder()
      .mechanism("radix")
      .workload("gups")
      .cores(1)
      .instructions(2000)
      .warmup(150)
      .scale(0.015625)
      .build();
}

/// The checked-in golden grids, with the same budget pinning the golden
/// suite applies (tests/golden_test.cpp) so cells are small and explicit.
std::vector<RunSpec> golden_specs(const char* config, std::uint64_t instrs,
                                  double scale) {
  const RunConfig cfg =
      RunConfig::load(std::string(NDP_SOURCE_DIR) + "/" + config);
  std::vector<RunSpec> specs = cfg.expand();
  for (RunSpec& s : specs) {
    if (instrs) s.instructions_per_core = instrs;
    if (scale > 0) s.scale = scale;
  }
  return specs;
}

std::string sweep_json(const std::vector<RunSpec>& specs, unsigned jobs) {
  SweepOptions opts;
  opts.jobs = jobs;
  return to_json(run_sweep(specs, opts));
}

/// The unshared reference document: every cell through run_experiment(),
/// which builds its System directly and caches nothing.
std::string per_cell_json(const std::vector<RunSpec>& specs) {
  SweepResults results;
  for (const RunSpec& spec : specs)
    results.cells.push_back({spec, run_experiment(spec)});
  return to_json(results);
}

// --- byte-identity ----------------------------------------------------------

TEST(Session, PooledRunMatchesOneShotRunExperiment) {
  Session session;
  const RunSpec spec = tiny_spec();
  const RunResult pooled_cold = session.run(spec);  // builds the image
  const RunResult pooled_warm = session.run(spec);  // restores it
  const RunResult fresh = run_experiment(spec);     // never touches a cache
  const std::string want = to_json(fresh, &spec);
  EXPECT_EQ(to_json(pooled_cold, &spec), want);
  EXPECT_EQ(to_json(pooled_warm, &spec), want);
  EXPECT_EQ(session.stats().image_builds, 1u);
  EXPECT_EQ(session.stats().image_hits, 1u);
}

TEST(Session, StorelessSessionNeverCapturesPreparedImages) {
  // Without a store nothing could persist a post-prefault snapshot, so a
  // Session never pays for capturing one — however often a key recurs.
  Session session;
  const RunSpec spec = tiny_spec();
  const std::string want = to_json(session.run(spec), &spec);
  EXPECT_EQ(to_json(session.run(spec), &spec), want);
  EXPECT_EQ(to_json(session.run(spec), &spec), want);
  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.image_hits, 2u) << "the Session does share images";
  EXPECT_EQ(stats.prepared_builds, 0u);
  EXPECT_EQ(stats.prepared_hits, 0u);
}

TEST(Session, GoldenGridsByteIdenticalWithAndWithoutSharing) {
  // Fresh-System-per-cell vs pooled-Session over the full golden suite:
  // the serialized documents must match byte for byte.
  struct Grid {
    const char* config;
    std::uint64_t instrs;
    double scale;
  };
  for (const Grid& g :
       {Grid{"experiments/ci_smoke.json", 0, 0.0},
        Grid{"experiments/ablation_ech_ways.json", 4000, 0.015625}}) {
    const std::vector<RunSpec> specs =
        golden_specs(g.config, g.instrs, g.scale);
    EXPECT_EQ(sweep_json(specs, 1), per_cell_json(specs)) << g.config;
  }
}

TEST(Session, ConcurrentRunsByteIdenticalAcrossJobCounts) {
  // One shared Session serving concurrent session.run() calls: output is
  // independent of the job count (and equal to the no-sharing document).
  const std::vector<RunSpec> specs =
      golden_specs("experiments/ci_smoke.json", 2000, 0.015625);
  const std::string want = per_cell_json(specs);
  for (unsigned jobs : {1u, 2u, 8u})
    EXPECT_EQ(sweep_json(specs, jobs), want) << "jobs=" << jobs;
}

TEST(Session, SweepSharesOneImagePerKey) {
  const RunConfig cfg = tiny_grid();  // 12 cells, 2 core counts
  Session session;
  SweepOptions opts;
  opts.session = &session;
  opts.jobs = 4;
  run_sweep(cfg, opts);
  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.runs, 12u);
  EXPECT_EQ(stats.image_builds, 2u);  // one per core count
  EXPECT_EQ(stats.image_hits, 10u);
  // Trace material: one per (workload, cores) pair here.
  EXPECT_EQ(stats.material_builds, 4u);
  EXPECT_EQ(stats.material_hits, 8u);
}

// --- keying & eviction ------------------------------------------------------

TEST(Session, DifferentSeedsAndOverridesNeverShareAnImage) {
  Session session;
  SystemConfig base = SystemConfig::ndp(2, Mechanism::kRadix);

  const auto img = session.image_for(base);
  // Mechanism is not part of the key: a different design point on the same
  // platform restores the same image.
  SystemConfig other_mech = base;
  other_mech.mechanism = Mechanism::kNdpage;
  EXPECT_EQ(session.image_for(other_mech).get(), img.get());

  SystemConfig seeded = base;
  seeded.seed = base.seed + 1;
  EXPECT_NE(session.image_for(seeded).get(), img.get());

  SystemConfig cored = base;
  cored.num_cores = 4;
  EXPECT_NE(session.image_for(cored).get(), img.get());

  SystemConfig bypassed = base;
  bypassed.overrides.bypass = true;
  EXPECT_NE(session.image_for(bypassed).get(), img.get());

  SystemConfig pwc = base;
  pwc.overrides.pwc_levels = std::vector<unsigned>{4, 3};
  EXPECT_NE(session.image_for(pwc).get(), img.get());

  // Engaged-but-empty ("strip the PWCs", JSON null/[]) is its own design
  // point, distinct from both no override and a non-empty level set.
  SystemConfig stripped = base;
  stripped.overrides.pwc_levels = std::vector<unsigned>{};
  EXPECT_NE(session.image_for(stripped).get(), img.get());
  EXPECT_NE(session.image_for(stripped).get(),
            session.image_for(pwc).get());

  SystemConfig dram = base;
  dram.overrides.dram = DramTiming::ddr4_2400();
  EXPECT_NE(session.image_for(dram).get(), img.get());

  EXPECT_EQ(session.stats().image_builds, 7u);
  EXPECT_EQ(session.stats().image_hits, 3u);
}

TEST(Session, EvictsLeastRecentlyUsedImagePastCapacity) {
  Session session;
  // kImageCapacity + 1 distinct image keys, one per seed: `first` plus a
  // full cache's worth of others.
  const SystemConfig first = SystemConfig::ndp(1, Mechanism::kRadix);
  std::vector<SystemConfig> others;
  for (std::size_t i = 1; i <= Session::kImageCapacity; ++i) {
    SystemConfig c = first;
    c.seed = first.seed + i;
    others.push_back(c);
  }

  session.image_for(first);
  for (std::size_t i = 0; i + 1 < others.size(); ++i)
    session.image_for(others[i]);  // the cache is now full
  session.image_for(first);  // refresh first: others[0] is now least recent
  session.image_for(others.back());  // evicts others[0]
  EXPECT_EQ(session.stats().image_evictions, 1u);

  bool built = false;
  session.image_for(first, &built);
  EXPECT_FALSE(built) << "first stayed resident";
  session.image_for(others[0], &built);
  EXPECT_TRUE(built) << "others[0] was evicted and must rebuild";
  EXPECT_EQ(session.stats().image_builds, Session::kImageCapacity + 2);
}

// --- the underlying System/PhysicalMemory machinery -------------------------

TEST(Session, SystemBuiltFromImageMatchesFreshConstruction) {
  SystemConfig cfg = SystemConfig::ndp(2, Mechanism::kNdpage);
  const SystemImage image = System::prepare_image(cfg);
  System fresh(cfg);
  System restored(cfg, image);
  EXPECT_EQ(fresh.phys().free_frames(), restored.phys().free_frames());
  EXPECT_EQ(fresh.phys().stats().get("noise_frames"),
            restored.phys().stats().get("noise_frames"));
  EXPECT_EQ(fresh.phys().buddy().fragmentation(),
            restored.phys().buddy().fragmentation());
  // Frame-use tags match everywhere (spot-check a deterministic stride).
  for (Pfn f = 0; f < fresh.phys().num_frames(); f += 4097)
    EXPECT_EQ(fresh.phys().use_of(f), restored.phys().use_of(f)) << f;

  // Incompatible image: loud error, not silent state corruption.
  SystemConfig other = cfg;
  other.seed = cfg.seed + 1;
  EXPECT_THROW(System(other, image), std::invalid_argument);
}

TEST(Session, PhysicalMemorySnapshotRestoreRoundTrips) {
  PhysMemConfig pmc;
  pmc.bytes = 64ull << 20;  // small pool: fast, still noise-injected
  pmc.noise_fraction = 0.05;
  const PhysicalMemory pristine(pmc);
  const PhysMemImage image = pristine.snapshot();

  PhysicalMemory pm(pmc);
  // Dirty every kind of state: frames, a table block, a huge page.
  std::vector<Pfn> frames;
  for (int i = 0; i < 1000; ++i)
    frames.push_back(pm.alloc_frame(FrameUse::kData));
  const Pfn table = pm.alloc_table_block(4);
  const PhysicalMemory::HugeResult huge = pm.alloc_huge();
  ASSERT_FALSE(huge.fell_back);
  (void)table;
  ASSERT_NE(pm.free_frames(), pristine.free_frames());

  pm.restore(image);
  EXPECT_EQ(pm.free_frames(), pristine.free_frames());
  EXPECT_EQ(pm.stats().get("noise_frames"),
            pristine.stats().get("noise_frames"));
  EXPECT_EQ(pm.stats().get("frame_alloc"), 0u) << "stats reset to post-boot";
  for (Pfn f = 0; f < pm.num_frames(); ++f)
    ASSERT_EQ(pm.use_of(f), pristine.use_of(f)) << f;
  // The restored pool allocates exactly like the pristine one.
  PhysicalMemory fresh(pmc);
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(pm.alloc_frame(FrameUse::kData),
              fresh.alloc_frame(FrameUse::kData));
}

TEST(Session, MaterialEvictionsAreCounted) {
  // kMaterialCapacity + 1 distinct material keys from one tiny spec: the
  // scale is in the material key but not in the image key.
  std::vector<RunSpec> specs;
  for (std::size_t i = 0; i <= Session::kMaterialCapacity; ++i) {
    RunSpec spec = tiny_spec();
    spec.scale = tiny_spec().scale * (1.0 + static_cast<double>(i) / 256);
    specs.push_back(spec);
  }
  Session session;
  SweepOptions sweep;
  sweep.session = &session;
  sweep.jobs = 1;
  run_sweep(specs, sweep);

  const SessionStats stats = session.stats();
  EXPECT_GE(stats.material_builds, Session::kMaterialCapacity + 1);
  EXPECT_GT(stats.material_evictions, 0u);
  // Every insert past the capacity evicts exactly one entry.
  EXPECT_EQ(stats.material_evictions,
            stats.material_builds - Session::kMaterialCapacity);
  EXPECT_EQ(stats.image_builds, 1u) << "scale is not in the image key";
}

}  // namespace
}  // namespace ndp
