// Persistent on-disk image store contract (sim/image_store.h).
//
// Two promises under test. First, fidelity: results are byte-identical with
// the store disabled, cold, and warm — over the checked-in golden grids,
// through the Session, at any job count. Second, robustness: a truncated,
// corrupted, version-mismatched, or foreign blob is rejected and rebuilt —
// the store can never turn a bad file into a crash or a wrong result. Plus
// the addressing rules: digests are stable, keyed by the full build input,
// and rotate with the format version.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/system.h"
#include "sim/image_store.h"
#include "sim/run_config.h"
#include "sim/session.h"
#include "sim/sweep_runner.h"
#include "temp_store_dir.h"

namespace ndp {
namespace {

namespace fs = std::filesystem;

#ifndef NDP_SOURCE_DIR
#error "image_store_test needs NDP_SOURCE_DIR (set by CMakeLists.txt)"
#endif

using test::TempStoreDir;

/// The container tests' sample payload: the post-boot image of a small
/// pool (64 MB: fast to build, still noise-injected), stored as `sys`.
SystemConfig small_pool_config() {
  SystemConfig cfg = SystemConfig::ndp(1, Mechanism::kRadix);
  cfg.phys_bytes = 64ull << 20;
  return cfg;
}

const SystemImage& small_image() {
  static const SystemImage image = System::prepare_image(small_pool_config());
  return image;
}

ImageStore::Load load_small(const ImageStore& store, const std::string& key,
                            std::shared_ptr<const SystemImage>* out) {
  return store.load_system_image(key, small_pool_config(), out);
}

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The checked-in golden grids with the golden suite's budget pinning
/// (mirrors tests/session_test.cpp).
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

std::string sweep_json(const std::vector<RunSpec>& specs,
                       const std::string& store_dir, unsigned jobs,
                       SessionStats* stats_out = nullptr) {
  SweepOptions opts;
  opts.jobs = jobs;
  opts.image_store = store_dir;
  SweepResults results = run_sweep(specs, opts);
  if (stats_out) *stats_out = results.session;
  return to_json(results);
}

// --- addressing -------------------------------------------------------------

TEST(ImageStore, DigestIsStableAndKeySensitive) {
  const std::string a = ImageStore::digest("ndp/4/radix");
  EXPECT_EQ(a.size(), 32u);
  EXPECT_EQ(a, ImageStore::digest("ndp/4/radix"));  // pure function of key
  EXPECT_NE(a, ImageStore::digest("ndp/4/radix "));
  EXPECT_NE(a, ImageStore::digest("ndp/8/radix"));

  // The digest is a function of the key alone, not the store instance.
  ImageStore one("/tmp/ndp_store_digest_a");
  ImageStore two("/tmp/ndp_store_digest_b");
  EXPECT_EQ(one.path_for("sys", "k").substr(one.dir().size()),
            two.path_for("sys", "k").substr(two.dir().size()));
  EXPECT_EQ(one.path_for("sys", "k"),
            one.dir() + "/sys-" + ImageStore::digest("k") + ".img");
  // Kinds never collide on disk even for equal keys.
  EXPECT_NE(one.path_for("sys", "k"), one.path_for("prep", "k"));
}

TEST(ImageStore, ImageKeyStableAcrossConfigFieldReorderings) {
  // The same design point spelled with config fields in a different order
  // must produce the same image key — and therefore the same digest and
  // on-disk blob. Keys serialize config state in a fixed order, not in
  // JSON-document order.
  const RunConfig a = RunConfig::from_json(R"json({
    "name": "order_a",
    "mechanisms": ["radix"],
    "workloads": ["RND"],
    "cores": [2],
    "instructions": 1000,
    "scale": 0.015625,
    "seed": 7
  })json");
  const RunConfig b = RunConfig::from_json(R"json({
    "seed": 7,
    "scale": 0.015625,
    "instructions": 1000,
    "cores": [2],
    "workloads": ["RND"],
    "mechanisms": ["radix"],
    "name": "order_b"
  })json");
  const std::vector<RunSpec> sa = a.expand();
  const std::vector<RunSpec> sb = b.expand();
  ASSERT_EQ(sa.size(), 1u);
  ASSERT_EQ(sb.size(), 1u);
  auto config_of = [](const RunSpec& spec) {
    SystemConfig sc = SystemConfig::ndp(spec.cores, spec.mechanism);
    sc.mechanism_name = spec.mechanism_name;
    sc.seed = spec.seed;
    sc.overrides = spec.overrides;
    return sc;
  };
  const std::string ka = Session::image_key(config_of(sa[0]));
  const std::string kb = Session::image_key(config_of(sb[0]));
  EXPECT_EQ(ka, kb);
  EXPECT_EQ(ImageStore::digest(ka), ImageStore::digest(kb));
}

// --- round trips ------------------------------------------------------------

TEST(ImageStore, SystemImageRoundTripIsByteStable) {
  TempStoreDir dir("sys");
  ImageStore store(dir.path());
  const SystemConfig cfg = SystemConfig::ndp(1, Mechanism::kRadix);
  const std::string key = Session::image_key(cfg);
  const SystemImage image = System::prepare_image(cfg);
  ASSERT_TRUE(store.store_system_image(key, image));

  std::shared_ptr<const SystemImage> back;
  ASSERT_EQ(store.load_system_image(key, cfg, &back),
            ImageStore::Load::kHit);
  ASSERT_NE(back, nullptr);

  // Encoding is deterministic, so a lossless round trip means re-storing
  // the loaded image reproduces the original blob byte for byte.
  TempStoreDir dir2("sys2");
  ImageStore store2(dir2.path());
  ASSERT_TRUE(store2.store_system_image(key, *back));
  EXPECT_EQ(read_bytes(store.path_for("sys", key)),
            read_bytes(store2.path_for("sys", key)));

  // A key that was never stored is a miss, not an error.
  std::shared_ptr<const SystemImage> absent;
  EXPECT_EQ(store.load_system_image("absent", cfg, &absent),
            ImageStore::Load::kMiss);
  EXPECT_EQ(absent, nullptr);
}

// --- rejection of bad blobs -------------------------------------------------

TEST(ImageStore, TruncatedBlobIsRejected) {
  TempStoreDir dir("trunc");
  ImageStore store(dir.path());
  ASSERT_TRUE(store.store_system_image("k", small_image()));
  const std::string path = store.path_for("sys", "k");
  const auto full = read_bytes(path);
  ASSERT_GT(full.size(), 16u);

  std::shared_ptr<const SystemImage> back;
  // Cut mid-payload (word-aligned): framing/length validation fires.
  write_bytes(path, std::vector<char>(full.begin(), full.begin() + 16));
  EXPECT_EQ(load_small(store, "k", &back), ImageStore::Load::kReject);
  // Cut mid-word: rejected before any decoding.
  write_bytes(path, std::vector<char>(full.begin(), full.end() - 3));
  EXPECT_EQ(load_small(store, "k", &back), ImageStore::Load::kReject);
  // Restoring the original bytes restores the hit.
  write_bytes(path, full);
  EXPECT_EQ(load_small(store, "k", &back), ImageStore::Load::kHit);
}

TEST(ImageStore, CorruptPayloadFailsChecksum) {
  TempStoreDir dir("corrupt");
  ImageStore store(dir.path());
  ASSERT_TRUE(store.store_system_image("k", small_image()));
  const std::string path = store.path_for("sys", "k");
  auto bytes = read_bytes(path);
  bytes[bytes.size() - 5] ^= 0x40;  // flip one payload bit
  write_bytes(path, bytes);

  std::shared_ptr<const SystemImage> back;
  EXPECT_EQ(load_small(store, "k", &back), ImageStore::Load::kReject);
}

TEST(ImageStore, VersionMismatchIsRejected) {
  TempStoreDir dir("ver");
  ImageStore store(dir.path());
  ASSERT_TRUE(store.store_system_image("k", small_image()));
  const std::string path = store.path_for("sys", "k");
  auto bytes = read_bytes(path);
  // Word 1 is (version << 8) | kind_id; forge a future format version. The
  // payload checksum does not cover the header, so only the version check
  // can reject this.
  std::uint64_t word1 = 0;
  std::memcpy(&word1, bytes.data() + 8, 8);
  word1 += std::uint64_t{1} << 8;
  std::memcpy(bytes.data() + 8, &word1, 8);
  write_bytes(path, bytes);

  std::shared_ptr<const SystemImage> back;
  EXPECT_EQ(load_small(store, "k", &back), ImageStore::Load::kReject);
}

TEST(ImageStore, ForeignKeyAtSamePathIsAMissNotState) {
  // A digest collision (simulated by copying a blob to another key's path)
  // must degrade to a miss — the stored key string is verified on read, so
  // the wrong design point's state is never adopted.
  TempStoreDir dir("foreign");
  ImageStore store(dir.path());
  ASSERT_TRUE(store.store_system_image("key-a", small_image()));
  write_bytes(store.path_for("sys", "key-b"),
              read_bytes(store.path_for("sys", "key-a")));

  std::shared_ptr<const SystemImage> back;
  EXPECT_EQ(load_small(store, "key-b", &back), ImageStore::Load::kMiss);
  EXPECT_EQ(back, nullptr);
}

TEST(ImageStore, PublishesAtomicallyLeavingNoTempFiles) {
  TempStoreDir dir("atomic");
  ImageStore store(dir.path());
  ASSERT_TRUE(store.store_system_image("k1", small_image()));
  ASSERT_TRUE(store.store_system_image("k2", small_image()));
  for (const auto& entry : fs::directory_iterator(dir.path()))
    EXPECT_EQ(entry.path().extension(), ".img") << entry.path();
}

// --- concurrency ------------------------------------------------------------

TEST(ImageStore, ConcurrentWritersAndReadersOfOneKeyAgree) {
  // Several independent store handles (the multi-process shape: no shared
  // in-memory state) hammer one key. Deterministic encoding means every
  // writer produces identical bytes, so readers only ever see a miss
  // (nothing published yet) or the one true blob — never a reject.
  TempStoreDir dir("conc");
  const SystemImage& image = small_image();
  std::vector<std::thread> threads;
  std::atomic<int> rejects{0}, bad_payloads{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&dir, &image, &rejects, &bad_payloads] {
      ImageStore store(dir.path());  // own handle, like a separate process
      for (int i = 0; i < 25; ++i) {
        store.store_system_image("shared", image);
        std::shared_ptr<const SystemImage> back;
        const auto got = load_small(store, "shared", &back);
        if (got == ImageStore::Load::kReject) ++rejects;
        if (got == ImageStore::Load::kHit &&
            (back->phys.use != image.phys.use ||
             back->phys.noise_frames != image.phys.noise_frames))
          ++bad_payloads;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(rejects.load(), 0);
  EXPECT_EQ(bad_payloads.load(), 0);

  ImageStore store(dir.path());
  std::shared_ptr<const SystemImage> back;
  EXPECT_EQ(load_small(store, "shared", &back), ImageStore::Load::kHit);
}

// --- end-to-end fidelity over the golden grids ------------------------------

TEST(ImageStore, GoldenGridsByteIdenticalDisabledColdAndWarm) {
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
    TempStoreDir dir("golden");
    const std::string disabled = sweep_json(specs, "", 1);

    SessionStats cold, warm;
    EXPECT_EQ(sweep_json(specs, dir.path(), 1, &cold), disabled) << g.config;
    EXPECT_EQ(sweep_json(specs, dir.path(), 1, &warm), disabled) << g.config;
    // The cold pass populated the store; the warm pass restores from it.
    EXPECT_GT(cold.store_writes, 0u) << g.config;
    EXPECT_EQ(cold.store_hits, 0u) << g.config;
    EXPECT_GT(warm.store_hits, 0u) << g.config;
    EXPECT_EQ(warm.store_writes, 0u) << g.config;
    EXPECT_EQ(warm.store_errors, 0u) << g.config;
    // The counting contract: in-memory build/hit totals are independent of
    // where the bytes came from.
    EXPECT_EQ(cold.image_builds, warm.image_builds) << g.config;
    EXPECT_EQ(cold.image_hits, warm.image_hits) << g.config;
    EXPECT_EQ(cold.prepared_builds, warm.prepared_builds) << g.config;

    // Byte-identity also holds under a parallel warm run.
    EXPECT_EQ(sweep_json(specs, dir.path(), 4), disabled) << g.config;
  }
}

TEST(ImageStore, CorruptedStoreRebuildsCleanlyAndStaysByteIdentical) {
  const std::vector<RunSpec> specs =
      golden_specs("experiments/ci_smoke.json", 2000, 0.015625);
  TempStoreDir dir("rebuild");
  const std::string want = sweep_json(specs, "", 1);
  ASSERT_EQ(sweep_json(specs, dir.path(), 1), want);  // populate

  // Vandalize every blob: flip a payload bit in each.
  std::size_t corrupted = 0;
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    auto bytes = read_bytes(entry.path().string());
    ASSERT_GT(bytes.size(), 8u);
    bytes.back() ^= 0x01;
    write_bytes(entry.path().string(), bytes);
    ++corrupted;
  }
  ASSERT_GT(corrupted, 0u);

  SessionStats stats;
  EXPECT_EQ(sweep_json(specs, dir.path(), 1, &stats), want);
  EXPECT_GT(stats.store_errors, 0u);  // rejects counted, never fatal
  EXPECT_EQ(stats.store_hits, 0u);

  // The rebuild re-published good blobs: the next run is warm again.
  SessionStats healed;
  EXPECT_EQ(sweep_json(specs, dir.path(), 1, &healed), want);
  EXPECT_GT(healed.store_hits, 0u);
  EXPECT_EQ(healed.store_errors, 0u);
}

TEST(ImageStore, SessionRestoresPreparedImagesAcrossProcessBoundary) {
  // Two Sessions over one store directory stand in for two processes: the
  // second restores post-prefault snapshots (a store hit per blob kind)
  // and still reports the same build totals as the first (the counting
  // contract), with byte-identical results.
  const RunSpec spec = golden_specs("experiments/ci_smoke.json", 2000,
                                    0.015625)[0];
  TempStoreDir dir("xproc");

  SessionOptions opts;
  opts.image_store = dir.path();
  Session first(opts);
  const RunResult cold = first.run(spec);
  const SessionStats cold_stats = first.stats();
  EXPECT_EQ(cold_stats.image_builds, 1u);
  EXPECT_EQ(cold_stats.prepared_builds, 1u);
  EXPECT_EQ(cold_stats.store_hits, 0u);
  EXPECT_GT(cold_stats.store_writes, 0u);

  Session second(opts);
  const RunResult warm = second.run(spec);
  const SessionStats warm_stats = second.stats();
  EXPECT_EQ(to_json(warm, &spec), to_json(cold, &spec));
  EXPECT_EQ(warm_stats.image_builds, 1u);     // load counts as a build
  EXPECT_EQ(warm_stats.prepared_builds, 1u);  // restored, not re-prefaulted
  EXPECT_GT(warm_stats.store_hits, 0u);
  EXPECT_EQ(warm_stats.store_errors, 0u);
}

}  // namespace
}  // namespace ndp
