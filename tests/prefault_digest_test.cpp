// Pins where prefault puts every frame.
//
// Frame addresses pick DRAM channels, banks and cache sets, so a setup-path
// change that maps the same pages onto different frames moves simulated
// results even when every translation stays correct. Each cell here
// prepares a System (install + prefault + warm pages) and digests its
// post-prefault snapshot: the pool image (buddy bitmaps, frame tags,
// compaction-window counts, RNG), the page-table and address-space state,
// and the OS statistics. The digests were recorded with page-at-a-time
// prefault; any faster path must reproduce them bit for bit.
//
// The grid covers every built-in mechanism on GUPS, PR, GEN (warm pages
// fault after prefault) and XS (ECH resizes mid-prefault), at 1 and 2
// cores and scale 0.02. A booted pool's lowest free blocks are the ~10^5
// single frames between boot-noise pages, and a scale-0.02 prefault takes
// only those, so the tables that map in runs also prefault RND and PR at
// scale 0.25: hundreds of thousands of pages, taken from larger blocks.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/blob.h"
#include "core/system.h"
#include "sim/engine.h"
#include "workloads/workload_registry.h"

namespace ndp {
namespace {

std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 0xCBF29CE484222325ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
  return h;
}

std::uint64_t digest_words(const std::vector<std::uint64_t>& words) {
  return fnv1a(words.data(), words.size() * sizeof(std::uint64_t));
}

std::uint64_t digest_pool(const PhysMemImage& img) {
  BlobWriter buddy;
  img.buddy.save_state(buddy);
  std::uint64_t h = digest_words(buddy.take());
  h = fnv1a(img.use.data(), img.use.size(), h);
  h = fnv1a(img.win_movable.data(),
            img.win_movable.size() * sizeof(std::uint16_t), h);
  h = fnv1a(img.win_unmovable.data(),
            img.win_unmovable.size() * sizeof(std::uint16_t), h);
  std::uint64_t rs[4];
  img.rng.save_state(rs);
  h = fnv1a(rs, sizeof rs, h);
  return fnv1a(&img.noise_frames, sizeof img.noise_frames, h);
}

/// Digest of one cell's prepared snapshot, as "pool/pt/space/stats" hex.
std::string prepared_digest(const std::string& mechanism,
                            const std::string& workload, unsigned cores,
                            double scale,
                            const std::shared_ptr<const SystemImage>& base) {
  const SystemConfig sc = SystemConfig::ndp(cores, mechanism);
  System sys(sc, *base);
  WorkloadParams wp;
  wp.num_cores = cores;
  wp.scale = scale;
  const auto trace = WorkloadRegistry::instance().at(workload).make(wp);
  Engine(sys, *trace, EngineConfig{}).prepare();
  const auto prep = sys.snapshot_prepared(base);
  if (!prep) return "no snapshot";
  char buf[96];
  std::snprintf(buf, sizeof buf, "%016" PRIx64 "/%016" PRIx64 "/%016" PRIx64
                "/%016" PRIx64,
                digest_pool(prep->ready), digest_words(prep->pt_state),
                digest_words(prep->space_state),
                digest_words(prep->stats_state));
  return buf;
}

struct Cell {
  const char* workload;
  unsigned cores;
  const char* digest;
  double scale = 0.02;
};

const std::map<std::string, std::vector<Cell>>& pinned() {
  static const std::map<std::string, std::vector<Cell>> cells = {
      {"radix",
       {{"gups", 1,
         "098ee5f129de8eb5/4af14c2f5881d0d2/3f4916f4652a2f27/338156dec60f53da"},
        {"gups", 2,
         "098ee5f129de8eb5/4af14c2f5881d0d2/3f4916f4652a2f27/338156dec60f53da"},
        {"pr", 1,
         "e6b650b6a50d8588/2a553cd65cfaacff/7316e58fa72ca652/ef540dc0e315bb14"},
        {"pr", 2,
         "e6b650b6a50d8588/2a553cd65cfaacff/7316e58fa72ca652/ef540dc0e315bb14"},
        {"gen", 1,
         "c00c52ce37c771f6/50074bc3e7305af3/dadaf20a6eacc288/755d5756462ad2de"},
        {"gen", 2,
         "c00c52ce37c771f6/50074bc3e7305af3/dadaf20a6eacc288/755d5756462ad2de"},
        {"xs", 1,
         "2e2f675d107a45c1/6fc1349969e39a6b/33e370ec4807c5e3/0549e6bde248c053"},
        {"xs", 2,
         "e717de3b93c52468/6b27dadd8a5c47cb/9f7126dfe0d0689c/80d0243fe76ef2d0"},
        {"rnd", 1,
         "26eae38a73d5d30e/cb843e5fddf6ad7c/96ecd7ff4b04022d/567bc9b59fac9fea",
         0.25},
        {"pr", 1,
         "b0acf35b9be5bf42/a6f75fdf6f7aecf1/db94375cce1cca9b/6f2908f2c95c7b68",
         0.25}}},
      {"ech",
       {{"gups", 1,
         "63a3ad69f3dc7a18/75370e9cdfcca07a/e152d9a7c69e888d/0e4823b275156e18"},
        {"gups", 2,
         "63a3ad69f3dc7a18/75370e9cdfcca07a/e152d9a7c69e888d/0e4823b275156e18"},
        {"pr", 1,
         "56d921ba9c405d0a/38a62d6f5770894f/2aaa4899c4f4edf0/f9de538180a698ad"},
        {"pr", 2,
         "56d921ba9c405d0a/38a62d6f5770894f/2aaa4899c4f4edf0/f9de538180a698ad"},
        {"gen", 1,
         "aeb71d0d15e836f3/b1eedb160cb09f3a/0aa3bbe5cb6a0b7e/b0b12dca27d43979"},
        {"gen", 2,
         "aeb71d0d15e836f3/b1eedb160cb09f3a/0aa3bbe5cb6a0b7e/b0b12dca27d43979"},
        {"xs", 1,
         "ff480a8975f402f6/8f8785d7267e145e/d7aa8d96e2034079/173754ddb9fdc78e"},
        {"xs", 2,
         "1636377d1460e219/882f858e80892c8c/56fb0a1f8be041d5/2817270a02ca9f3f"}}},
      {"hugepage",
       {{"gups", 1,
         "bcac8dff5b2ece3e/87aafc89898b8c0c/823539e2e00e80ff/f6777d4c7ad2474b"},
        {"gups", 2,
         "bcac8dff5b2ece3e/87aafc89898b8c0c/823539e2e00e80ff/f6777d4c7ad2474b"},
        {"pr", 1,
         "b947916ec08c329e/b38edc781dea1839/d9d2c22061e805af/cc53aa54e2281ae8"},
        {"pr", 2,
         "b947916ec08c329e/b38edc781dea1839/d9d2c22061e805af/cc53aa54e2281ae8"},
        {"gen", 1,
         "4a89ce8a40be76cf/b9c0c9b67d22c3b8/167591a6df4e14a9/cd55d048a1288596"},
        {"gen", 2,
         "4a89ce8a40be76cf/b9c0c9b67d22c3b8/167591a6df4e14a9/cd55d048a1288596"},
        {"xs", 1,
         "ac52aa88df3744cd/1449d99158f70fb6/bda27036e0bd12fb/bd9fe463203ef9bb"},
        {"xs", 2,
         "284a9c82a58692d0/6d6fc37d78b65138/9e9becc4050aa69f/ce7da901d607dbbf"}}},
      {"ndpage",
       {{"gups", 1,
         "95110f7696ac2a4a/a31ac68eb1fdf9c6/b1faa4cb216edeba/72d6dc8ae10da55d"},
        {"gups", 2,
         "95110f7696ac2a4a/a31ac68eb1fdf9c6/b1faa4cb216edeba/72d6dc8ae10da55d"},
        {"pr", 1,
         "ca4797283743f96c/0befd464ce8aae63/58915330440331af/c81be3fd753a336c"},
        {"pr", 2,
         "ca4797283743f96c/0befd464ce8aae63/58915330440331af/c81be3fd753a336c"},
        {"gen", 1,
         "52a9a4ba30abafc0/70b098ccbca4ab5c/96d6f1b68c61a920/c6a0898b6ebb7225"},
        {"gen", 2,
         "52a9a4ba30abafc0/70b098ccbca4ab5c/96d6f1b68c61a920/c6a0898b6ebb7225"},
        {"xs", 1,
         "aaea793141dcc0eb/7614edcc352ea155/7641873806ace171/4cd812a4c4a507c8"},
        {"xs", 2,
         "f1297eb5f0ab45d1/758ab96ec700a439/0333bcfddcfba96b/6b18e97033d8ef0a"},
        {"rnd", 1,
         "72917cb93169b146/9f2507bd7920af90/c4dd19ef5ae3b8c0/38fe92dc6e06e360",
         0.25},
        {"pr", 1,
         "09af12fd475fbac4/a03ace3c2e552569/9a9a96b7fdf1fac9/67bd957105c18c70",
         0.25}}},
      {"ideal",
       {{"gups", 1,
         "098ee5f129de8eb5/4af14c2f5881d0d2/3f4916f4652a2f27/338156dec60f53da"},
        {"gups", 2,
         "098ee5f129de8eb5/4af14c2f5881d0d2/3f4916f4652a2f27/338156dec60f53da"},
        {"pr", 1,
         "e6b650b6a50d8588/2a553cd65cfaacff/7316e58fa72ca652/ef540dc0e315bb14"},
        {"pr", 2,
         "e6b650b6a50d8588/2a553cd65cfaacff/7316e58fa72ca652/ef540dc0e315bb14"},
        {"gen", 1,
         "c00c52ce37c771f6/50074bc3e7305af3/dadaf20a6eacc288/755d5756462ad2de"},
        {"gen", 2,
         "c00c52ce37c771f6/50074bc3e7305af3/dadaf20a6eacc288/755d5756462ad2de"},
        {"xs", 1,
         "2e2f675d107a45c1/6fc1349969e39a6b/33e370ec4807c5e3/0549e6bde248c053"},
        {"xs", 2,
         "e717de3b93c52468/6b27dadd8a5c47cb/9f7126dfe0d0689c/80d0243fe76ef2d0"},
        {"rnd", 1,
         "26eae38a73d5d30e/cb843e5fddf6ad7c/96ecd7ff4b04022d/567bc9b59fac9fea",
         0.25},
        {"pr", 1,
         "b0acf35b9be5bf42/a6f75fdf6f7aecf1/db94375cce1cca9b/6f2908f2c95c7b68",
         0.25}}},
      {"dipta",
       {{"gups", 1,
         "fb7b2e3b54069dcc/aff2e02cc94ea345/a9039116d0debfa6/b5aa1ca094b19fb6"},
        {"gups", 2,
         "fb7b2e3b54069dcc/aff2e02cc94ea345/a9039116d0debfa6/b5aa1ca094b19fb6"},
        {"pr", 1,
         "456aa21b9762b530/b2aaa92b30664009/2cdbf0447d052712/10428828162491c3"},
        {"pr", 2,
         "456aa21b9762b530/b2aaa92b30664009/2cdbf0447d052712/10428828162491c3"},
        {"gen", 1,
         "dfff8945ca14bae8/30ebc5b09ca1add3/5f7a9e6fe212126f/7ef959a6c2daac48"},
        {"gen", 2,
         "dfff8945ca14bae8/30ebc5b09ca1add3/5f7a9e6fe212126f/7ef959a6c2daac48"},
        {"xs", 1,
         "7d926c421d1be761/8945dd67188ee764/8fb8f5f6775495e6/79ce7ff39dcbfb50"},
        {"xs", 2,
         "f313eeccba4ae8c6/eee33227270daa04/e5654f7b7b8f4961/d5f63476bc66a091"}}},
      {"hybrid",
       {{"gups", 1,
         "6dda22ffb0c71f06/93826dbb779f7a7a/bb4784a764dadd8d/7dc316e6c87c179c"},
        {"gups", 2,
         "6dda22ffb0c71f06/93826dbb779f7a7a/bb4784a764dadd8d/7dc316e6c87c179c"},
        {"pr", 1,
         "74946391e42581c2/afb2cfaea675e7e8/b331c9149f4d0309/b6a2aabb98be606f"},
        {"pr", 2,
         "74946391e42581c2/afb2cfaea675e7e8/b331c9149f4d0309/b6a2aabb98be606f"},
        {"gen", 1,
         "dd8182f91cab1903/7b0f20a2ea73e589/8536084dbb88a0a1/dbd0e10a2df67e85"},
        {"gen", 2,
         "dd8182f91cab1903/7b0f20a2ea73e589/8536084dbb88a0a1/dbd0e10a2df67e85"},
        {"xs", 1,
         "3f4a340bbf3487e5/20e41ec6f7861d5b/1b17a601cd88293c/4fbebc061db68346"},
        {"xs", 2,
         "772b9471c4f11893/cde3ef5dc3ac74cd/d63d0f2d21e82699/49772440253927b1"}}},
  };
  return cells;
}

class PrefaultDigestTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PrefaultDigestTest, PreparedSnapshotMatchesPinnedPlacement) {
  const auto it = pinned().find(GetParam());
  ASSERT_NE(it, pinned().end()) << "no digests pinned for " << GetParam();
  std::map<unsigned, std::shared_ptr<const SystemImage>> bases;
  for (const Cell& cell : it->second) {
    auto& base = bases[cell.cores];
    if (!base)
      base = std::make_shared<const SystemImage>(
          System::prepare_image(SystemConfig::ndp(cell.cores, GetParam())));
    EXPECT_EQ(prepared_digest(GetParam(), cell.workload, cell.cores,
                              cell.scale, base),
              cell.digest)
        << GetParam() << " " << cell.workload << " x" << cell.cores << " @"
        << cell.scale;
  }
}

INSTANTIATE_TEST_SUITE_P(BuiltIns, PrefaultDigestTest,
                         ::testing::Values("radix", "ech", "hugepage",
                                           "ndpage", "ideal", "dipta",
                                           "hybrid"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace ndp
