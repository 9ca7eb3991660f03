// Unit tests for the set-associative cache model.
#include <gtest/gtest.h>

#include "cache/cache.h"

namespace ndp {
namespace {

CacheConfig small_cfg() {
  return CacheConfig{.name = "t", .size_bytes = 4096, .ways = 4,
                     .latency = 4};
}

TEST(Cache, GeometryFromConfig) {
  Cache c(small_cfg());
  // 4096 B / 64 B = 64 lines / 4 ways = 16 sets.
  EXPECT_EQ(c.num_sets(), 16u);
}

TEST(Cache, MissThenHit) {
  Cache c(small_cfg());
  EXPECT_FALSE(c.access(1, AccessType::kRead, AccessClass::kData).hit);
  EXPECT_TRUE(c.access(1, AccessType::kRead, AccessClass::kData).hit);
  EXPECT_TRUE(c.probe(1));
  EXPECT_FALSE(c.probe(2));
}

TEST(Cache, LruEvictsOldest) {
  Cache c(small_cfg());
  // Fill one set (lines with identical set index: stride = num_sets).
  const std::uint64_t stride = c.num_sets();
  for (std::uint64_t w = 0; w < 4; ++w)
    c.access(w * stride, AccessType::kRead, AccessClass::kData);
  // Touch line 0 to make it most recent; insert a 5th line.
  c.access(0, AccessType::kRead, AccessClass::kData);
  const CacheOutcome out = c.access(4 * stride, AccessType::kRead, AccessClass::kData);
  ASSERT_TRUE(out.evicted);
  EXPECT_EQ(out.victim_line, stride);  // oldest untouched line
  EXPECT_TRUE(c.probe(0));
}

TEST(Cache, WriteMarksDirtyAndEvictionReportsIt) {
  Cache c(small_cfg());
  const std::uint64_t stride = c.num_sets();
  c.access(0, AccessType::kWrite, AccessClass::kData);
  for (std::uint64_t w = 1; w <= 4; ++w)
    c.access(w * stride, AccessType::kRead, AccessClass::kData);
  // Line 0 must have been evicted dirty at some point.
  EXPECT_FALSE(c.probe(0));
}

TEST(Cache, InvalidateReturnsDirtyState) {
  Cache c(small_cfg());
  c.access(7, AccessType::kWrite, AccessClass::kData);
  EXPECT_TRUE(c.invalidate(7));
  c.access(8, AccessType::kRead, AccessClass::kData);
  EXPECT_FALSE(c.invalidate(8));
  EXPECT_FALSE(c.invalidate(9));  // absent
}

TEST(Cache, PerClassCounters) {
  Cache c(small_cfg());
  c.access(1, AccessType::kRead, AccessClass::kData);     // data miss
  c.access(1, AccessType::kRead, AccessClass::kData);     // data hit
  c.access(2, AccessType::kRead, AccessClass::kMetadata); // meta miss
  EXPECT_EQ(c.counters().misses(AccessClass::kData), 1u);
  EXPECT_EQ(c.counters().hits(AccessClass::kData), 1u);
  EXPECT_EQ(c.counters().misses(AccessClass::kMetadata), 1u);
  EXPECT_DOUBLE_EQ(c.miss_rate(AccessClass::kData), 0.5);
  EXPECT_DOUBLE_EQ(c.miss_rate(AccessClass::kMetadata), 1.0);
}

TEST(Cache, PollutionVictimCountsMetadataOverData) {
  Cache c(small_cfg());
  const std::uint64_t stride = c.num_sets();
  for (std::uint64_t w = 0; w < 4; ++w)
    c.access(w * stride, AccessType::kRead, AccessClass::kData);
  EXPECT_EQ(c.counters().pollution_victims, 0u);
  c.access(4 * stride, AccessType::kRead, AccessClass::kMetadata);
  EXPECT_EQ(c.counters().pollution_victims, 1u);
  // Metadata evicting metadata is not pollution.
  c.access(5 * stride, AccessType::kRead, AccessClass::kMetadata);
  c.access(4 * stride, AccessType::kRead, AccessClass::kMetadata);
}

TEST(Cache, MetadataOccupancyReflectsContents) {
  Cache c(small_cfg());
  EXPECT_DOUBLE_EQ(c.metadata_occupancy(), 0.0);
  c.access(1, AccessType::kRead, AccessClass::kMetadata);
  c.access(2, AccessType::kRead, AccessClass::kData);
  EXPECT_DOUBLE_EQ(c.metadata_occupancy(), 0.5);
}

TEST(Cache, SnapshotAndReset) {
  Cache c(small_cfg());
  c.access(1, AccessType::kRead, AccessClass::kData);
  const StatSet s = c.snapshot();
  EXPECT_EQ(s.get("miss.data"), 1u);
  c.reset_counters();
  EXPECT_EQ(c.counters().misses(AccessClass::kData), 0u);
  EXPECT_TRUE(c.probe(1)) << "reset clears statistics, not contents";
}

TEST(LruReplacement, WorkingSetWithinCapacityAlwaysHits) {
  Cache c(small_cfg());
  // Touch 32 lines (half capacity) twice: second round must be all hits
  // when the set pressure is <= associativity.
  for (std::uint64_t l = 0; l < 32; ++l)
    c.access(l, AccessType::kRead, AccessClass::kData);
  for (std::uint64_t l = 0; l < 32; ++l)
    EXPECT_TRUE(c.access(l, AccessType::kRead, AccessClass::kData).hit);
}

TEST(LruReplacement, OverCapacityStreamsMiss) {
  Cache c(small_cfg());
  int misses = 0;
  for (std::uint64_t l = 0; l < 1000; ++l)
    misses += !c.access(l * 16 + 3, AccessType::kRead, AccessClass::kData).hit;
  EXPECT_GT(misses, 900);
}

}  // namespace
}  // namespace ndp
