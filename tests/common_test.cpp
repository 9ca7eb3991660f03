// Unit tests for the common substrate: RNG, Zipf, statistics, tables, the
// flat u64 map.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>

#include "common/flat_u64_map.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/types.h"

namespace ndp {
namespace {

TEST(Types, PageArithmetic) {
  EXPECT_EQ(vpn_of(0x12345678), 0x12345ull);
  EXPECT_EQ(page_offset(0x12345678), 0x678ull);
  EXPECT_EQ(frame_base(0x12345), 0x12345000ull);
  EXPECT_EQ(pfn_of(0x12345FFF), 0x12345ull);
  EXPECT_EQ(line_of(0x1000), 0x40ull);
  EXPECT_EQ(kPageSize, 4096u);
  EXPECT_EQ(kHugePageSize, 2u * 1024 * 1024);
}

TEST(Types, RadixIndexSplitsVpn) {
  // vpn bits [35:27][26:18][17:9][8:0] map to levels 4..1.
  const Vpn vpn = (0x1ABull << 27) | (0x0CDull << 18) | (0x0EFull << 9) | 0x123;
  EXPECT_EQ(radix_index(vpn, 4), 0x1ABu);
  EXPECT_EQ(radix_index(vpn, 3), 0x0CDu);
  EXPECT_EQ(radix_index(vpn, 2), 0x0EFu);
  EXPECT_EQ(radix_index(vpn, 1), 0x123u);
}

TEST(Types, FlatIndexIs18Bits) {
  const Vpn vpn = (7ull << 18) | 0x2FFFF;
  EXPECT_EQ(flat_index(vpn), 0x2FFFFu);
  EXPECT_EQ(flat_index(0x40000), 0u);  // bit 18 not part of the index
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Splitmix, DeterministicAndDispersed) {
  EXPECT_EQ(splitmix64(1), splitmix64(1));
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) seen.insert(splitmix64(i));
  EXPECT_EQ(seen.size(), 1000u);  // no collisions on consecutive inputs
}

class ZipfParamTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfParamTest, SamplesInRangeAndSkewed) {
  const double s = GetParam();
  const std::uint64_t n = 10000;
  Zipf z(n, s);
  Rng rng(42);
  std::uint64_t top_decile = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t v = z(rng);
    ASSERT_LT(v, n);
    if (v < n / 10) ++top_decile;
  }
  // Any Zipf with s > 0 concentrates more than 10% of mass in the first
  // decile of ranks.
  EXPECT_GT(top_decile, 20000 / 10);
}

INSTANTIATE_TEST_SUITE_P(Skews, ZipfParamTest,
                         ::testing::Values(0.3, 0.55, 0.8, 0.99, 1.0, 1.2));

TEST(Zipf, RankZeroIsHottest) {
  Zipf z(1000, 0.9);
  Rng rng(1);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 50000; ++i) ++counts[z(rng)];
  EXPECT_GT(counts[0], counts[500]);
  EXPECT_GT(counts[0], counts[99]);
}

TEST(Zipf, SingleElementAlwaysZero) {
  Zipf z(1, 1.0);
  Rng rng(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(z(rng), 0u);
}

TEST(Average, TracksMeanMinMax) {
  Average a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.mean(), 0.0);
  a.add(10);
  a.add(20);
  a.add(0);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.mean(), 10.0);
  EXPECT_DOUBLE_EQ(a.min(), 0.0);
  EXPECT_DOUBLE_EQ(a.max(), 20.0);
}

TEST(Average, MergeIsExact) {
  Average a, b, all;
  for (int i = 0; i < 10; ++i) {
    a.add(i);
    all.add(i);
  }
  for (int i = 50; i < 60; ++i) {
    b.add(i);
    all.add(i);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.mean(), all.mean());
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Average, MergeWithEmptySides) {
  Average a, empty;
  a.add(5);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  Average e2;
  e2.merge(a);
  EXPECT_EQ(e2.count(), 1u);
  EXPECT_DOUBLE_EQ(e2.mean(), 5.0);
}

TEST(StatSet, CountersAndRates) {
  StatSet s;
  s.inc("hit", 3);
  s.inc("miss");
  EXPECT_EQ(s.get("hit"), 3u);
  EXPECT_EQ(s.get("absent"), 0u);
  EXPECT_DOUBLE_EQ(s.rate("miss", "hit"), 0.25);
  EXPECT_DOUBLE_EQ(s.rate("a", "b"), 0.0);
}

TEST(StatSet, MergeSumsAndCombines) {
  StatSet a, b;
  a.inc("x", 1);
  b.inc("x", 2);
  b.inc("y", 5);
  a.add_sample("lat", 10);
  b.add_sample("lat", 30);
  a.merge(b);
  EXPECT_EQ(a.get("x"), 3u);
  EXPECT_EQ(a.get("y"), 5u);
  EXPECT_DOUBLE_EQ(a.average("lat")->mean(), 20.0);
}

TEST(StatSet, HandlesSurviveClearAndStayInvisibleUntilTouched) {
  StatSet s;
  StatSet::Counter* c = s.counter("fault");
  StatSet::Sample* lat = s.sample("lat");
  // Resolving a handle materializes nothing: the key set is still what the
  // lazily-created string API would have produced.
  EXPECT_EQ(s.counters().count("fault"), 0u);
  EXPECT_EQ(s.averages().count("lat"), 0u);
  EXPECT_EQ(s.average("lat"), nullptr);

  c->add(3);
  lat->add(7.0);
  EXPECT_EQ(s.get("fault"), 3u);
  EXPECT_EQ(s.counters().at("fault"), 3u);
  EXPECT_DOUBLE_EQ(s.average("lat")->mean(), 7.0);

  // clear() zeroes in place: the same handle keeps working afterwards and
  // the cell drops back out of the reported key set until touched again.
  s.clear();
  EXPECT_EQ(s.get("fault"), 0u);
  EXPECT_EQ(s.counters().count("fault"), 0u);
  EXPECT_EQ(s.average("lat"), nullptr);
  c->add();
  EXPECT_EQ(s.get("fault"), 1u);
  EXPECT_EQ(s.counters().at("fault"), 1u);
}

TEST(StatSet, LiveZeroCounterStaysVisible) {
  // inc(name, 0) materializes the key with value 0 (reclaim stats rely on
  // this); merge() must propagate it too.
  StatSet s;
  s.inc("freed", 0);
  EXPECT_EQ(s.counters().count("freed"), 1u);
  StatSet t;
  t.merge(s);
  EXPECT_EQ(t.counters().count("freed"), 1u);
  EXPECT_EQ(t.counters().at("freed"), 0u);
}

TEST(Table, AlignedOutputAndCsv) {
  Table t({"name", "value"});
  t.add_row({"alpha", Table::num(1.5)});
  t.add_row({"b", Table::pct(0.345)});
  std::ostringstream os;
  t.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("1.50"), std::string::npos);
  EXPECT_NE(text.find("34.5%"), std::string::npos);
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("alpha,1.50"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

// ---------------------------------------------------------- FlatU64Map ---

/// Every entry of `map`, failing the test if for_each visits a key twice.
std::map<std::uint64_t, std::uint64_t> entries_of(const FlatU64Map& map) {
  std::map<std::uint64_t, std::uint64_t> seen;
  map.for_each([&](std::uint64_t k, std::uint64_t v) {
    EXPECT_TRUE(seen.emplace(k, v).second) << "key " << k << " visited twice";
  });
  return seen;
}

void expect_same(const FlatU64Map& map,
                 const std::unordered_map<std::uint64_t, std::uint64_t>& ref) {
  ASSERT_EQ(map.size(), ref.size());
  const std::map<std::uint64_t, std::uint64_t> want(ref.begin(), ref.end());
  EXPECT_EQ(entries_of(map), want);
}

TEST(FlatU64Map, MatchesUnorderedMapUnderSeededOps) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    FlatU64Map map;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    // Two small dense key ranges far apart (consecutive keys share slot
    // runs) force overwrites and erase hits; the size swings up (growth
    // through several capacities) and back down (erase-heavy).
    const std::uint64_t universe = 3000;
    for (int step = 0; step < 60000; ++step) {
      const bool grow_phase = (step / 15000) % 2 == 0;
      const std::uint64_t key =
          rng.below(universe) + (rng.chance(0.5) ? 0 : seed << 40);
      const std::uint64_t op = rng.below(10);
      if (op < (grow_phase ? 6u : 3u)) {
        const std::uint64_t value = rng.next();
        map.insert_or_assign(key, value);
        ref[key] = value;
      } else if (op < 8) {
        EXPECT_EQ(map.erase(key), ref.erase(key) == 1);
      } else {
        const std::uint64_t* got = map.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(got != nullptr, it != ref.end());
        if (got) {
          EXPECT_EQ(*got, it->second);
        }
      }
      ASSERT_EQ(map.size(), ref.size());
      if (step % 5000 == 0) expect_same(map, ref);
    }
    expect_same(map, ref);
    EXPECT_GT(map.capacity(), 16u);
  }
}

TEST(FlatU64Map, EraseShiftsChainsThatWrapPastTheLastSlot) {
  FlatU64Map probe;
  probe.reserve(12);
  ASSERT_EQ(probe.capacity(), 16u);
  // Keys by home slot: four homed on the last slot (they occupy 15, 0, 1,
  // 2), two homed on slot 0 (pushed to 3 and 4), one on slot 14.
  auto keys_homed_at = [&](std::size_t slot, int n) {
    std::vector<std::uint64_t> out;
    for (std::uint64_t k = 1; static_cast<int>(out.size()) < n; ++k)
      if (probe.home_slot(k) == slot) out.push_back(k);
    return out;
  };
  std::vector<std::uint64_t> keys = keys_homed_at(15, 4);
  for (std::uint64_t k : keys_homed_at(0, 2)) keys.push_back(k);
  keys.push_back(keys_homed_at(14, 1).front());

  // Each key takes a turn as the first erased, the rest follow in stride-3
  // order: every erase must leave all other keys reachable, in 16 slots.
  for (std::size_t first = 0; first < keys.size(); ++first) {
    FlatU64Map map;
    map.reserve(12);
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    for (std::uint64_t k : keys) {
      map.insert_or_assign(k, k * 3);
      ref[k] = k * 3;
    }
    for (std::size_t n = 0; n < keys.size(); ++n) {
      const std::uint64_t victim = keys[(first + n * 3) % keys.size()];
      ASSERT_EQ(ref.erase(victim), 1u);
      ASSERT_TRUE(map.erase(victim));
      EXPECT_FALSE(map.erase(victim));
      EXPECT_EQ(map.find(victim), nullptr);
      for (const auto& [k, v] : ref) {
        const std::uint64_t* got = map.find(k);
        ASSERT_NE(got, nullptr) << "key " << k << " lost after erasing "
                                << victim;
        EXPECT_EQ(*got, v);
      }
      expect_same(map, ref);
    }
    EXPECT_EQ(map.capacity(), 16u);
    EXPECT_EQ(map.size(), 0u);
  }
}

TEST(FlatU64Map, ReserveHoldsThatManyWithoutGrowing) {
  FlatU64Map map;
  EXPECT_EQ(map.find(7), nullptr);
  EXPECT_FALSE(map.erase(7));
  map.reserve(100000);
  const std::size_t cap = map.capacity();
  // Consecutive keys, as prefault inserts frame numbers.
  for (std::uint64_t k = 0; k < 100000; ++k) map.insert_or_assign(k, k + 1);
  EXPECT_EQ(map.capacity(), cap);
  EXPECT_EQ(map.size(), 100000u);
  for (std::uint64_t k = 0; k < 100000; k += 7) {
    ASSERT_NE(map.find(k), nullptr);
    EXPECT_EQ(*map.find(k), k + 1);
  }
  // Growth past the reservation keeps every entry.
  for (std::uint64_t k = 100000; k < 300000; ++k) map.insert_or_assign(k, k + 1);
  EXPECT_GT(map.capacity(), cap);
  const auto all = entries_of(map);
  ASSERT_EQ(all.size(), 300000u);
  EXPECT_EQ(all.begin()->first, 0u);
  EXPECT_EQ(all.rbegin()->second, 300000u);
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.find(5), nullptr);
  map.insert_or_assign(5, 6);
  EXPECT_EQ(*map.find(5), 6u);
}

}  // namespace
}  // namespace ndp
