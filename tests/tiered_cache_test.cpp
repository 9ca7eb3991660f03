// TieredCache contract (sim/tiered_cache.h): LRU recency and eviction, the
// byte total, the first-insert-wins race rule, the disk-tier callables, and
// the obs counters every count is mirrored into.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "sim/tiered_cache.h"

namespace ndp {
namespace {

/// A value whose identity and size the test controls.
struct Blob {
  std::uint64_t id = 0;
  std::uint64_t size = 0;
  std::uint64_t resident_bytes() const { return size; }
};

using Cache = TieredCache<Blob>;

std::shared_ptr<const Blob> blob(std::uint64_t size, std::uint64_t id = 0) {
  return std::make_shared<const Blob>(Blob{id, size});
}

/// Process-wide counters the caches under test mirror into. Tests compare
/// deltas, so sharing them across tests is harmless.
struct TestMetrics {
  obs::Counter& hits = obs::Metrics::instance().counter(
      "ndpsim_test_tiered_cache_hits_total", "TieredCache test hits");
  obs::Counter& builds = obs::Metrics::instance().counter(
      "ndpsim_test_tiered_cache_builds_total", "TieredCache test builds");
  obs::Counter& evictions = obs::Metrics::instance().counter(
      "ndpsim_test_tiered_cache_evictions_total",
      "TieredCache test evictions");

  static TestMetrics& get() {
    static TestMetrics m;
    return m;
  }
};

std::unique_ptr<Cache> make_cache(std::size_t capacity) {
  TestMetrics& m = TestMetrics::get();
  return std::make_unique<Cache>(capacity, m.hits, m.builds, m.evictions);
}

TEST(TieredCache, DuplicateAdmitKeepsFirstInPlace) {
  auto cache = make_cache(2);
  bool inserted = false;
  cache->admit("a", blob(10), &inserted);
  EXPECT_TRUE(inserted);
  cache->admit("b", blob(20), &inserted);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(cache->stats().bytes, 30u);

  // Admitting a resident key keeps the first value in place: no second
  // entry, and the byte total neither double-counts nor swaps sizes.
  const auto resident = cache->admit("a", blob(50), &inserted);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(resident->size, 10u);
  EXPECT_EQ(cache->stats().entries, 2u);
  EXPECT_EQ(cache->stats().evictions, 0u);
  EXPECT_EQ(cache->stats().bytes, 30u);
  EXPECT_EQ(cache->find("a")->size, 10u);

  // The duplicate admit refreshed recency: the next eviction takes b.
  cache->admit("c", blob(5));
  EXPECT_EQ(cache->stats().evictions, 1u);
  EXPECT_EQ(cache->find("b"), nullptr);
  ASSERT_NE(cache->find("a"), nullptr);
  EXPECT_EQ(cache->stats().bytes, 15u);
  EXPECT_EQ(cache->stats().entries, 2u);
}

TEST(TieredCache, EvictsLeastRecentlyUsed) {
  auto cache = make_cache(2);
  cache->admit("a", blob(1));
  cache->admit("b", blob(1));
  ASSERT_NE(cache->find("a"), nullptr);  // "a" now most recent
  cache->admit("c", blob(1));            // evicts "b"
  EXPECT_EQ(cache->find("b"), nullptr);
  EXPECT_NE(cache->find("a"), nullptr);
  EXPECT_NE(cache->find("c"), nullptr);
  EXPECT_EQ(1u, cache->stats().evictions);
}

/// The obviously-correct model: a vector in recency order (front = most
/// recent), searched linearly.
class ReferenceLru {
 public:
  explicit ReferenceLru(std::size_t capacity) : capacity_(capacity) {}

  /// Id of the resident value, or 0 on a miss.
  std::uint64_t find(const std::string& key) {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].key != key) continue;
      const Entry e = entries_[i];
      entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
      entries_.insert(entries_.begin(), e);
      ++hits;
      return e.id;
    }
    return 0;
  }

  /// Id of the value resident after the admit (the first one wins).
  std::uint64_t admit(const std::string& key, std::uint64_t id,
                      std::uint64_t size) {
    if (const std::uint64_t resident = find(key)) return resident;
    ++builds;
    if (capacity_ == 0) return id;
    entries_.insert(entries_.begin(), Entry{key, id, size});
    if (entries_.size() > capacity_) {
      entries_.pop_back();
      ++evictions;
    }
    return id;
  }

  std::size_t entries() const { return entries_.size(); }
  std::uint64_t bytes() const {
    std::uint64_t total = 0;
    for (const Entry& e : entries_) total += e.size;
    return total;
  }

  std::uint64_t hits = 0, builds = 0, evictions = 0;

 private:
  struct Entry {
    std::string key;
    std::uint64_t id = 0;
    std::uint64_t size = 0;
  };
  std::size_t capacity_;
  std::vector<Entry> entries_;
};

TEST(TieredCache, MatchesReferenceLru) {
  TestMetrics& m = TestMetrics::get();
  for (const std::size_t capacity : {0u, 1u, 2u, 3u, 5u, 8u}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    const std::uint64_t hits_before = m.hits.value();
    const std::uint64_t builds_before = m.builds.value();
    const std::uint64_t evictions_before = m.evictions.value();
    auto cache = make_cache(capacity);
    ReferenceLru ref(capacity);
    Rng rng(0x7e1e4ed + capacity);
    std::uint64_t next_id = 1;
    for (int op = 0; op < 3000; ++op) {
      // Ten keys over capacities up to 8: hits, misses and evictions all
      // happen often.
      const std::string key = "k" + std::to_string(rng.below(10));
      if (rng.chance(0.4)) {
        const auto got = cache->find(key);
        ASSERT_EQ(got ? got->id : 0, ref.find(key)) << "op " << op;
      } else {
        const std::uint64_t id = next_id++;
        const std::uint64_t size = 1 + rng.below(1000);
        bool inserted = false;
        const auto got = cache->admit(key, blob(size, id), &inserted);
        const std::uint64_t want = ref.admit(key, id, size);
        ASSERT_EQ(got->id, want) << "op " << op;
        ASSERT_EQ(inserted, want == id) << "op " << op;
      }
      const Cache::Stats s = cache->stats();
      ASSERT_EQ(s.hits, ref.hits) << "op " << op;
      ASSERT_EQ(s.builds, ref.builds) << "op " << op;
      ASSERT_EQ(s.evictions, ref.evictions) << "op " << op;
      ASSERT_EQ(s.entries, ref.entries()) << "op " << op;
      ASSERT_EQ(s.bytes, ref.bytes()) << "op " << op;
    }
    if (capacity > 0) {  // capacity 0 holds nothing, so it never hits
      EXPECT_GT(ref.hits, 0u);
      EXPECT_GT(ref.evictions, 0u);
    }
    // Every count is mirrored into the obs counters.
    EXPECT_EQ(m.hits.value() - hits_before, ref.hits);
    EXPECT_EQ(m.builds.value() - builds_before, ref.builds);
    EXPECT_EQ(m.evictions.value() - evictions_before, ref.evictions);
  }
}

TEST(TieredCache, ConcurrentMissesShareOneBuild) {
  constexpr int kThreads = 4;
  auto cache = make_cache(4);
  std::atomic<int> building{0};
  std::vector<std::shared_ptr<const Blob>> got(kThreads);
  std::vector<char> built(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      bool b = false;
      got[t] = cache->get_or_build(
          "key",
          [&] {
            // Hold every thread here until all have missed, so the admits
            // really race (bounded: a cache that serialized builds would
            // time out here and fail the `building` check below).
            building.fetch_add(1);
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(5);
            while (building.load() < kThreads &&
                   std::chrono::steady_clock::now() < deadline)
              std::this_thread::yield();
            return blob(8, static_cast<std::uint64_t>(t) + 1);
          },
          {}, &b);
      built[t] = b;
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(building.load(), kThreads) << "every thread missed and built";
  int winners = 0;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[t].get(), got[0].get()) << "thread " << t;
    winners += built[t];
  }
  EXPECT_EQ(winners, 1);
  const Cache::Stats s = cache->stats();
  EXPECT_EQ(s.builds, 1u);
  EXPECT_EQ(s.hits, static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, 8u);
}

TEST(TieredCache, GetOrBuildProbesLoadFirstAndSavesOnlyBuilds) {
  auto cache = make_cache(4);
  int loads = 0, builds = 0, saves = 0;
  std::shared_ptr<const Blob> on_disk;  // what `load` finds
  const Cache::Tier tier{[&] {
                           ++loads;
                           return on_disk;
                         },
                         [&](const Blob&) { ++saves; }};
  auto build = [&] {
    ++builds;
    return blob(3);
  };

  bool built = false;
  cache->get_or_build("a", build, tier, &built);  // disk miss: build + save
  EXPECT_TRUE(built);
  EXPECT_EQ(loads, 1);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(saves, 1);

  cache->get_or_build("a", build, tier, &built);  // memory hit: no tier
  EXPECT_FALSE(built);
  EXPECT_EQ(loads, 1);
  EXPECT_EQ(builds, 1);

  on_disk = blob(7);
  const auto loaded = cache->get_or_build("b", build, tier, &built);
  EXPECT_TRUE(built) << "a disk load is a memory miss: it counts a build";
  EXPECT_EQ(loaded, on_disk);
  EXPECT_EQ(loads, 2);
  EXPECT_EQ(builds, 1) << "a disk hit skips the build";
  EXPECT_EQ(saves, 1) << "and is not written back";

  const Cache::Stats s = cache->stats();
  EXPECT_EQ(s.builds, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.bytes, 10u);
}

}  // namespace
}  // namespace ndp
