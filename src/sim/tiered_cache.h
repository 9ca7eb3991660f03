// TieredCache: the one cache of build products.
//
// Every cross-run cache is an instance: the Session's system images, trace
// material and post-prefault snapshots (sim/session.h), and the fleet
// coordinator's merged result documents (fleet/coordinator.h). Each is a
// string-keyed LRU of shared_ptr<const V> bounded by entry count — an
// evicted value stays alive for any run still holding it — over an
// optional on-disk tier (the ImageStore, sim/image_store.h) that
// get_or_build() probes on a memory miss and writes fresh builds back to.
// V reports its host footprint through resident_bytes(); the cache keeps
// the sum over what it holds.
//
// One mutex per cache, held for lookups and inserts only: builds and disk
// probes run outside it, so distinct keys build in parallel, and
// concurrent misses on one key may both build (wasted work only — every
// cached product is deterministic). The first admit wins and counts a
// build; a raced loser gets the winner's value back and counts a hit, so
// the totals do not depend on the race. Hits, builds and evictions are
// counted per instance and mirrored into process-wide obs counters the
// owner names.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"

namespace ndp {

template <typename V>
class TieredCache {
 public:
  using Ptr = std::shared_ptr<const V>;

  /// The on-disk tier under the memory LRU: `load` probes it (null = not
  /// there) and `save` writes a fresh build back. Either may be empty.
  struct Tier {
    std::function<Ptr()> load;
    std::function<void(const V&)> save;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t builds = 0;  ///< admits that inserted (memory misses)
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    std::uint64_t bytes = 0;   ///< sum of resident_bytes() over entries
  };

  /// Holds at most `capacity` entries; 0 stores nothing (every admit
  /// still counts its build).
  TieredCache(std::size_t capacity, obs::Counter& hits, obs::Counter& builds,
              obs::Counter& evictions)
      : capacity_(capacity),
        hits_metric_(hits),
        builds_metric_(builds),
        evictions_metric_(evictions) {}

  /// The resident value under `key`, refreshed to most recent; a hit
  /// counts. A miss counts nothing: the admit that follows it does.
  Ptr find(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    return find_locked(key);
  }

  /// Insert-if-absent. Returns the resident value: `value` itself when
  /// this call inserted it (a build; evicts the least recently used entry
  /// past capacity), else the one an earlier admit put there (a hit,
  /// recency refreshed, `value` dropped). `inserted`, when given, says
  /// which.
  Ptr admit(const std::string& key, Ptr value, bool* inserted = nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    if (Ptr resident = find_locked(key)) {
      if (inserted) *inserted = false;
      return resident;
    }
    ++builds_;
    builds_metric_.inc();
    if (inserted) *inserted = true;
    if (capacity_ == 0) return value;
    bytes_ += value->resident_bytes();
    lru_.push_front(Entry{key, value});
    index_.emplace(key, lru_.begin());
    if (lru_.size() > capacity_) {
      const Entry& victim = lru_.back();
      bytes_ -= victim.value->resident_bytes();
      index_.erase(victim.key);
      lru_.pop_back();
      ++evictions_;
      evictions_metric_.inc();
    }
    return value;
  }

  /// find(), then `tier.load`, then `build` (and `tier.save` on what it
  /// built), then admit(). `built`, when given, reports whether this
  /// call's value was the one admitted — false on a hit, memory or raced.
  Ptr get_or_build(const std::string& key, const std::function<Ptr()>& build,
                   const Tier& tier = {}, bool* built = nullptr) {
    if (Ptr hit = find(key)) {
      if (built) *built = false;
      return hit;
    }
    Ptr value = tier.load ? tier.load() : nullptr;
    if (!value) {
      value = build();
      if (tier.save) tier.save(*value);
    }
    return admit(key, std::move(value), built);
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return Stats{hits_, builds_, evictions_, lru_.size(), bytes_};
  }

 private:
  struct Entry {
    std::string key;
    Ptr value;
  };

  Ptr find_locked(const std::string& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    ++hits_;
    hits_metric_.inc();
    return it->second->value;
  }

  const std::size_t capacity_;
  obs::Counter& hits_metric_;
  obs::Counter& builds_metric_;
  obs::Counter& evictions_metric_;
  mutable std::mutex mu_;  ///< guards everything below
  std::list<Entry> lru_;   ///< front = most recently used
  std::unordered_map<std::string, typename std::list<Entry>::iterator> index_;
  std::uint64_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t builds_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace ndp
