// Lightweight statistics primitives used by every simulated component.
//
// A StatSet is a named registry of counters/averages owned by a component;
// the experiment runner snapshots them after a run. Counters are plain
// uint64 — the simulator is single-threaded by design (the multi-core model
// interleaves core *clocks*, not host threads).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>

#include "common/blob.h"

namespace ndp {

/// Running mean + extremes without storing samples.
class Average {
 public:
  void add(double v) {
    if (count_ == 0) {
      min_ = max_ = v;
    } else {
      min_ = std::min(min_, v);
      max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;
  }
  /// Exact merge of two sample sets (count/sum/min/max are all associative).
  void merge(const Average& o) {
    if (o.count_ == 0) return;
    if (count_ == 0) {
      *this = o;
      return;
    }
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
    count_ += o.count_;
    sum_ += o.sum_;
  }
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  void reset() { *this = Average{}; }

  /// Rebuild from serialized parts — the getters' inverse, for snapshot
  /// restore (StatSet::load_state). count == 0 yields an empty Average.
  static Average from_parts(std::uint64_t count, double sum, double mn,
                            double mx) {
    Average a;
    if (count == 0) return a;
    a.count_ = count;
    a.sum_ = sum;
    a.min_ = mn;
    a.max_ = mx;
    return a;
  }

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0, min_ = 0.0, max_ = 0.0;
};

/// Named counter registry. Components expose one so tests and benches can
/// read e.g. stats.get("tlb.l1d.miss") without bespoke accessors everywhere.
///
/// Hot paths resolve a Counter*/Sample* handle once (at construction) and
/// bump it directly — no per-access string hashing or map lookups. Handles
/// stay valid for the StatSet's lifetime: clear() zeroes cells in place
/// instead of destroying them, and a cell only shows up in counters()/
/// averages()/serialization once it has been touched since the last clear(),
/// so the externally visible key set is exactly what the lazily-materialized
/// string-keyed API produced.
class StatSet {
 public:
  /// One named counter cell. Obtain via counter(); add() is the hot path.
  class Counter {
   public:
    void add(std::uint64_t by = 1) {
      value_ += by;
      live_ = true;
    }
    std::uint64_t value() const { return value_; }
    /// Touched since the last clear()? Dead cells are invisible externally.
    bool live() const { return live_; }

   private:
    friend class StatSet;
    std::uint64_t value_ = 0;
    bool live_ = false;
  };

  /// One named Average cell. Obtain via sample(); add() is the hot path.
  class Sample {
   public:
    void add(double v) {
      avg_.add(v);
      live_ = true;
    }
    void merge(const Average& a) {
      avg_.merge(a);
      live_ = true;
    }
    const Average& average() const { return avg_; }
    bool live() const { return live_; }

   private:
    friend class StatSet;
    Average avg_;
    bool live_ = false;
  };

  /// Resolve a counter handle. The pointer stays valid (and keeps its name)
  /// across clear() for the StatSet's lifetime. Resolving a handle does not
  /// make the counter visible — only touching it does.
  Counter* counter(const std::string& name) { return &counters_[name]; }
  /// Resolve an Average handle; same lifetime contract as counter().
  Sample* sample(const std::string& name) { return &averages_[name]; }

  void inc(const std::string& name, std::uint64_t by = 1) {
    counters_[name].add(by);
  }
  void add_sample(const std::string& name, double v) { averages_[name].add(v); }
  /// Merge a whole Average (exact) under `name` — used when re-keying
  /// component stats with a prefix.
  void merge_average(const std::string& name, const Average& a) {
    averages_[name].merge(a);
  }

  std::uint64_t get(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value_;
  }
  const Average* average(const std::string& name) const {
    auto it = averages_.find(name);
    return it == averages_.end() || !it->second.live_ ? nullptr
                                                      : &it->second.avg_;
  }
  double mean(const std::string& name) const {
    const Average* a = average(name);
    return a ? a->mean() : 0.0;
  }
  /// Ratio helper: num/(num+den) with 0 on empty denominator.
  double rate(const std::string& num, const std::string& den) const;

  /// Live counters, materialized (reporting path — resolved-but-untouched
  /// handle cells are excluded, exactly like the pre-handle key set).
  std::map<std::string, std::uint64_t> counters() const;
  /// Live averages, materialized.
  std::map<std::string, Average> averages() const;
  /// Zero every cell in place; resolved handles stay valid and the cells
  /// drop out of counters()/averages() until touched again.
  void clear();
  /// Merge another StatSet into this one (counter sums, exact sample merges).
  void merge(const StatSet& other);

  /// Serialize the live cells — value *and* liveness, so a restored set
  /// reports exactly the key set the original did (sim/image_store.h
  /// post-prefault snapshots; byte-identical serialization depends on it).
  void save_state(BlobWriter& out) const;
  /// clear() and re-apply a saved snapshot. Resolved handles stay valid
  /// (cells are written in place). Returns false on truncated input.
  bool load_state(BlobReader& in);

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Sample> averages_;
};

}  // namespace ndp
