#include "common/stats.h"

namespace ndp {

double StatSet::rate(const std::string& num, const std::string& den) const {
  const double n = static_cast<double>(get(num));
  const double d = static_cast<double>(get(den));
  return (n + d) > 0.0 ? n / (n + d) : 0.0;
}

std::map<std::string, std::uint64_t> StatSet::counters() const {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, c] : counters_)
    if (c.live_) out.emplace(name, c.value_);
  return out;
}

std::map<std::string, Average> StatSet::averages() const {
  std::map<std::string, Average> out;
  for (const auto& [name, s] : averages_)
    if (s.live_) out.emplace(name, s.avg_);
  return out;
}

void StatSet::clear() {
  for (auto& kv : counters_) kv.second = Counter{};
  for (auto& kv : averages_) kv.second = Sample{};
}

void StatSet::save_state(BlobWriter& out) const {
  const auto live_counters = counters();
  out.u64(live_counters.size());
  for (const auto& [name, v] : live_counters) {
    out.str(name);
    out.u64(v);
  }
  const auto live_averages = averages();
  out.u64(live_averages.size());
  for (const auto& [name, a] : live_averages) {
    out.str(name);
    out.u64(a.count());
    out.f64(a.sum());
    out.f64(a.min());
    out.f64(a.max());
  }
}

bool StatSet::load_state(BlobReader& in) {
  clear();
  const std::uint64_t nc = in.u64();
  for (std::uint64_t i = 0; i < nc && in.ok(); ++i) {
    const std::string name = in.str();
    const std::uint64_t v = in.u64();
    if (!in.ok()) return false;
    Counter& c = counters_[name];
    c.value_ = v;
    c.live_ = true;
  }
  const std::uint64_t na = in.u64();
  for (std::uint64_t i = 0; i < na && in.ok(); ++i) {
    const std::string name = in.str();
    const std::uint64_t count = in.u64();
    const double sum = in.f64();
    const double mn = in.f64();
    const double mx = in.f64();
    if (!in.ok()) return false;
    Sample& s = averages_[name];
    s.avg_ = Average::from_parts(count, sum, mn, mx);
    s.live_ = true;
  }
  return in.ok();
}

void StatSet::merge(const StatSet& other) {
  // A live-but-zero cell still materializes a key in the target, matching
  // the string-keyed `counters_[name] += v` behaviour this replaced.
  for (const auto& [name, c] : other.counters_)
    if (c.live_) counters_[name].add(c.value_);
  for (const auto& [name, s] : other.averages_)
    if (s.live_) averages_[name].merge(s.avg_);
}

}  // namespace ndp
