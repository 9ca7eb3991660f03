#include "cache/cache.h"

#include <cassert>

namespace ndp {

Cache::Cache(CacheConfig cfg) : cfg_(std::move(cfg)) {
  assert(cfg_.ways > 0);
  const std::uint64_t num_lines = cfg_.size_bytes / kCacheLineSize;
  assert(num_lines % cfg_.ways == 0);
  num_sets_ = static_cast<unsigned>(num_lines / cfg_.ways);
  assert(num_sets_ > 0);
  ways_ = cfg_.ways;
  tags_.assign(num_lines, kInvalidTag);
  lru_.assign(num_lines, 0);
  dirty_.assign(num_lines, 0);
  cls_.assign(num_lines, static_cast<std::uint8_t>(AccessClass::kData));
}

bool Cache::probe(std::uint64_t line) const {
  const std::size_t base = base_of(line);
  for (unsigned w = 0; w < ways_; ++w)
    if (tags_[base + w] == line) return true;
  return false;
}

bool Cache::invalidate(std::uint64_t line) {
  const std::size_t base = base_of(line);
  for (unsigned w = 0; w < ways_; ++w) {
    if (tags_[base + w] == line) {
      tags_[base + w] = kInvalidTag;
      return dirty_[base + w] != 0;
    }
  }
  return false;
}

unsigned Cache::pick_victim(std::size_t base) const {
  for (unsigned w = 0; w < ways_; ++w)
    if (tags_[base + w] == kInvalidTag) return w;
  unsigned victim = 0;
  for (unsigned w = 1; w < ways_; ++w)
    if (lru_[base + w] < lru_[base + victim]) victim = w;
  return victim;
}

CacheOutcome Cache::access(std::uint64_t line, AccessType type,
                           AccessClass cls) {
  if (access_hit(line, type, cls)) return CacheOutcome{.hit = true};
  return fill_miss(line, type, cls);
}

CacheOutcome Cache::fill_miss(std::uint64_t line, AccessType type,
                              AccessClass cls) {
  const std::size_t base = base_of(line);
  ++counters_.miss[static_cast<int>(cls)];

  const std::size_t v = base + pick_victim(base);
  CacheOutcome out;
  out.hit = false;
  if (tags_[v] != kInvalidTag) {
    out.evicted = true;
    out.victim_dirty = dirty_[v] != 0;
    out.victim_line = tags_[v];
    out.victim_class = static_cast<AccessClass>(cls_[v]);
    // Pollution accounting: a metadata fill displacing a data line is the
    // effect the paper's bypass mechanism removes.
    if (cls == AccessClass::kMetadata && out.victim_class == AccessClass::kData)
      ++counters_.pollution_victims;
  }
  tags_[v] = line;
  dirty_[v] = (type == AccessType::kWrite) ? 1 : 0;
  cls_[v] = static_cast<std::uint8_t>(cls);
  lru_[v] = tick_;
  return out;
}

StatSet Cache::snapshot() const {
  StatSet s;
  s.inc("hit.data", counters_.hit[0]);
  s.inc("hit.meta", counters_.hit[1]);
  s.inc("miss.data", counters_.miss[0]);
  s.inc("miss.meta", counters_.miss[1]);
  s.inc("pollution_victims", counters_.pollution_victims);
  return s;
}

double Cache::miss_rate(AccessClass cls) const {
  const double h = static_cast<double>(counters_.hits(cls));
  const double m = static_cast<double>(counters_.misses(cls));
  return (h + m) > 0 ? m / (h + m) : 0.0;
}

double Cache::metadata_occupancy() const {
  std::uint64_t valid = 0, meta = 0;
  for (std::size_t i = 0; i < tags_.size(); ++i) {
    if (tags_[i] == kInvalidTag) continue;
    ++valid;
    if (static_cast<AccessClass>(cls_[i]) == AccessClass::kMetadata) ++meta;
  }
  return valid ? static_cast<double>(meta) / static_cast<double>(valid) : 0.0;
}

}  // namespace ndp
