#include "cache/hierarchy.h"

#include <cassert>
#include <string>

namespace ndp {

MemorySystemConfig MemorySystemConfig::ndp(unsigned cores) {
  MemorySystemConfig cfg;
  cfg.num_cores = cores;
  cfg.l1 = CacheConfig{.name = "L1D", .size_bytes = 32 * 1024, .ways = 8,
                       .latency = 4};
  cfg.l2.reset();
  cfg.l3.reset();
  cfg.dram = DramTiming::hbm2();
  cfg.mesh_hop_latency = 4;
  return cfg;
}

MemorySystemConfig MemorySystemConfig::cpu(unsigned cores) {
  MemorySystemConfig cfg;
  cfg.num_cores = cores;
  cfg.l1 = CacheConfig{.name = "L1D", .size_bytes = 32 * 1024, .ways = 8,
                       .latency = 4};
  cfg.l2 = CacheConfig{.name = "L2", .size_bytes = 512 * 1024, .ways = 16,
                       .latency = 16};
  cfg.l3 = CacheConfig{.name = "L3", .size_bytes = 2 * 1024 * 1024, .ways = 16,
                       .latency = 35};
  cfg.dram = DramTiming::ddr4_2400();
  cfg.mesh_hop_latency = 4;
  return cfg;
}

MeshConfig MemorySystemConfig::mesh() const {
  return MeshConfig{.num_cores = num_cores,
                    .num_mem_endpoints = dram.channels,
                    .hop_latency = mesh_hop_latency,
                    .ingress_slot = 1};
}

MemorySystem::MemorySystem(const MemorySystemConfig& cfg)
    : cfg_(cfg), mesh_(cfg.mesh()), dram_(cfg.dram) {
  assert(cfg_.num_cores > 0);
  for (unsigned c = 0; c < cfg_.num_cores; ++c) {
    CacheConfig l1c = cfg_.l1;
    l1c.name = "L1D." + std::to_string(c);
    l1_.push_back(std::make_unique<Cache>(l1c));
    if (cfg_.l2) {
      CacheConfig l2c = *cfg_.l2;
      l2c.name = "L2." + std::to_string(c);
      l2_.push_back(std::make_unique<Cache>(l2c));
    }
  }
  if (cfg_.l3) {
    CacheConfig l3c = *cfg_.l3;
    l3c.size_bytes *= cfg_.num_cores;  // Table I: 2 MB per core, shared
    l3_ = std::make_unique<Cache>(l3c);
  }
}

void MemorySystem::write_back(Cycle now, unsigned core,
                              std::uint64_t victim_line, AccessClass cls) {
  // Dirty victims are drained straight to DRAM (fire-and-forget): they
  // consume channel/bank time — so write-back traffic does contend with
  // demand traffic — but never sit on the requester's critical path.
  const PhysAddr pa = victim_line << kCacheLineShift;
  const unsigned ep = dram_.channel_of(pa);
  const Cycle arrive = mesh_.to_memory(now, core, ep);
  dram_.access(arrive, pa, AccessType::kWrite, cls);
  ++counters_.writebacks;
}

MemAccessResult MemorySystem::dram_round_trip(Cycle now, unsigned core,
                                              PhysAddr pa, AccessType type,
                                              AccessClass cls) {
  const unsigned ep = dram_.channel_of(pa);
  const Cycle arrive = mesh_.to_memory(now, core, ep);
  const DramResult dr = dram_.access(arrive, pa, type, cls);
  const Cycle back = mesh_.from_memory(dr.finish, ep, core);
  return MemAccessResult{back, ServedBy::kDram};
}

MemAccessResult MemorySystem::access(Cycle now, unsigned core, PhysAddr pa,
                                     AccessType type, AccessClass cls,
                                     bool bypass_caches) {
  assert(core < cfg_.num_cores);
  ++counters_.access;
  if (cls == AccessClass::kMetadata) ++counters_.access_meta;

  if (bypass_caches) {
    ++counters_.bypassed;
    ++counters_.served_dram;
    return dram_round_trip(now, core, pa, type, cls);
  }

  const std::uint64_t line = line_of(pa);
  Cycle t = now;

  // L1 (private). The hit probe is inlined (cache.h) — the overwhelmingly
  // common outcome pays no out-of-line call and builds no CacheOutcome.
  Cache& l1 = *l1_[core];
  t += l1.config().latency;
  if (l1.access_hit(line, type, cls)) {
    ++counters_.served_l1;
    return MemAccessResult{t, ServedBy::kL1};
  }
  CacheOutcome o1 = l1.fill_miss(line, type, cls);
  if (o1.evicted && o1.victim_dirty) write_back(t, core, o1.victim_line, o1.victim_class);

  // L2 (private, CPU system only).
  if (!l2_.empty()) {
    Cache& l2 = *l2_[core];
    t += l2.config().latency;
    if (l2.access_hit(line, type, cls)) {
      ++counters_.served_l2;
      return MemAccessResult{t, ServedBy::kL2};
    }
    CacheOutcome o2 = l2.fill_miss(line, type, cls);
    if (o2.evicted && o2.victim_dirty) write_back(t, core, o2.victim_line, o2.victim_class);
  }

  // L3 (shared, CPU system only).
  if (l3_) {
    t += l3_->config().latency;
    if (l3_->access_hit(line, type, cls)) {
      ++counters_.served_l3;
      return MemAccessResult{t, ServedBy::kL3};
    }
    CacheOutcome o3 = l3_->fill_miss(line, type, cls);
    if (o3.evicted && o3.victim_dirty) write_back(t, core, o3.victim_line, o3.victim_class);
  }

  ++counters_.served_dram;
  MemAccessResult r = dram_round_trip(t, core, pa, type, cls);
  return r;
}

void MemorySystem::reset_stats() {
  counters_ = Counters{};
  for (auto& c : l1_) c->reset_counters();
  for (auto& c : l2_) c->reset_counters();
  if (l3_) l3_->reset_counters();
  dram_.reset_counters();
  mesh_.reset_counters();
}

StatSet MemorySystem::collect_stats() const {
  StatSet out;
  out.inc("mem.access", counters_.access);
  out.inc("mem.access.meta", counters_.access_meta);
  out.inc("mem.bypassed", counters_.bypassed);
  out.inc("mem.served.l1", counters_.served_l1);
  out.inc("mem.served.l2", counters_.served_l2);
  out.inc("mem.served.l3", counters_.served_l3);
  out.inc("mem.served.dram", counters_.served_dram);
  out.inc("mem.writeback", counters_.writebacks);
  auto add_all = [&out](const StatSet& s, const std::string& prefix) {
    for (const auto& [k, v] : s.counters()) out.inc(prefix + "." + k, v);
    for (const auto& [k, a] : s.averages()) out.merge_average(prefix + "." + k, a);
  };
  for (unsigned c = 0; c < cfg_.num_cores; ++c)
    add_all(l1_[c]->snapshot(), "l1");
  for (const auto& l2 : l2_) add_all(l2->snapshot(), "l2");
  if (l3_) add_all(l3_->snapshot(), "l3");
  add_all(dram_.snapshot(), "dram");
  add_all(mesh_.snapshot(), "noc");
  return out;
}

}  // namespace ndp
