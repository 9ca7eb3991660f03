#include "noc/mesh.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ndp {

Mesh::Mesh(MeshConfig cfg) : cfg_(cfg), side_(1) {
  const unsigned tiles = cfg_.num_cores + cfg_.num_mem_endpoints;
  while (side_ * side_ < tiles) ++side_;
  ingress_next_.assign(cfg_.num_mem_endpoints, 0);
  fly_cycles_.reserve(static_cast<std::size_t>(cfg_.num_cores) *
                      cfg_.num_mem_endpoints);
  for (unsigned c = 0; c < cfg_.num_cores; ++c)
    for (unsigned e = 0; e < cfg_.num_mem_endpoints; ++e)
      fly_cycles_.push_back(static_cast<Cycle>(hops(c, e)) *
                            cfg_.hop_latency);
}

Mesh::Pos Mesh::core_pos(unsigned core) const {
  assert(core < cfg_.num_cores);
  return Pos{static_cast<int>(core % side_), static_cast<int>(core / side_)};
}

Mesh::Pos Mesh::mem_pos(unsigned endpoint) const {
  assert(endpoint < cfg_.num_mem_endpoints);
  const unsigned tile = cfg_.num_cores + endpoint;
  return Pos{static_cast<int>(tile % side_), static_cast<int>(tile / side_)};
}

unsigned Mesh::manhattan(Pos a, Pos b) {
  return static_cast<unsigned>(std::abs(a.x - b.x) + std::abs(a.y - b.y));
}

unsigned Mesh::hops(unsigned core, unsigned endpoint) const {
  return manhattan(core_pos(core), mem_pos(endpoint));
}

Cycle Mesh::to_memory(Cycle now, unsigned core, unsigned endpoint) {
  const Cycle fly = fly_cycles(core, endpoint);
  Cycle arrive = now + fly;
  Cycle& slot = ingress_next_[endpoint];
  arrive = std::max(arrive, slot);
  slot = arrive + cfg_.ingress_slot;
  ++packets_;
  request_latency_.add(static_cast<double>(arrive - now));
  return arrive;
}

StatSet Mesh::snapshot() const {
  StatSet s;
  s.inc("packet", packets_);
  s.merge_average("request_latency", request_latency_);
  return s;
}

Cycle Mesh::from_memory(Cycle now, unsigned endpoint, unsigned core) const {
  return now + fly_cycles(core, endpoint);
}

}  // namespace ndp
