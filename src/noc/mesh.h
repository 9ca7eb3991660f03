// 2-D mesh interconnect latency model (Table I: mesh, 4-cycle hop latency,
// 512-bit links).
//
// Tiles are laid out on the smallest square grid that fits all endpoints.
// Core tiles come first, then memory endpoints (HBM vault controllers in the
// NDP system, the memory controllers in the CPU system). Latency is hop
// count x hop latency plus a per-ingress serialization slot — a 64 B packet
// is a single flit on a 512-bit link, so serialization is one cycle, but the
// slot still creates back-pressure when many cores target one vault.
//
// Each Mesh computes its own hops x hop_latency table (one entry per core
// and memory endpoint) at construction, in well under a microsecond, so
// nothing caches or shares it.
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace ndp {

struct MeshConfig {
  unsigned num_cores = 1;
  unsigned num_mem_endpoints = 4;  ///< vault/memory-controller tiles
  Cycle hop_latency = 4;
  Cycle ingress_slot = 1;  ///< per-endpoint serialization per packet
};

class Mesh {
 public:
  explicit Mesh(MeshConfig cfg);

  /// One-way traversal core -> memory endpoint; returns arrival time and
  /// reserves the endpoint's ingress slot.
  Cycle to_memory(Cycle now, unsigned core, unsigned endpoint);
  /// Response path memory endpoint -> core (no ingress reservation: response
  /// networks are modeled contention-free, matching typical NoC studies).
  Cycle from_memory(Cycle now, unsigned endpoint, unsigned core) const;

  unsigned hops(unsigned core, unsigned endpoint) const;
  unsigned grid_side() const { return side_; }
  StatSet snapshot() const;
  void reset_counters() { packets_ = 0; request_latency_.reset(); }

 private:
  struct Pos {
    int x, y;
  };
  Pos core_pos(unsigned core) const;
  Pos mem_pos(unsigned endpoint) const;
  static unsigned manhattan(Pos a, Pos b);

  Cycle fly_cycles(unsigned core, unsigned endpoint) const {
    return fly_cycles_[static_cast<std::size_t>(core) *
                           cfg_.num_mem_endpoints +
                       endpoint];
  }

  MeshConfig cfg_;
  unsigned side_;
  std::vector<Cycle> ingress_next_;  ///< per memory endpoint
  /// hops x hop_latency per (core, endpoint), precomputed at construction —
  /// the per-packet path computes no grid coordinates.
  std::vector<Cycle> fly_cycles_;
  std::uint64_t packets_ = 0;
  Average request_latency_;
};

}  // namespace ndp
