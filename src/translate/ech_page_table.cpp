#include "translate/ech_page_table.h"

#include <algorithm>
#include <cassert>

namespace ndp {

namespace {
// Way storage comes in order-9 (2 MB) blocks: the largest size the OS can
// guarantee via compaction on a fragmented pool.
constexpr std::uint64_t kChunkFrames = 1ull << 9;
constexpr std::uint64_t kChunkBytes = kChunkFrames * kPageSize;

constexpr std::uint64_t kWaySeed[8] = {
    0x9E3779B97F4A7C15ull, 0xC2B2AE3D27D4EB4Full, 0x165667B19E3779F9ull,
    0x27D4EB2F165667C5ull, 0x85EBCA77C2B2AE63ull, 0x2545F4914F6CDD1Dull,
    0xFF51AFD7ED558CCDull, 0xC4CEB9FE1A85EC53ull};
}  // namespace

EchPageTable::EchPageTable(PhysicalMemory& pm, EchConfig cfg)
    : pm_(pm), cfg_(cfg), entries_per_way_(cfg.initial_entries_per_way),
      rng_(0xEC8C00C00ull) {
  assert(cfg_.ways >= 2 && cfg_.ways <= 8);
  // Round entries per way up to a power of two for mask hashing.
  std::uint64_t n = 1;
  while (n < entries_per_way_) n <<= 1;
  entries_per_way_ = n;
  ways_ = allocate_ways(entries_per_way_);
  block_bytes_ = block_bytes_for(entries_per_way_);
  block_shift_ = 0;
  while ((1ull << block_shift_) < block_bytes_) ++block_shift_;
}

EchPageTable::~EchPageTable() { release_ways(ways_, entries_per_way_); }

std::uint64_t EchPageTable::block_bytes_for(std::uint64_t epw) {
  const std::uint64_t way_bytes = epw * kPteSize;
  return std::min<std::uint64_t>(std::max<std::uint64_t>(way_bytes, kPageSize),
                                 kChunkBytes);
}

unsigned EchPageTable::block_order_for(std::uint64_t epw) {
  unsigned order = 0;
  while ((kPageSize << order) < block_bytes_for(epw)) ++order;
  return order;
}

std::uint64_t EchPageTable::blocks_per_way(std::uint64_t epw) {
  const std::uint64_t way_bytes = std::max<std::uint64_t>(epw * kPteSize, kPageSize);
  const std::uint64_t bb = block_bytes_for(epw);
  return (way_bytes + bb - 1) / bb;
}

std::vector<EchPageTable::Way> EchPageTable::allocate_ways(std::uint64_t epw) {
  std::vector<Way> ways(cfg_.ways);
  const std::uint64_t blocks = blocks_per_way(epw);
  for (auto& way : ways) {
    way.vpns.assign(epw, 0);
    way.pfns.assign(epw, 0);
    way.valid.assign((epw + 63) / 64, 0);
    for (std::uint64_t b = 0; b < blocks; ++b)
      way.blocks.push_back(pm_.alloc_table_block(block_order_for(epw)));
  }
  return ways;
}

void EchPageTable::release_ways(std::vector<Way>& ways, std::uint64_t epw) {
  for (auto& way : ways) {
    for (Pfn base : way.blocks) pm_.free_table_block(base, block_order_for(epw));
    way.blocks.clear();
  }
}

std::uint64_t EchPageTable::hash(unsigned way, Vpn vpn) const {
  return splitmix64(vpn ^ kWaySeed[way]) & (entries_per_way_ - 1);
}

void EchPageTable::hash_all(Vpn vpn, std::uint64_t* idx) const {
  const std::uint64_t mask = entries_per_way_ - 1;
  for (unsigned w = 0; w < cfg_.ways; ++w)
    idx[w] = splitmix64(vpn ^ kWaySeed[w]) & mask;
}

PhysAddr EchPageTable::slot_addr(unsigned way, std::uint64_t idx) const {
  const Way& w = ways_[way];
  const std::uint64_t byte = idx * kPteSize;
  return frame_base(w.blocks[byte >> block_shift_]) +
         (byte & (block_bytes_ - 1));
}

bool EchPageTable::insert(Vpn vpn, Pfn pfn, unsigned depth_budget) {
  if (vpn < vpn_limit_) {
    // Overwrite if present in any way.
    std::uint64_t idx[8];
    hash_all(vpn, idx);
    for (unsigned w = 0; w < cfg_.ways; ++w) {
      Way& way = ways_[w];
      if (way.is_valid(idx[w]) && way.vpns[idx[w]] == vpn) {
        way.pfns[idx[w]] = pfn;
        return true;
      }
    }
  } else {
    vpn_limit_ = vpn + 1;
  }
  return place(vpn, pfn, depth_budget);
}

bool EchPageTable::place(Vpn vpn, Pfn pfn, unsigned depth_budget) {
  std::uint64_t idx[8];
  Vpn cur_vpn = vpn;
  Pfn cur_pfn = pfn;
  unsigned way = static_cast<unsigned>(rng_.below(cfg_.ways));
  for (unsigned d = 0; d < depth_budget; ++d) {
    // Prefer any empty candidate bucket first.
    hash_all(cur_vpn, idx);
    for (unsigned w = 0; w < cfg_.ways; ++w) {
      Way& wy = ways_[w];
      if (!wy.is_valid(idx[w])) {
        wy.vpns[idx[w]] = cur_vpn;
        wy.pfns[idx[w]] = cur_pfn;
        wy.set_valid(idx[w]);
        ++live_;
        return true;
      }
    }
    // Displace the occupant of a pseudo-random way and re-home it.
    Way& vw = ways_[way];
    std::swap(cur_vpn, vw.vpns[idx[way]]);
    std::swap(cur_pfn, vw.pfns[idx[way]]);
    way = (way + 1 + static_cast<unsigned>(rng_.below(cfg_.ways - 1))) % cfg_.ways;
  }
  // Put the homeless entry back is unnecessary: the displaced chain keeps
  // all *other* entries stored; only (cur_vpn, cur_pfn) is pending. The
  // caller resizes and re-inserts it.
  pending_ = Slot{cur_vpn, cur_pfn, true};
  return false;
}

void EchPageTable::resize() {
  ++resizes_;
  // Allocate the doubled geometry while the current table is still live:
  // block allocation can trigger compaction, whose relocation callbacks
  // consult this table via remap().
  const std::uint64_t new_epw = entries_per_way_ << 1;
  std::vector<Way> new_ways = allocate_ways(new_epw);

  std::vector<Way> old_ways = std::move(ways_);
  const std::uint64_t old_epw = entries_per_way_;
  ways_ = std::move(new_ways);
  entries_per_way_ = new_epw;
  block_bytes_ = block_bytes_for(new_epw);
  block_shift_ = 0;
  while ((1ull << block_shift_) < block_bytes_) ++block_shift_;
  live_ = 0;
  // Re-insert straight from the old ways' valid bits, way-major in
  // ascending slot order, then the pending entry (the order results depend
  // on). Every key is unique, so no presence probe.
  auto rehome = [this](Vpn vpn, Pfn pfn) {
    const bool ok = place(vpn, pfn, cfg_.max_displacements);
    assert(ok && "resize rehash failed — table badly undersized");
    (void)ok;
  };
  for (const Way& way : old_ways)
    for (std::uint64_t w = 0; w < way.valid.size(); ++w)
      for (std::uint64_t bits = way.valid[w]; bits; bits &= bits - 1) {
        const std::uint64_t i = w * 64 + static_cast<unsigned>(__builtin_ctzll(bits));
        rehome(way.vpns[i], way.pfns[i]);
      }
  if (pending_.valid) {
    pending_.valid = false;
    rehome(pending_.vpn, pending_.pfn);
  }
  release_ways(old_ways, old_epw);
}

MapResult EchPageTable::map(Vpn vpn, Pfn pfn, unsigned page_shift) {
  assert(page_shift == kPageShift &&
         "this ECH instantiation stores 4 KB translations");
  (void)page_shift;
  MapResult r;
  if (load_factor() > cfg_.max_load_factor) {
    resize();
    r.nodes_allocated += 1;  // resize charged as one big event
    r.bytes_allocated += table_bytes();
  }
  while (!insert(vpn, pfn, cfg_.max_displacements)) {
    resize();
    r.nodes_allocated += 1;
    r.bytes_allocated += table_bytes();
  }
  return r;
}

bool EchPageTable::unmap(Vpn vpn) {
  for (unsigned w = 0; w < cfg_.ways; ++w) {
    Way& way = ways_[w];
    const std::uint64_t i = hash(w, vpn);
    if (way.is_valid(i) && way.vpns[i] == vpn) {
      way.clear_valid(i);
      --live_;
      return true;
    }
  }
  return false;
}

std::optional<Pfn> EchPageTable::lookup(Vpn vpn) const {
  if (vpn >= vpn_limit_) return std::nullopt;
  std::uint64_t idx[8];
  hash_all(vpn, idx);
  for (unsigned w = 0; w < cfg_.ways; ++w) {
    const Way& way = ways_[w];
    if (way.is_valid(idx[w]) && way.vpns[idx[w]] == vpn)
      return way.pfns[idx[w]];
  }
  return std::nullopt;
}

bool EchPageTable::remap(Vpn vpn, Pfn new_pfn) {
  for (unsigned w = 0; w < cfg_.ways; ++w) {
    Way& way = ways_[w];
    const std::uint64_t i = hash(w, vpn);
    if (way.is_valid(i) && way.vpns[i] == vpn) {
      way.pfns[i] = new_pfn;
      return true;
    }
  }
  return false;
}

void EchPageTable::walk_into(Vpn vpn, WalkPath& path) const {
  path.reset();
  // Probes issue `probe_width` at a time; groups serialize. The default
  // (probe_width 0 / >= ways) keeps every way in one parallel group.
  const unsigned width = cfg_.probe_width && cfg_.probe_width < cfg_.ways
                             ? cfg_.probe_width
                             : cfg_.ways;
  // One hash pass serves both the step layout and the functional lookup —
  // the old code rehashed every way twice per walk.
  std::uint64_t idx[8];
  hash_all(vpn, idx);
  for (unsigned w = 0; w < cfg_.ways; ++w) {
    path.steps.push_back(
        WalkStep{slot_addr(w, idx[w]), WalkStep::kHashLevel, w / width});
  }
  for (unsigned w = 0; w < cfg_.ways; ++w) {
    const Way& way = ways_[w];
    if (way.is_valid(idx[w]) && way.vpns[idx[w]] == vpn) {
      path.mapped = true;
      path.pfn = way.pfns[idx[w]];
      path.page_shift = kPageShift;
      break;
    }
  }
}

std::vector<LevelOccupancy> EchPageTable::occupancy() const {
  LevelOccupancy o;
  o.level = "ECH";
  o.nodes = cfg_.ways;
  o.valid = live_;
  o.capacity = static_cast<std::uint64_t>(cfg_.ways) * entries_per_way_;
  return {o};
}

std::uint64_t EchPageTable::table_bytes() const {
  return static_cast<std::uint64_t>(cfg_.ways) * entries_per_way_ * kPteSize;
}

double EchPageTable::load_factor() const {
  return static_cast<double>(live_) /
         static_cast<double>(static_cast<std::uint64_t>(cfg_.ways) *
                             entries_per_way_);
}

bool EchPageTable::save_state(BlobWriter& out) const {
  out.str("ECH");
  out.u64(cfg_.ways);
  out.u64(entries_per_way_);
  for (const Way& way : ways_) {
    // Column encoding, unchanged since the AoS layout (which transposed on
    // save): vpn and pfn words, valid packed 64/word. The SoA members *are*
    // the columns, so this is three bulk copies.
    out.u64s(way.vpns);
    out.u64s(way.pfns);
    out.u64s(way.valid);
    out.u64s(way.blocks);
  }
  out.u64(pending_.vpn);
  out.u64(pending_.pfn);
  out.u64(pending_.valid ? 1 : 0);
  out.u64(live_);
  out.u64(resizes_);
  std::uint64_t rs[4];
  rng_.save_state(rs);
  out.u64s(rs, 4);
  return true;
}

bool EchPageTable::load_state(BlobReader& in) {
  if (in.str() != "ECH" || in.u64() != cfg_.ways) return false;
  const std::uint64_t epw = in.u64();
  if (!in.ok() || epw == 0 || (epw & (epw - 1)) != 0) return false;
  const unsigned order = block_order_for(epw);
  std::vector<Way> ways(cfg_.ways);
  std::uint64_t valid_slots = 0;
  Vpn limit = 0;
  std::vector<Pfn> bases;
  for (Way& way : ways) {
    way.vpns = in.u64s();
    way.pfns = in.u64s();
    way.valid = in.u64s();
    way.blocks = in.u64s();
    // The blob is bytes read from disk: slot_addr() indexes `blocks`, the
    // valid bits drive live_ (and so every later resize), and the blocks
    // must be distinct, aligned page-table blocks of the restored pool
    // (resize() and the destructor free each one).
    if (!in.ok() || way.vpns.size() != epw || way.pfns.size() != epw ||
        way.valid.size() != (epw + 63) / 64 ||
        way.blocks.size() != blocks_per_way(epw) ||
        (epw % 64 != 0 && (way.valid.back() >> (epw % 64)) != 0))
      return false;
    for (Pfn base : way.blocks) {
      if (base % (1ull << order) != 0) return false;
      for (std::uint64_t f = 0; f < (1ull << order); ++f)
        if (!pm_.is_page_table_frame(base + f)) return false;
      bases.push_back(base);
    }
    for (std::uint64_t w = 0; w < way.valid.size(); ++w)
      for (std::uint64_t bits = way.valid[w]; bits; bits &= bits - 1) {
        ++valid_slots;
        const std::uint64_t i = w * 64 + static_cast<unsigned>(__builtin_ctzll(bits));
        limit = std::max(limit, way.vpns[i] + 1);
      }
  }
  Slot pending;
  pending.vpn = in.u64();
  pending.pfn = in.u64();
  pending.valid = in.u64() != 0;
  const std::uint64_t live = in.u64();
  const std::uint64_t resizes = in.u64();
  const std::vector<std::uint64_t> rs = in.u64s();
  if (!in.ok() || rs.size() != 4 || live != valid_slots) return false;
  std::sort(bases.begin(), bases.end());
  if (std::adjacent_find(bases.begin(), bases.end()) != bases.end())
    return false;
  if (pending.valid) limit = std::max(limit, pending.vpn + 1);
  // The snapshot's blocks replace the constructor's initial allocation
  // wholesale: the restored PhysicalMemory pool already accounts for both
  // (initial blocks freed by the snapshot-time resize, resized blocks live).
  ways_ = std::move(ways);
  entries_per_way_ = epw;
  block_bytes_ = block_bytes_for(epw);
  block_shift_ = 0;
  while ((1ull << block_shift_) < block_bytes_) ++block_shift_;
  pending_ = pending;
  live_ = live;
  vpn_limit_ = limit;
  resizes_ = resizes;
  rng_.load_state(rs.data());
  return true;
}

}  // namespace ndp
