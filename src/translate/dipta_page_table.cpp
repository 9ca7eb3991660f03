#include "translate/dipta_page_table.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace ndp {

namespace {
// One 8 B tag word per set (way tags packed): the whole tag array for a
// 16 GB machine is 8 MB, stored in real order-9 table blocks.
constexpr std::uint64_t kTagBytesPerSet = 8;
constexpr std::uint64_t kBlockBytes = 2ull << 20;
constexpr unsigned kBlockOrder = 9;
}  // namespace

DiptaPageTable::DiptaPageTable(PhysicalMemory& pm, DiptaConfig cfg)
    : pm_(pm), cfg_(cfg) {
  assert(cfg_.ways >= 1 && cfg_.ways <= 16);
  const std::uint64_t frames =
      cfg_.coverage_frames ? cfg_.coverage_frames : pm.num_frames();
  num_sets_ = frames / cfg_.ways;
  assert(num_sets_ > 0);
  const std::uint64_t tag_bytes = num_sets_ * kTagBytesPerSet;
  const std::uint64_t blocks = (tag_bytes + kBlockBytes - 1) / kBlockBytes;
  for (std::uint64_t b = 0; b < blocks; ++b)
    tag_blocks_.push_back(pm_.alloc_table_block(kBlockOrder));
}

DiptaPageTable::~DiptaPageTable() {
  for (Pfn base : tag_blocks_) pm_.free_table_block(base, kBlockOrder);
}

PhysAddr DiptaPageTable::tag_addr(std::uint64_t set) const {
  const std::uint64_t byte = set * kTagBytesPerSet;
  return frame_base(tag_blocks_[byte / kBlockBytes]) + (byte % kBlockBytes);
}

DiptaPageTable::Way* DiptaPageTable::find(Vpn vpn) {
  return const_cast<Way*>(std::as_const(*this).find(vpn));
}

const DiptaPageTable::Way* DiptaPageTable::find(Vpn vpn) const {
  const std::uint64_t* block = blocks_.find(set_of(vpn));
  if (!block) return nullptr;
  const Way* base = &ways_[*block >> 1];
  for (unsigned w = 0; w < block_ways(*block); ++w)
    if (base[w].lru != 0 && base[w].vpn == vpn) return &base[w];
  return nullptr;
}

MapResult DiptaPageTable::map(Vpn vpn, Pfn pfn, unsigned page_shift) {
  assert(page_shift == kPageShift && "DIPTA places 4 KB pages");
  (void)page_shift;
  MapResult r;
  ++tick_;
  const std::uint64_t set = set_of(vpn);
  const std::uint64_t* block = blocks_.find(set);
  if (!block) {
    // First page of this set: a one-way block.
    blocks_.insert_or_assign(set, ways_.size() << 1);
    ways_.push_back(Way{vpn, pfn, tick_});
    ++live_;
    return r;
  }
  Way* base = &ways_[*block >> 1];
  const unsigned n = block_ways(*block);
  // Refresh if present.
  for (unsigned w = 0; w < n; ++w) {
    if (base[w].lru != 0 && base[w].vpn == vpn) {
      base[w].pfn = pfn;
      base[w].lru = tick_;
      r.replaced = true;
      return r;
    }
  }
  // First empty way, else evict the set's LRU page (an OS-level conflict:
  // the displaced translation is simply lost, like an eviction to swap).
  Way* victim = base;
  for (unsigned w = 1; w < n; ++w)
    if (base[w].lru < victim->lru) victim = &base[w];
  if (victim->lru != 0 && n < cfg_.ways) {
    // Second page of a one-way set: move it to a block of all its ways,
    // whose way 1 is the set's first empty way.
    const std::uint64_t at = ways_.size();
    ways_.resize(at + cfg_.ways);
    ways_[at] = ways_[*block >> 1];
    blocks_.insert_or_assign(set, at << 1 | kFullBlock);
    victim = &ways_[at + 1];
  }
  if (victim->lru != 0) {
    ++conflict_evictions_;
    --live_;
    r.evicted = {victim->vpn, victim->pfn};
  }
  *victim = Way{vpn, pfn, tick_};
  ++live_;
  return r;
}

bool DiptaPageTable::unmap(Vpn vpn) {
  Way* way = find(vpn);
  if (!way) return false;
  way->lru = 0;
  --live_;
  return true;
}

std::optional<Pfn> DiptaPageTable::lookup(Vpn vpn) const {
  if (const Way* way = find(vpn)) return way->pfn;
  return std::nullopt;
}

bool DiptaPageTable::remap(Vpn vpn, Pfn new_pfn) {
  Way* way = find(vpn);
  if (!way) return false;
  way->pfn = new_pfn;
  return true;
}

void DiptaPageTable::walk_into(Vpn vpn, WalkPath& path) const {
  // One access to the set's way-tag word resolves the translation.
  path.reset();
  path.steps.push_back(WalkStep{tag_addr(set_of(vpn)), WalkStep::kHashLevel, 0});
  if (auto pfn = lookup(vpn)) {
    path.mapped = true;
    path.pfn = *pfn;
    path.page_shift = kPageShift;
  }
}

void DiptaPageTable::reserve(std::uint64_t pages) {
  // A page opens at most one set, adding one way. Or it is a set's second
  // page and adds a full block: at most one page in two does that, and a
  // set holds at most its one-way block and its full block.
  const std::uint64_t sets = std::min(num_sets_, blocks_.size() + pages);
  blocks_.reserve(sets);
  ways_.reserve(std::min(ways_.size() + pages + pages / 2 * cfg_.ways,
                         sets * (1 + cfg_.ways)));
}

std::vector<LevelOccupancy> DiptaPageTable::occupancy() const {
  LevelOccupancy o;
  o.level = "DIPTA";
  o.nodes = num_sets_;
  o.valid = live_;
  o.capacity = num_sets_ * cfg_.ways;
  return {o};
}

std::uint64_t DiptaPageTable::table_bytes() const {
  return tag_blocks_.size() * kBlockBytes;
}

bool DiptaPageTable::save_state(BlobWriter& out) const {
  // The filled sets in ascending order, then their ways as columns: the
  // blob is a function of the table's state, not of its fill order.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> filled;
  filled.reserve(blocks_.size());
  blocks_.for_each([&](std::uint64_t set, std::uint64_t block) {
    filled.emplace_back(set, block);
  });
  std::sort(filled.begin(), filled.end());
  const std::size_t n = filled.size() * cfg_.ways;
  out.reserve(16 + filled.size() + 3 * n + tag_blocks_.size());
  out.str("DIPTA");
  out.u64(cfg_.ways);
  out.u64(num_sets_);
  out.u64(filled.size());
  for (const auto& [set, block] : filled) out.u64(set);
  for (std::uint64_t Way::*field : {&Way::vpn, &Way::pfn, &Way::lru}) {
    out.u64(n);
    for (std::size_t i = 0; i < filled.size(); ++i) {
      // The blocks sit in fill order: fetch a few sets ahead.
      if (i + 8 < filled.size())
        __builtin_prefetch(&ways_[filled[i + 8].second >> 1]);
      const Way* base = &ways_[filled[i].second >> 1];
      const unsigned ways = block_ways(filled[i].second);
      for (unsigned w = 0; w < cfg_.ways; ++w)
        out.u64(w < ways ? base[w].*field : 0);
    }
  }
  out.u64s(tag_blocks_);
  out.u64(tick_);
  out.u64(live_);
  out.u64(conflict_evictions_);
  return true;
}

bool DiptaPageTable::load_state(BlobReader& in) {
  if (in.str() != "DIPTA" || in.u64() != cfg_.ways || in.u64() != num_sets_)
    return false;
  const std::vector<std::uint64_t> sets = in.u64s();
  const std::vector<std::uint64_t> vpns = in.u64s();
  const std::vector<std::uint64_t> pfns = in.u64s();
  const std::vector<std::uint64_t> lrus = in.u64s();
  const std::vector<std::uint64_t> tags = in.u64s();
  const std::uint64_t tick = in.u64();
  const std::uint64_t live = in.u64();
  const std::uint64_t conflicts = in.u64();
  const std::uint64_t n = sets.size() * cfg_.ways;
  if (!in.ok() || vpns.size() != n || pfns.size() != n || lrus.size() != n ||
      tags.size() != tag_blocks_.size())
    return false;
  // Set ids strictly ascending (so unique) and in range; live_ must count
  // exactly the occupied ways.
  for (std::size_t i = 0; i < sets.size(); ++i)
    if (sets[i] >= num_sets_ || (i > 0 && sets[i] <= sets[i - 1]))
      return false;
  if (static_cast<std::uint64_t>(std::count_if(
          lrus.begin(), lrus.end(), [](std::uint64_t l) { return l != 0; })) !=
      live)
    return false;
  // A set whose ways past the first are all zero, as save_state writes a
  // one-way block, gets a one-way block again.
  FlatU64Map blocks;
  blocks.reserve(sets.size());
  std::vector<Way> ways;
  ways.reserve(n);
  for (std::size_t i = 0; i < sets.size(); ++i) {
    if (i + 8 < sets.size()) blocks.prefetch(sets[i + 8]);
    const std::size_t at = i * cfg_.ways;
    bool one_way = true;
    for (unsigned w = 1; w < cfg_.ways; ++w)
      one_way &= (vpns[at + w] | pfns[at + w] | lrus[at + w]) == 0;
    blocks.insert_or_assign(sets[i],
                            ways.size() << 1 | (one_way ? 0 : kFullBlock));
    for (unsigned w = 0; w < (one_way ? 1 : cfg_.ways); ++w)
      ways.push_back(Way{vpns[at + w], pfns[at + w], lrus[at + w]});
  }
  blocks_ = std::move(blocks);
  ways_ = std::move(ways);
  tag_blocks_ = tags;
  tick_ = tick;
  live_ = live;
  conflict_evictions_ = conflicts;
  return true;
}

}  // namespace ndp
