#include "translate/radix_page_table.h"

#include <algorithm>
#include <cassert>

namespace ndp {

RadixPageTable::RadixPageTable(PhysicalMemory& pm, unsigned preferred_leaf_level)
    : pm_(pm), leaf_level_(preferred_leaf_level) {
  assert(leaf_level_ == 1 || leaf_level_ == 2);
  root_ = alloc_node(4);
}

RadixPageTable::~RadixPageTable() {
  // Frames go back to the OS pool so repeated experiments in one process
  // don't leak physical memory.
  for (const Node& n : nodes_) pm_.free_frame(n.frame);
}

std::uint32_t RadixPageTable::alloc_node(unsigned level) {
  const auto id = static_cast<std::uint32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_[id].frame = pm_.alloc_frame(FrameUse::kPageTable);
  nodes_[id].level = level;
  return id;
}

void RadixPageTable::reserve(std::uint64_t pages) {
  constexpr std::uint64_t kEdgeNodes = 64;
  nodes_.reserve(nodes_.size() + pages / kPtesPerNode +
                 pages / (kPtesPerNode * kPtesPerNode) + kEdgeNodes);
}

std::uint32_t RadixPageTable::descend(Vpn vpn, unsigned level, bool create,
                                      MapResult* out) {
  std::uint32_t cur = root_;
  for (unsigned l = 4; l > level; --l) {
    const unsigned idx = radix_index(vpn, l);
    std::uint64_t& e = nodes_[cur].ent[idx];
    if (!(e & kPresent)) {
      if (!create) return UINT32_MAX;
      const std::uint32_t child = alloc_node(l - 1);
      // alloc_node may reallocate nodes_, so re-take the entry reference.
      nodes_[cur].ent[idx] = encode(child, /*leaf=*/false);
      ++nodes_[cur].valid;
      if (out) {
        ++out->nodes_allocated;
        out->bytes_allocated += kPageSize;
      }
      cur = child;
      continue;
    }
    assert(!(e & kLeaf) && "descending through a leaf entry");
    cur = static_cast<std::uint32_t>(payload(e));
  }
  return cur;
}

std::uint32_t RadixPageTable::leaf_node(Vpn vpn) const {
  std::uint32_t cur = root_;
  for (unsigned l = 4; l > 1; --l) {
    const std::uint64_t e = nodes_[cur].ent[radix_index(vpn, l)];
    if (!(e & kPresent) || (e & kLeaf)) return UINT32_MAX;
    cur = static_cast<std::uint32_t>(payload(e));
  }
  return cur;
}

std::uint64_t RadixPageTable::run_span(Vpn vpn) const {
  if (leaf_level_ != 1 || leaf_node(vpn) == UINT32_MAX) return 0;
  return kPtesPerNode - radix_index(vpn, 1);
}

void RadixPageTable::map_run(Vpn first, std::uint64_t count,
                             const Pfn* pfns) {
  assert(count <= run_span(first));
  Node& leaf = nodes_[leaf_node(first)];
  std::uint64_t* e = &leaf.ent[radix_index(first, 1)];
  for (std::uint64_t i = 0; i < count; ++i) {
    if (!(e[i] & kPresent)) ++leaf.valid;
    e[i] = encode(pfns[i], /*leaf=*/true);
  }
}

MapResult RadixPageTable::map(Vpn vpn, Pfn pfn, unsigned page_shift) {
  MapResult r;
  if (page_shift == kHugePageShift) {
    assert(leaf_level_ == 2 && "2 MB mappings need huge-page mode");
    assert((vpn & 0x1FFull) == 0 && "huge mapping must be 2 MB aligned");
    const std::uint32_t node = descend(vpn, 2, true, &r);
    std::uint64_t& e = nodes_[node].ent[radix_index(vpn, 2)];
    if (e & kPresent) r.replaced = true; else ++nodes_[node].valid;
    e = encode(pfn, /*leaf=*/true);
    return r;
  }

  assert(page_shift == kPageShift);
  // 4 KB mapping: needs an L1 node. In huge-page mode this is a splinter
  // under an L2 interior entry.
  const std::uint32_t l2 = descend(vpn, 2, true, &r);
  const unsigned i2 = radix_index(vpn, 2);
  std::uint64_t e2 = nodes_[l2].ent[i2];
  assert(!(e2 & kLeaf) && "4 KB map under an existing 2 MB leaf");
  std::uint32_t l1;
  if (!(e2 & kPresent)) {
    l1 = alloc_node(1);
    nodes_[l2].ent[i2] = encode(l1, /*leaf=*/false);
    ++nodes_[l2].valid;
    ++r.nodes_allocated;
    r.bytes_allocated += kPageSize;
  } else {
    l1 = static_cast<std::uint32_t>(payload(e2));
  }
  std::uint64_t& e1 = nodes_[l1].ent[radix_index(vpn, 1)];
  if (e1 & kPresent) r.replaced = true; else ++nodes_[l1].valid;
  e1 = encode(pfn, /*leaf=*/true);
  return r;
}

bool RadixPageTable::unmap(Vpn vpn) {
  std::uint32_t cur = root_;
  for (unsigned l = 4; l >= 1; --l) {
    const unsigned idx = radix_index(vpn, l);
    std::uint64_t& e = nodes_[cur].ent[idx];
    if (!(e & kPresent)) return false;
    if (e & kLeaf) {
      e = 0;
      --nodes_[cur].valid;
      return true;
    }
    if (l == 1) {
      e = 0;
      --nodes_[cur].valid;
      return true;
    }
    cur = static_cast<std::uint32_t>(payload(e));
  }
  return false;
}

std::optional<Pfn> RadixPageTable::lookup(Vpn vpn) const {
  std::uint32_t cur = root_;
  for (unsigned l = 4; l >= 1; --l) {
    const std::uint64_t e = nodes_[cur].ent[radix_index(vpn, l)];
    if (!(e & kPresent)) return std::nullopt;
    if (e & kLeaf) {
      const Pfn base = payload(e);
      if (l == 2) return base + (vpn & 0x1FFull);  // offset inside 2 MB page
      return base;
    }
    if (l == 1) return payload(e);
    cur = static_cast<std::uint32_t>(payload(e));
  }
  return std::nullopt;
}

bool RadixPageTable::remap(Vpn vpn, Pfn new_pfn) {
  std::uint32_t cur = root_;
  for (unsigned l = 4; l >= 1; --l) {
    std::uint64_t& e = nodes_[cur].ent[radix_index(vpn, l)];
    if (!(e & kPresent)) return false;
    if ((e & kLeaf) || l == 1) {
      assert(l == 1 && "compaction never moves 2 MB blocks");
      e = encode(new_pfn, /*leaf=*/true);
      return true;
    }
    cur = static_cast<std::uint32_t>(payload(e));
  }
  return false;
}

void RadixPageTable::walk_into(Vpn vpn, WalkPath& path) const {
  path.reset();
  std::uint32_t cur = root_;
  unsigned group = 0;
  for (unsigned l = 4; l >= 1; --l) {
    const unsigned idx = radix_index(vpn, l);
    const std::uint64_t e = nodes_[cur].ent[idx];
    path.steps.push_back(WalkStep{entry_addr(nodes_[cur], idx), l, group++});
    if (!(e & kPresent)) return;  // faults here; steps show the visit
    if (l == 1) {
      path.mapped = true;
      path.page_shift = kPageShift;
      path.pfn = payload(e);
      return;
    }
    if (e & kLeaf) {
      path.mapped = true;
      path.page_shift = kHugePageShift;
      path.pfn = payload(e) + (vpn & 0x1FFull);
      return;
    }
    cur = static_cast<std::uint32_t>(payload(e));
  }
  return;
}

std::vector<LevelOccupancy> RadixPageTable::occupancy() const {
  std::array<LevelOccupancy, 4> per{};
  per[0].level = "PL1";
  per[1].level = "PL2";
  per[2].level = "PL3";
  per[3].level = "PL4";
  for (const Node& n : nodes_) {
    LevelOccupancy& o = per[n.level - 1];
    ++o.nodes;
    o.valid += n.valid;
    o.capacity += kPtesPerNode;
  }
  return {per[3], per[2], per[1], per[0]};
}

std::string RadixPageTable::name() const {
  return leaf_level_ == 1 ? "Radix4" : "HugePageRadix";
}

std::uint64_t RadixPageTable::table_bytes() const {
  return node_count() * kPageSize;
}

bool RadixPageTable::save_state(BlobWriter& out) const {
  out.str("Radix");
  out.u64(leaf_level_);
  out.u64(root_);
  out.u64(nodes_.size());
  for (const Node& n : nodes_) {
    out.u64(n.frame);
    out.u64(n.level);
    out.u64(n.valid);
    out.u64s(n.ent.data(), n.ent.size());
  }
  // The blob keeps the (always empty) free-node list of earlier formats.
  out.u64s(std::vector<std::uint64_t>{});
  return true;
}

bool RadixPageTable::load_state(BlobReader& in) {
  if (in.str() != "Radix" || in.u64() != leaf_level_) return false;
  const auto root = static_cast<std::uint32_t>(in.u64());
  const std::uint64_t count = in.u64();
  // Each node occupies > kPtesPerNode words, so `count <= remaining` is a
  // safe allocation guard against a corrupt length prefix.
  if (!in.ok() || count > in.remaining()) return false;
  std::vector<Node> nodes;
  nodes.reserve(count);
  for (std::uint64_t i = 0; i < count && in.ok(); ++i) {
    Node n;
    n.frame = in.u64();
    n.level = static_cast<unsigned>(in.u64());
    n.valid = static_cast<std::uint32_t>(in.u64());
    const std::vector<std::uint64_t> ent = in.u64s();
    if (ent.size() != n.ent.size()) return false;
    std::copy(ent.begin(), ent.end(), n.ent.begin());
    nodes.push_back(std::move(n));
  }
  const std::vector<std::uint64_t> free_ids = in.u64s();
  if (!in.ok() || root >= count || !free_ids.empty()) return false;
  nodes_ = std::move(nodes);
  root_ = root;
  return true;
}

}  // namespace ndp
