#include "core/flat_page_table.h"

#include <cassert>

namespace ndp {

FlatPageTable::FlatPageTable(PhysicalMemory& pm) : pm_(pm) {
  root_.frame = pm_.alloc_frame(FrameUse::kPageTable);
}

FlatPageTable::~FlatPageTable() {
  pm_.free_frame(root_.frame);
  for (const auto& n : l3_nodes_) pm_.free_frame(n->frame);
  for (const auto& f : flat_nodes_)
    pm_.free_table_block(f->base_frame, kFlatBlockOrder);
}

FlatPageTable::FlatNode* FlatPageTable::find_flat(Vpn vpn) const {
  const std::uint32_t l3_id = root_.child[l4_index(vpn)];
  if (l3_id == 0) return nullptr;
  const RadixNode& l3 = *l3_nodes_[l3_id - 1];
  const std::uint32_t flat_id = l3.child[l3_index(vpn)];
  if (flat_id == 0) return nullptr;
  return flat_nodes_[flat_id - 1].get();
}

FlatPageTable::FlatNode& FlatPageTable::get_or_create_flat(Vpn vpn,
                                                           MapResult* out) {
  std::uint32_t& l3_slot = root_.child[l4_index(vpn)];
  if (l3_slot == 0) {
    auto node = std::make_unique<RadixNode>();
    node->frame = pm_.alloc_frame(FrameUse::kPageTable);
    l3_nodes_.push_back(std::move(node));
    l3_slot = static_cast<std::uint32_t>(l3_nodes_.size());
    ++root_.valid;
    if (out) {
      ++out->nodes_allocated;
      out->bytes_allocated += kPageSize;
    }
  }
  RadixNode& l3 = *l3_nodes_[l3_slot - 1];
  std::uint32_t& flat_slot = l3.child[l3_index(vpn)];
  if (flat_slot == 0) {
    auto node = std::make_unique<FlatNode>();
    node->base_frame = pm_.alloc_table_block(kFlatBlockOrder);
    flat_nodes_.push_back(std::move(node));
    flat_slot = static_cast<std::uint32_t>(flat_nodes_.size());
    ++l3.valid;
    if (out) {
      ++out->nodes_allocated;
      // A flattened node is a 2 MB structure; zeroing it is the cost the
      // paper accepts for fewer walk accesses (\"overall impact minimal\").
      out->bytes_allocated += kFlatEntries * kPteSize;
    }
  }
  return *flat_nodes_[flat_slot - 1];
}

MapResult FlatPageTable::map(Vpn vpn, Pfn pfn, unsigned page_shift) {
  assert(page_shift == kPageShift &&
         "NDPage's flattened table maps 4 KB pages (paper §V-B: it keeps "
         "4 KB flexibility instead of huge pages)");
  (void)page_shift;
  MapResult r;
  FlatNode& node = get_or_create_flat(vpn, &r);
  std::uint64_t& e = node.ent[flat_index(vpn)];
  if (e & 1ull) r.replaced = true; else ++node.valid;
  e = (pfn << 1) | 1ull;
  return r;
}

std::uint64_t FlatPageTable::run_span(Vpn vpn) const {
  return find_flat(vpn) ? kFlatEntries - flat_index(vpn) : 0;
}

void FlatPageTable::map_run(Vpn first, std::uint64_t count, const Pfn* pfns) {
  assert(count <= run_span(first));
  FlatNode& node = *find_flat(first);
  std::uint64_t* e = &node.ent[flat_index(first)];
  for (std::uint64_t i = 0; i < count; ++i) {
    if (!(e[i] & 1ull)) ++node.valid;
    e[i] = (pfns[i] << 1) | 1ull;
  }
}

bool FlatPageTable::unmap(Vpn vpn) {
  FlatNode* node = find_flat(vpn);
  if (!node) return false;
  std::uint64_t& e = node->ent[flat_index(vpn)];
  if (!(e & 1ull)) return false;
  e = 0;
  --node->valid;
  return true;
}

std::optional<Pfn> FlatPageTable::lookup(Vpn vpn) const {
  const FlatNode* node = find_flat(vpn);
  if (!node) return std::nullopt;
  const std::uint64_t e = node->ent[flat_index(vpn)];
  if (!(e & 1ull)) return std::nullopt;
  return e >> 1;
}

bool FlatPageTable::remap(Vpn vpn, Pfn new_pfn) {
  FlatNode* node = find_flat(vpn);
  if (!node) return false;
  std::uint64_t& e = node->ent[flat_index(vpn)];
  if (!(e & 1ull)) return false;
  e = (new_pfn << 1) | 1ull;
  return true;
}

void FlatPageTable::walk_into(Vpn vpn, WalkPath& path) const {
  path.reset();
  unsigned group = 0;
  // L4 entry.
  path.steps.push_back(WalkStep{
      frame_base(root_.frame) + static_cast<PhysAddr>(l4_index(vpn)) * kPteSize,
      4, group++});
  const std::uint32_t l3_id = root_.child[l4_index(vpn)];
  if (l3_id == 0) return;
  const RadixNode& l3 = *l3_nodes_[l3_id - 1];
  // L3 entry.
  path.steps.push_back(WalkStep{
      frame_base(l3.frame) + static_cast<PhysAddr>(l3_index(vpn)) * kPteSize,
      3, group++});
  const std::uint32_t flat_id = l3.child[l3_index(vpn)];
  if (flat_id == 0) return;
  const FlatNode& flat = *flat_nodes_[flat_id - 1];
  // Flattened L2/L1 entry: 18 index bits into the 2 MB node.
  path.steps.push_back(WalkStep{
      frame_base(flat.base_frame) +
          static_cast<PhysAddr>(flat_index(vpn)) * kPteSize,
      WalkStep::kFlatLevel, group++});
  const std::uint64_t e = flat.ent[flat_index(vpn)];
  if (e & 1ull) {
    path.mapped = true;
    path.pfn = e >> 1;
    path.page_shift = kPageShift;
  }
  return;
}

std::vector<LevelOccupancy> FlatPageTable::occupancy() const {
  LevelOccupancy l4{"PL4", 1, root_.valid, kPtesPerNode};
  LevelOccupancy l3{"PL3", 0, 0, 0};
  for (const auto& n : l3_nodes_) {
    ++l3.nodes;
    l3.valid += n->valid;
    l3.capacity += kPtesPerNode;
  }
  LevelOccupancy flat{"PL2/PL1", 0, 0, 0};
  for (const auto& f : flat_nodes_) {
    ++flat.nodes;
    flat.valid += f->valid;
    flat.capacity += kFlatEntries;
  }
  return {l4, l3, flat};
}

std::uint64_t FlatPageTable::table_bytes() const {
  return kPageSize * (1 + l3_nodes_.size()) +
         flat_nodes_.size() * (kFlatEntries * kPteSize);
}

bool FlatPageTable::save_state(BlobWriter& out) const {
  out.str("NDPageFlat");
  out.u64(root_.frame);
  out.u64(root_.valid);
  out.bytes(root_.child.data(), sizeof root_.child);
  out.u64(l3_nodes_.size());
  for (const auto& n : l3_nodes_) {
    out.u64(n->frame);
    out.u64(n->valid);
    out.bytes(n->child.data(), sizeof n->child);
  }
  out.u64(flat_nodes_.size());
  for (const auto& f : flat_nodes_) {
    out.u64(f->base_frame);
    out.u64(f->valid);
    out.u64s(f->ent);
  }
  return true;
}

bool FlatPageTable::load_state(BlobReader& in) {
  if (in.str() != "NDPageFlat") return false;
  RadixNode root;
  root.frame = in.u64();
  root.valid = static_cast<std::uint32_t>(in.u64());
  if (!in.bytes(root.child.data(), sizeof root.child)) return false;
  const std::uint64_t n_l3 = in.u64();
  if (!in.ok() || n_l3 > in.remaining()) return false;
  std::vector<std::unique_ptr<RadixNode>> l3;
  l3.reserve(n_l3);
  for (std::uint64_t i = 0; i < n_l3 && in.ok(); ++i) {
    auto n = std::make_unique<RadixNode>();
    n->frame = in.u64();
    n->valid = static_cast<std::uint32_t>(in.u64());
    if (!in.bytes(n->child.data(), sizeof n->child)) return false;
    l3.push_back(std::move(n));
  }
  const std::uint64_t n_flat = in.u64();
  if (!in.ok() || n_flat > in.remaining()) return false;
  std::vector<std::unique_ptr<FlatNode>> flat;
  flat.reserve(n_flat);
  for (std::uint64_t i = 0; i < n_flat && in.ok(); ++i) {
    auto f = std::make_unique<FlatNode>();
    f->base_frame = in.u64();
    f->valid = in.u64();
    f->ent = in.u64s();
    if (f->ent.size() != kFlatEntries) return false;
    flat.push_back(std::move(f));
  }
  if (!in.ok()) return false;
  root_ = root;
  l3_nodes_ = std::move(l3);
  flat_nodes_ = std::move(flat);
  return true;
}

}  // namespace ndp
