// x86-64 radix page table (the paper's Radix baseline) and its huge-page
// variant (the Huge Page baseline).
//
// Nodes are real 4 KB frames obtained from PhysicalMemory and tagged
// FrameUse::kPageTable, so every PTE has a genuine physical address. Entries
// are encoded like hardware PTEs: present bit, PS (leaf) bit, and a payload
// (child node id for interior entries, PFN for leaves).
//
// leaf_level == 1 gives the classic 4-level table with 4 KB pages;
// leaf_level == 2 gives the Huge Page configuration (2 MB leaves at PL2)
// while still allowing 4 KB "splinter" mappings beneath an L1 node when the
// OS could not assemble a contiguous 2 MB block.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "os/phys_mem.h"
#include "translate/page_table.h"

namespace ndp {

class RadixPageTable : public PageTable {
 public:
  /// `preferred_leaf_level`: 1 => 4 KB pages only; 2 => huge-page mode.
  RadixPageTable(PhysicalMemory& pm, unsigned preferred_leaf_level = 1);
  ~RadixPageTable() override;

  MapResult map(Vpn vpn, Pfn pfn, unsigned page_shift = kPageShift) override;
  bool unmap(Vpn vpn) override;
  std::optional<Pfn> lookup(Vpn vpn) const override;
  bool remap(Vpn vpn, Pfn new_pfn) override;
  void walk_into(Vpn vpn, WalkPath& out) const override;
  /// Sizes the node store for `pages` more 4 KB pages: one leaf per 512
  /// pages, their interior nodes, and a few partial nodes at region edges.
  void reserve(std::uint64_t pages) override;
  /// With 4 KB leaves, up to the end of vpn's leaf node when that node
  /// exists. Huge-page mode answers 0 and maps page by page.
  std::uint64_t run_span(Vpn vpn) const override;
  void map_run(Vpn first, std::uint64_t count, const Pfn* pfns) override;
  std::vector<LevelOccupancy> occupancy() const override;
  std::string name() const override;
  std::uint64_t table_bytes() const override;
  bool save_state(BlobWriter& out) const override;
  bool load_state(BlobReader& in) override;

  unsigned preferred_leaf_level() const { return leaf_level_; }
  std::uint64_t node_count() const { return nodes_.size(); }

 private:
  // Hardware-style entry encoding in one u64.
  static constexpr std::uint64_t kPresent = 1ull << 0;
  static constexpr std::uint64_t kLeaf = 1ull << 7;  // PS bit position
  static constexpr std::uint64_t payload(std::uint64_t e) { return e >> 12; }
  static constexpr std::uint64_t encode(std::uint64_t pay, bool leaf) {
    return (pay << 12) | (leaf ? kLeaf : 0) | kPresent;
  }

  struct Node {
    Pfn frame = 0;
    unsigned level = 0;
    std::uint32_t valid = 0;  ///< live entry count (occupancy accounting)
    std::array<std::uint64_t, kPtesPerNode> ent{};
  };

  std::uint32_t alloc_node(unsigned level);
  PhysAddr entry_addr(const Node& n, unsigned idx) const {
    return frame_base(n.frame) + static_cast<PhysAddr>(idx) * kPteSize;
  }
  /// Descend to the node at `level` for vpn, creating missing interior
  /// nodes when `create` (counts allocations into `out`).
  std::uint32_t descend(Vpn vpn, unsigned level, bool create, MapResult* out);
  /// The L1 node holding vpn's 4 KB entry, or UINT32_MAX when the path to
  /// it is missing or ends in a 2 MB leaf.
  std::uint32_t leaf_node(Vpn vpn) const;

  PhysicalMemory& pm_;
  unsigned leaf_level_;
  std::vector<Node> nodes_;  ///< never shrinks: no node is freed before teardown
  std::uint32_t root_;
};

}  // namespace ndp
