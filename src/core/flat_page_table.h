// NDPage's flattened L2/L1 page table (paper §V-B).
//
// The last two radix levels merge into a single node of
// 2^9 x 2^9 = 262,144 entries indexed by 18 virtual-address bits, stored in
// one physically contiguous 2 MB region (a buddy order-9 block). A walk is
// three sequential PTE reads — L4, L3, flattened L2/L1 — instead of four,
// and the L4/L3 reads are almost always absorbed by their PWCs, leaving a
// single (bypassed) memory access per walk.
//
// The "flattened" marker bit the paper adds to control registers and PTEs
// is represented structurally: L3 entries point at FlatNode objects, and
// WalkPath steps carry WalkStep::kFlatLevel so the walker selects 18 index
// bits — exactly the hardware behaviour the bit enables.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "os/phys_mem.h"
#include "translate/page_table.h"

namespace ndp {

class FlatPageTable : public PageTable {
 public:
  static constexpr unsigned kFlatBits = 18;
  static constexpr std::uint64_t kFlatEntries = 1ull << kFlatBits;  // 262,144
  static constexpr unsigned kFlatBlockOrder = 9;  ///< 2 MB contiguous node

  explicit FlatPageTable(PhysicalMemory& pm);
  ~FlatPageTable() override;

  MapResult map(Vpn vpn, Pfn pfn, unsigned page_shift = kPageShift) override;
  bool unmap(Vpn vpn) override;
  std::optional<Pfn> lookup(Vpn vpn) const override;
  bool remap(Vpn vpn, Pfn new_pfn) override;
  void walk_into(Vpn vpn, WalkPath& out) const override;
  /// Up to the end of vpn's flattened node when that node exists.
  std::uint64_t run_span(Vpn vpn) const override;
  void map_run(Vpn first, std::uint64_t count, const Pfn* pfns) override;
  std::vector<LevelOccupancy> occupancy() const override;
  std::string name() const override { return "NDPageFlat"; }
  std::uint64_t table_bytes() const override;
  bool save_state(BlobWriter& out) const override;
  bool load_state(BlobReader& in) override;

  std::uint64_t flat_node_count() const { return flat_nodes_.size(); }

 private:
  struct RadixNode {
    Pfn frame = 0;
    std::uint32_t valid = 0;
    std::array<std::uint32_t, kPtesPerNode> child{};  ///< id+1; 0 = empty
  };
  struct FlatNode {
    Pfn base_frame = 0;  ///< order-9 block base
    std::uint64_t valid = 0;
    std::vector<std::uint64_t> ent;  ///< (pfn<<1)|present
    FlatNode() : ent(kFlatEntries, 0) {}
  };

  /// Index of the L3 node slot and flat node for a vpn.
  static unsigned l4_index(Vpn vpn) { return radix_index(vpn, 4); }
  static unsigned l3_index(Vpn vpn) { return radix_index(vpn, 3); }

  FlatNode* find_flat(Vpn vpn) const;
  FlatNode& get_or_create_flat(Vpn vpn, MapResult* out);

  PhysicalMemory& pm_;
  RadixNode root_;                       ///< the single L4 node
  std::vector<std::unique_ptr<RadixNode>> l3_nodes_;
  std::vector<std::unique_ptr<FlatNode>> flat_nodes_;
};

}  // namespace ndp
