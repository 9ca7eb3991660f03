// Elastic Cuckoo Hash page table (Skarlatos et al., ASPLOS'20) — the
// paper's strongest baseline ("ECH").
//
// Translations live in a d-way cuckoo hash table in physical memory. A walk
// probes one bucket per way; all d probes are independent, so the hardware
// issues them in parallel — that is ECH's latency advantage over the radix
// walk and is expressed here as d WalkSteps sharing group 0.
//
// Insertion uses BFS-free classic cuckoo displacement with a bounded loop;
// when the loop exceeds its bound the table resizes (double capacity and
// rehash). The original proposal resizes gradually ("elastically"); we
// substitute a stop-the-world rehash and charge its cost to the OS — the
// difference is invisible to steady-state walk timing, which is what the
// paper measures.
//
// Way storage is allocated from PhysicalMemory in max-order buddy chunks and
// tagged kPageTable, so bucket PTE addresses are real physical addresses.
//
// Results depend on where every entry lands (a walk's probe addresses) and
// on the RNG draws of every displacement, so the rehash order is part of
// the model: resize() re-inserts the old ways' entries way-major in
// ascending slot order, then the entry a failed insert left pending.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "os/phys_mem.h"
#include "translate/page_table.h"

namespace ndp {

struct EchConfig {
  unsigned ways = 3;
  /// How many bucket probes the walker hardware issues in parallel: probes
  /// go out in groups of `probe_width`, groups serialize. 0 (or >= ways)
  /// means all ways probe concurrently — the classic ECH configuration.
  unsigned probe_width = 0;
  std::uint64_t initial_entries_per_way = 1ull << 15;  ///< 32 K (grows)
  double max_load_factor = 0.6;  ///< resize above this occupancy
  unsigned max_displacements = 32;
};

class EchPageTable : public PageTable {
 public:
  EchPageTable(PhysicalMemory& pm, EchConfig cfg = {});
  ~EchPageTable() override;

  MapResult map(Vpn vpn, Pfn pfn, unsigned page_shift = kPageShift) override;
  bool unmap(Vpn vpn) override;
  std::optional<Pfn> lookup(Vpn vpn) const override;
  bool remap(Vpn vpn, Pfn new_pfn) override;
  void walk_into(Vpn vpn, WalkPath& out) const override;
  std::vector<LevelOccupancy> occupancy() const override;
  std::string name() const override { return "ECH"; }
  std::uint64_t table_bytes() const override;
  bool save_state(BlobWriter& out) const override;
  /// ECH resizes during prefault: the blob's entries-per-way may be larger
  /// than this table's initial geometry. load adopts the snapshot geometry;
  /// the restored PhysicalMemory pool already owns the resized blocks.
  /// Rejects, leaving the table untouched, a blob whose block list does
  /// not fit its geometry, whose blocks are not distinct, aligned
  /// page-table blocks of the pool, or whose live count disagrees with its
  /// valid bits.
  bool load_state(BlobReader& in) override;

  std::uint64_t entries_per_way() const { return entries_per_way_; }
  std::uint64_t size() const { return live_; }
  std::uint64_t resizes() const { return resizes_; }
  double load_factor() const;

 private:
  struct Slot {
    Vpn vpn = 0;
    Pfn pfn = 0;
    bool valid = false;
  };
  /// Way storage is structure-of-arrays: vpn / pfn columns plus a packed
  /// validity bitmap. A probe touches only the word it indexes in each
  /// column (no Slot padding), the columns are exactly what save_state
  /// serializes (a snapshot is three bulk copies per way), and invalid
  /// slots keep their stale vpn/pfn words — the blob format pins that.
  struct Way {
    std::vector<std::uint64_t> vpns;
    std::vector<std::uint64_t> pfns;
    std::vector<std::uint64_t> valid;  ///< bit i: slot i holds a live entry
    std::vector<Pfn> blocks;           ///< base PFN of each physical block

    bool is_valid(std::uint64_t i) const {
      return ((valid[i >> 6] >> (i & 63)) & 1ull) != 0;
    }
    void set_valid(std::uint64_t i) { valid[i >> 6] |= 1ull << (i & 63); }
    void clear_valid(std::uint64_t i) { valid[i >> 6] &= ~(1ull << (i & 63)); }
  };

  std::uint64_t hash(unsigned way, Vpn vpn) const;
  /// Compute every way's bucket index for vpn in one pass (the lanes are
  /// independent, so the compiler can vectorize the splitmix64 mixes).
  void hash_all(Vpn vpn, std::uint64_t* idx) const;
  PhysAddr slot_addr(unsigned way, std::uint64_t idx) const;
  /// Bytes of one physical block backing a way of `epw` entries (power of
  /// two, <= 2 MB).
  static std::uint64_t block_bytes_for(std::uint64_t epw);
  static unsigned block_order_for(std::uint64_t epw);
  /// Build way storage for `epw` entries per way (does not touch members —
  /// block allocation may trigger compaction, which must still see a
  /// consistent table via remap()).
  std::vector<Way> allocate_ways(std::uint64_t epw);
  void release_ways(std::vector<Way>& ways, std::uint64_t epw);
  /// Ways x blocks_per_way(epw) blocks of block_bytes_for(epw) back a
  /// table of `epw` entries per way.
  static std::uint64_t blocks_per_way(std::uint64_t epw);
  void resize();
  /// Overwrite vpn's entry if present, else place() it.
  bool insert(Vpn vpn, Pfn pfn, unsigned depth_budget);
  /// Cuckoo-place an entry known to be absent: an empty candidate bucket,
  /// else displace up to `depth_budget` times. On failure the last
  /// displaced entry is left in pending_ for resize() to re-home.
  bool place(Vpn vpn, Pfn pfn, unsigned depth_budget);

  PhysicalMemory& pm_;
  EchConfig cfg_;
  std::uint64_t entries_per_way_;
  /// Cached geometry of the current physical backing blocks (power-of-two
  /// bytes), so slot_addr splits an offset with shift/mask, not division.
  std::uint64_t block_bytes_ = 0;
  unsigned block_shift_ = 0;
  std::vector<Way> ways_;
  Slot pending_{};  ///< entry displaced out by a failed insert, re-homed on resize
  std::uint64_t live_ = 0;
  /// One past the highest vpn ever inserted (load_state rebuilds it from
  /// the valid slots and pending_). No entry lies at or above it, so
  /// lookup() and insert()'s overwrite probe answer such a vpn without
  /// touching the ways. Prefault maps ascending vpns: AddressSpace keeps a
  /// limit of its own and skips lookup() above it, and every map() it
  /// makes there skips the overwrite probe here. insert() raises it before
  /// displacing, so a failed insert's retry after resize() still finds the
  /// vpn.
  Vpn vpn_limit_ = 0;
  std::uint64_t resizes_ = 0;
  Rng rng_;  ///< way choice on displacement
};

}  // namespace ndp
