// Buddy allocator over the physical frame space.
//
// This is the OS-substrate piece behind the paper's Huge Page baseline
// discussion (§VII-B): 2 MB allocations need an order-9 buddy block, and
// once memory is fragmented those stop being available — the allocator
// reports it honestly instead of applying a fudge factor.
//
// Free blocks are tracked per order in hierarchical bitmaps rather than
// ordered sets: every operation the simulator's hot paths perform —
// alloc_specific() during boot-noise injection and compaction reserves,
// alloc(0) during prefault — is a handful of word reads instead of
// red-black-tree searches and node allocations. Lowest-address-first
// allocation order (the determinism contract) is preserved exactly:
// find_first() returns the same block *begin() did, and alloc_run()
// returns what a sequence of alloc(0) calls would.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/blob.h"
#include "common/types.h"

namespace ndp {

/// Fixed-size bitset with a two-level word summary: set/clear/test are O(1)
/// and find_first() (lowest set bit) costs at most a few word scans even
/// over millions of bits.
class BitIndex {
 public:
  explicit BitIndex(std::uint64_t nbits)
      : l0_((nbits + 63) / 64, 0),
        l1_((l0_.size() + 63) / 64, 0),
        l2_((l1_.size() + 63) / 64, 0) {}

  bool test(std::uint64_t i) const {
    return (l0_[i >> 6] >> (i & 63)) & 1ull;
  }
  void set(std::uint64_t i) {
    std::uint64_t& w = l0_[i >> 6];
    const std::uint64_t bit = 1ull << (i & 63);
    if (w & bit) return;
    w |= bit;
    ++count_;
    l1_[i >> 12] |= 1ull << ((i >> 6) & 63);
    l2_[i >> 18] |= 1ull << ((i >> 12) & 63);
  }
  void clear(std::uint64_t i) {
    std::uint64_t& w = l0_[i >> 6];
    const std::uint64_t bit = 1ull << (i & 63);
    if (!(w & bit)) return;
    w &= ~bit;
    --count_;
    if (w) return;
    std::uint64_t& s1 = l1_[i >> 12];
    s1 &= ~(1ull << ((i >> 6) & 63));
    if (s1) return;
    l2_[i >> 18] &= ~(1ull << ((i >> 12) & 63));
  }
  bool any() const { return count_ != 0; }
  std::uint64_t count() const { return count_; }
  /// The raw level-0 bit words — the only state serialization needs
  /// (summaries and the population count are derived; see load_words()).
  const std::vector<std::uint64_t>& words() const { return l0_; }
  /// Adopt serialized level-0 words and rebuild summaries + count.
  /// Returns false when the word count does not match this bitset's size.
  bool load_words(const std::vector<std::uint64_t>& w);
  /// Host bytes of the bitmap storage (Session resident-size accounting).
  std::uint64_t resident_bytes() const {
    return (l0_.size() + l1_.size() + l2_.size()) * sizeof(std::uint64_t);
  }
  /// Lowest set bit; the bitset must be non-empty.
  std::uint64_t find_first() const {
    std::uint64_t k = 0;
    while (l2_[k] == 0) ++k;
    const std::uint64_t j = (k << 6) + lowest_bit(l2_[k]);
    const std::uint64_t w = (j << 6) + lowest_bit(l1_[j]);
    return (w << 6) + lowest_bit(l0_[w]);
  }

 private:
  static unsigned lowest_bit(std::uint64_t w) {
    return static_cast<unsigned>(__builtin_ctzll(w));
  }

  std::uint64_t count_ = 0;
  std::vector<std::uint64_t> l0_;  ///< the bits
  std::vector<std::uint64_t> l1_;  ///< bit j: l0_[j] has a set bit
  std::vector<std::uint64_t> l2_;  ///< bit k: l1_[k] has a set bit
};

class BuddyAllocator {
 public:
  static constexpr unsigned kMaxOrder = 10;  ///< up to 4 MB blocks

  /// num_frames must be a multiple of 2^kMaxOrder (the pool is built from
  /// max-order blocks).
  explicit BuddyAllocator(std::uint64_t num_frames);

  /// Allocate a 2^order-frame block aligned to its size. Returns the base
  /// PFN, or nullopt if no such block exists (fragmentation or exhaustion).
  std::optional<Pfn> alloc(unsigned order);
  /// Allocate `n` single frames into out[0..n): exactly the frames, in the
  /// same order, that n alloc(0) calls would return, leaving identical
  /// bitmaps. Each alloc(0) takes the lowest block of the smallest
  /// non-empty order and splits it, and the next calls consume that
  /// block's pieces in ascending order, so a run takes such a block whole,
  /// or takes its head and re-inserts the aligned remainder: one scan per
  /// block instead of one split and one find_first() per frame. Requires
  /// n <= free_frames().
  void alloc_run(std::uint64_t n, Pfn* out);
  /// Return a previously allocated block; buddies coalesce eagerly.
  void free(Pfn base, unsigned order);
  /// Allocate exactly `frame` (order 0), splitting whatever free block
  /// contains it. Returns false if the frame is not free. Used for
  /// boot-time fragmentation injection and for compaction window reserve.
  bool alloc_specific(Pfn frame);

  /// Value restore used by PhysicalMemory::snapshot()/restore(): the
  /// allocator is plain state (bitmaps + counters), so a copy of the object
  /// IS the snapshot. Asserts the pool geometry matches; copies into the
  /// existing storage (no reallocation when geometries agree).
  void restore(const BuddyAllocator& snapshot);

  bool is_free(Pfn frame) const { return free_bit_[frame]; }
  /// Is a block of this order currently available (without compaction)?
  bool can_alloc(unsigned order) const {
    for (unsigned o = order; o <= kMaxOrder; ++o)
      if (free_[o].any()) return true;
    return false;
  }
  std::uint64_t num_frames() const { return num_frames_; }
  std::uint64_t free_frames() const { return free_frames_; }
  /// Largest order for which a block is currently available.
  int largest_available_order() const;
  /// Free frames inside the aligned 2^order window containing `base`.
  std::uint64_t free_in_window(Pfn window_base, unsigned order) const;

  /// External fragmentation in [0,1]: 1 - (largest free block / free frames).
  double fragmentation() const;

  /// Host bytes of the allocator's state (Session resident-size accounting).
  std::uint64_t resident_bytes() const {
    std::uint64_t bytes = free_bit_.size() / 8;
    for (const BitIndex& order : free_) bytes += order.resident_bytes();
    return bytes;
  }

  /// Serialize the complete allocator state (sim/image_store.h). The
  /// geometry (num_frames) is included and verified by load_state.
  void save_state(BlobWriter& out) const;
  /// Restore state written by save_state into an allocator of the same
  /// geometry. Returns false (state unchanged) on mismatch or truncation.
  bool load_state(BlobReader& in);

 private:
  void insert_free(Pfn base, unsigned order) { free_[order].set(base >> order); }
  void remove_free(Pfn base, unsigned order) {
    free_[order].clear(base >> order);
  }
  bool is_free_block(Pfn base, unsigned order) const {
    return free_[order].test(base >> order);
  }

  std::uint64_t num_frames_;
  std::uint64_t free_frames_;
  std::vector<BitIndex> free_;   ///< per order: bit i = free block at i << o
  std::vector<bool> free_bit_;   ///< per frame
};

}  // namespace ndp
