#include "os/buddy.h"

#include <algorithm>
#include <cassert>
#include <cstddef>

namespace ndp {

BuddyAllocator::BuddyAllocator(std::uint64_t num_frames)
    : num_frames_(num_frames),
      free_frames_(num_frames),
      free_bit_(num_frames, true) {
  const std::uint64_t max_block = 1ull << kMaxOrder;
  assert(num_frames_ > 0 && num_frames_ % max_block == 0);
  free_.reserve(kMaxOrder + 1);
  for (unsigned o = 0; o <= kMaxOrder; ++o)
    free_.emplace_back(num_frames_ >> o);
  for (Pfn base = 0; base < num_frames_; base += max_block)
    insert_free(base, kMaxOrder);
}

bool BitIndex::load_words(const std::vector<std::uint64_t>& w) {
  if (w.size() != l0_.size()) return false;
  l0_ = w;
  std::fill(l1_.begin(), l1_.end(), 0);
  std::fill(l2_.begin(), l2_.end(), 0);
  count_ = 0;
  for (std::uint64_t j = 0; j < l0_.size(); ++j) {
    if (l0_[j] == 0) continue;
    count_ += static_cast<std::uint64_t>(__builtin_popcountll(l0_[j]));
    l1_[j >> 6] |= 1ull << (j & 63);
    l2_[j >> 12] |= 1ull << ((j >> 6) & 63);
  }
  return true;
}

void BuddyAllocator::save_state(BlobWriter& out) const {
  out.u64(num_frames_);
  out.u64(free_frames_);
  for (const BitIndex& order : free_) out.u64s(order.words());
  // free_bit_ packed 64 per word (std::vector<bool> has no contiguous
  // storage to bulk-copy from).
  std::vector<std::uint64_t> packed((num_frames_ + 63) / 64, 0);
  for (std::uint64_t f = 0; f < num_frames_; ++f)
    if (free_bit_[f]) packed[f >> 6] |= 1ull << (f & 63);
  out.u64s(packed);
}

bool BuddyAllocator::load_state(BlobReader& in) {
  if (in.u64() != num_frames_) return false;
  const std::uint64_t free_frames = in.u64();
  std::vector<std::vector<std::uint64_t>> orders(free_.size());
  for (auto& order : orders) order = in.u64s();
  const std::vector<std::uint64_t> packed = in.u64s();
  if (!in.ok() || packed.size() != (num_frames_ + 63) / 64) return false;
  for (unsigned o = 0; o < free_.size(); ++o)
    if (orders[o].size() != free_[o].words().size()) return false;
  for (unsigned o = 0; o < free_.size(); ++o) free_[o].load_words(orders[o]);
  for (std::uint64_t f = 0; f < num_frames_; ++f)
    free_bit_[f] = (packed[f >> 6] >> (f & 63)) & 1ull;
  free_frames_ = free_frames;
  return true;
}

void BuddyAllocator::restore(const BuddyAllocator& snapshot) {
  assert(num_frames_ == snapshot.num_frames_ &&
         "restore needs the same pool geometry the snapshot was taken from");
  free_frames_ = snapshot.free_frames_;
  free_ = snapshot.free_;
  free_bit_ = snapshot.free_bit_;
}

std::optional<Pfn> BuddyAllocator::alloc(unsigned order) {
  assert(order <= kMaxOrder);
  unsigned o = order;
  while (o <= kMaxOrder && !free_[o].any()) ++o;
  if (o > kMaxOrder) return std::nullopt;

  // Take the lowest-address block for determinism, split down to `order`.
  Pfn base = free_[o].find_first() << o;
  remove_free(base, o);
  while (o > order) {
    --o;
    insert_free(base + (1ull << o), o);
  }
  const std::uint64_t size = 1ull << order;
  for (std::uint64_t i = 0; i < size; ++i) free_bit_[base + i] = false;
  free_frames_ -= size;
  return base;
}

void BuddyAllocator::alloc_run(std::uint64_t n, Pfn* out) {
  assert(n <= free_frames_);
  free_frames_ -= n;
  while (n > 0) {
    // Orders below the smallest non-empty one stay empty until this block
    // is used up: its pieces are the only small blocks in the pool.
    unsigned o = 0;
    while (!free_[o].any()) ++o;
    const Pfn base = free_[o].find_first() << o;
    remove_free(base, o);
    const std::uint64_t size = 1ull << o;
    const std::uint64_t take = std::min(n, size);
    for (std::uint64_t i = 0; i < take; ++i) out[i] = base + i;
    std::fill(free_bit_.begin() + static_cast<std::ptrdiff_t>(base),
              free_bit_.begin() + static_cast<std::ptrdiff_t>(base + take),
              false);
    // What `take` alloc(0) calls leave of the block: the aligned blocks
    // tiling [base + take, base + size), smallest first.
    for (std::uint64_t off = take; off < size;) {
      const unsigned k = static_cast<unsigned>(__builtin_ctzll(off));
      insert_free(base + off, k);
      off += 1ull << k;
    }
    out += take;
    n -= take;
  }
}

void BuddyAllocator::free(Pfn base, unsigned order) {
  assert(order <= kMaxOrder);
  const std::uint64_t size = 1ull << order;
  assert(base % size == 0 && base + size <= num_frames_);
  for (std::uint64_t i = 0; i < size; ++i) {
    assert(!free_bit_[base + i] && "double free");
    free_bit_[base + i] = true;
  }
  free_frames_ += size;

  // Coalesce with the buddy while it is wholly free at the same order.
  unsigned o = order;
  while (o < kMaxOrder) {
    const Pfn buddy = base ^ (1ull << o);
    if (buddy >= num_frames_ || !free_bit_[buddy] ||
        !is_free_block(buddy, o)) {
      break;
    }
    remove_free(buddy, o);
    base = std::min(base, buddy);
    ++o;
  }
  insert_free(base, o);
}

bool BuddyAllocator::alloc_specific(Pfn frame) {
  if (frame >= num_frames_ || !free_bit_[frame]) return false;
  // Find the free block containing this frame.
  for (unsigned o = 0; o <= kMaxOrder; ++o) {
    const Pfn base = frame & ~((1ull << o) - 1);
    if (!is_free_block(base, o)) continue;
    remove_free(base, o);
    // Split down, always keeping the half that contains `frame`.
    Pfn keep = base;
    for (unsigned cur = o; cur > 0; --cur) {
      const unsigned child = cur - 1;
      const Pfn lo = keep;
      const Pfn hi = keep + (1ull << child);
      if (frame >= hi) {
        insert_free(lo, child);
        keep = hi;
      } else {
        insert_free(hi, child);
        keep = lo;
      }
    }
    assert(keep == frame);
    free_bit_[frame] = false;
    --free_frames_;
    return true;
  }
  assert(false && "free_bit set but no containing free block");
  return false;
}

int BuddyAllocator::largest_available_order() const {
  for (int o = static_cast<int>(kMaxOrder); o >= 0; --o)
    if (free_[static_cast<unsigned>(o)].any()) return o;
  return -1;
}

std::uint64_t BuddyAllocator::free_in_window(Pfn window_base,
                                             unsigned order) const {
  const std::uint64_t size = 1ull << order;
  assert(window_base % size == 0);
  std::uint64_t n = 0;
  for (std::uint64_t i = 0; i < size && window_base + i < num_frames_; ++i)
    if (free_bit_[window_base + i]) ++n;
  return n;
}

double BuddyAllocator::fragmentation() const {
  if (free_frames_ == 0) return 0.0;
  const int o = largest_available_order();
  const double largest = o < 0 ? 0.0 : static_cast<double>(1ull << o);
  return 1.0 - largest / static_cast<double>(free_frames_);
}

}  // namespace ndp
