// Open-addressing hash map from 64-bit keys to 64-bit values.
//
// One flat slot array with linear probing and backward-shift erase: no heap
// node per entry, no tombstones, and destroying the map frees one block.
// It backs AddressSpace's reverse maps (data frame -> vpn, huge-block vpn ->
// frame), where a flush of the owner log inserts one entry per resident
// page — millions per cell — and a node-based std::unordered_map cost ~10x
// the page-table descent that mapped the page (one malloc per insert, one
// free per entry at teardown, a pointer chase per lookup). DIPTA's index of
// the sets it has filled is one too.
//
// Keys that differ only in their low 3 bits share an aligned run of 8 slots
// (128 bytes); Fibonacci hashing spreads the runs. The buddy allocator hands
// out frames in ascending runs, so up to 8 consecutive inserts of a
// prefault's frames share two cache lines instead of touching 8 random ones.
//
// The all-ones key marks an empty slot and cannot be stored; frame and page
// numbers never reach it. Iteration order is slot order: unspecified, but a
// function of the inserted keys and the operation sequence only.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ndp {

class FlatU64Map {
 public:
  static constexpr std::uint64_t kEmptyKey = ~0ull;

  std::size_t size() const { return size_; }
  /// Slots allocated: a power of two, or 0 before the first insert.
  std::size_t capacity() const { return slots_.size(); }

  /// Size the slot array so `n` entries fit without growing.
  void reserve(std::size_t n) {
    if (n > max_load(capacity())) rehash(capacity_for(n));
  }
  void clear() {
    std::vector<Slot>().swap(slots_);
    size_ = 0;
  }

  /// Map `key` to `value`, overwriting any value it had.
  void insert_or_assign(std::uint64_t key, std::uint64_t value) {
    assert(key != kEmptyKey);
    if (slots_.empty()) rehash(kMinCapacity);
    std::size_t i = home_slot(key);
    for (; slots_[i].key != kEmptyKey; i = next(i)) {
      if (slots_[i].key == key) {
        slots_[i].value = value;
        return;
      }
    }
    if (size_ + 1 > max_load(capacity())) {
      rehash(capacity() * 2);
      i = free_slot_for(key);
    }
    slots_[i] = Slot{key, value};
    ++size_;
  }

  /// The value `key` maps to, or nullptr.
  const std::uint64_t* find(std::uint64_t key) const {
    assert(key != kEmptyKey);
    if (slots_.empty()) return nullptr;
    for (std::size_t i = home_slot(key);; i = next(i)) {
      if (slots_[i].key == key) return &slots_[i].value;
      if (slots_[i].key == kEmptyKey) return nullptr;
    }
  }

  /// Remove `key`; false when it was absent.
  bool erase(std::uint64_t key) {
    assert(key != kEmptyKey);
    if (slots_.empty()) return false;
    std::size_t hole = home_slot(key);
    for (; slots_[hole].key != key; hole = next(hole))
      if (slots_[hole].key == kEmptyKey) return false;
    // Backward shift: walk the rest of the probe run and move into the hole
    // every entry whose home slot does not lie strictly between the hole and
    // the entry, so no later lookup stops early at the gap.
    for (std::size_t j = next(hole); slots_[j].key != kEmptyKey; j = next(j)) {
      const std::size_t mask = capacity() - 1;
      if (((j - home_slot(slots_[j].key)) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].key = kEmptyKey;
    --size_;
    return true;
  }

  /// Start loading the slot `key`'s probe begins at, so an insert of `key`
  /// a few hundred nanoseconds later finds it in cache.
  void prefetch(std::uint64_t key) const {
    if (!slots_.empty()) __builtin_prefetch(&slots_[home_slot(key)], 1);
  }

  /// Call fn(key, value) once per entry, in slot order.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_)
      if (s.key != kEmptyKey) fn(s.key, s.value);
  }

  /// The slot a key's probe starts at. Requires capacity() > 0.
  std::size_t home_slot(std::uint64_t key) const {
    const std::uint64_t run =
        ((key >> kRunBits) * 0x9E3779B97F4A7C15ull) >> (shift_ + kRunBits);
    return static_cast<std::size_t>((run << kRunBits) |
                                    (key & ((1u << kRunBits) - 1)));
  }

 private:
  struct Slot {
    std::uint64_t key;
    std::uint64_t value;
  };
  static constexpr unsigned kRunBits = 3;
  static constexpr std::size_t kMinCapacity = 16;
  static_assert(kMinCapacity > (1u << kRunBits), "home_slot shift < 64");

  // Linear probing stays short up to 3/4 full.
  static std::size_t max_load(std::size_t cap) { return cap / 4 * 3; }
  static std::size_t capacity_for(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (max_load(cap) < n) cap *= 2;
    return cap;
  }
  std::size_t next(std::size_t i) const { return (i + 1) & (capacity() - 1); }
  std::size_t free_slot_for(std::uint64_t key) const {
    std::size_t i = home_slot(key);
    while (slots_[i].key != kEmptyKey) i = next(i);
    return i;
  }
  void rehash(std::size_t cap) {
    std::vector<Slot> old(cap, Slot{kEmptyKey, 0});
    old.swap(slots_);
    shift_ = 64 - static_cast<unsigned>(__builtin_ctzll(cap));
    for (const Slot& s : old)
      if (s.key != kEmptyKey) slots_[free_slot_for(s.key)] = s;
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  unsigned shift_ = 64;  ///< 64 - log2(capacity())
};

}  // namespace ndp
