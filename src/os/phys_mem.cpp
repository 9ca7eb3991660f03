#include "os/phys_mem.h"

#include <algorithm>
#include <cassert>

namespace ndp {

namespace {
constexpr unsigned kHugeOrder = 9;  // 512 frames = 2 MB

bool movable(FrameUse u) { return u == FrameUse::kData || u == FrameUse::kNoise; }
bool unmovable(FrameUse u) {
  return u == FrameUse::kPageTable || u == FrameUse::kHugePart;
}
}  // namespace

PhysicalMemory::PhysicalMemory(const PhysMemConfig& cfg)
    : PhysicalMemory(cfg, nullptr) {}

PhysicalMemory::PhysicalMemory(const PhysMemImage& image)
    : PhysicalMemory(image.cfg, &image) {}

PhysicalMemory::PhysicalMemory(const PhysMemConfig& cfg,
                               const PhysMemImage* image)
    : cfg_(cfg),
      buddy_(image ? image->buddy : BuddyAllocator(cfg.bytes / kPageSize)),
      use_(image ? image->use
                 : std::vector<FrameUse>(cfg.bytes / kPageSize,
                                         FrameUse::kFree)),
      win_movable_(image ? image->win_movable
                         : std::vector<std::uint16_t>(
                               (cfg.bytes / kPageSize) >> 9, 0)),
      win_unmovable_(image ? image->win_unmovable
                           : std::vector<std::uint16_t>(
                                 (cfg.bytes / kPageSize) >> 9, 0)),
      rng_(image ? image->rng : Rng(cfg.seed)),
      c_noise_frames_(stats_.counter("noise_frames")),
      c_frame_alloc_(stats_.counter("frame_alloc")),
      c_frame_free_(stats_.counter("frame_free")),
      c_pt_frames_(stats_.counter("pt_frames")),
      c_table_block_alloc_(stats_.counter("table_block_alloc")),
      c_table_block_free_(stats_.counter("table_block_free")),
      c_compaction_(stats_.counter("compaction")),
      c_compaction_moves_(stats_.counter("compaction_moves")),
      c_compaction_abort_(stats_.counter("compaction_abort")),
      c_huge_alloc_(stats_.counter("huge_alloc")),
      c_huge_alloc_compacted_(stats_.counter("huge_alloc_compacted")),
      c_huge_fallback_(stats_.counter("huge_fallback")),
      c_huge_free_(stats_.counter("huge_free")),
      s_compaction_moved_(stats_.sample("compaction_moved")) {
  if (image) {
    // Adopted substrate: the state vectors were copied above; only the
    // post-boot statistic a fresh construction would have remains.
    c_noise_frames_->add(image->noise_frames);
    return;
  }
  // Boot-time fragmentation injection: scatter "system" pages uniformly.
  // A long-running machine never presents a pristine buddy pool; this is the
  // environment in which THP-style 2 MB allocation struggles.
  const auto target =
      static_cast<std::uint64_t>(cfg_.noise_fraction *
                                 static_cast<double>(buddy_.num_frames()));
  std::uint64_t placed = 0;
  while (placed < target) {
    const Pfn f = rng_.below(buddy_.num_frames());
    if (buddy_.alloc_specific(f)) {
      set_use(f, FrameUse::kNoise);
      ++placed;
    }
  }
  c_noise_frames_->add(placed);
}

PhysMemImage PhysicalMemory::snapshot() const {
  return PhysMemImage{cfg_,         buddy_, use_, win_movable_,
                      win_unmovable_, rng_, stats_.get("noise_frames")};
}

void PhysicalMemory::restore(const PhysMemImage& image) {
  assert(image.use.size() == use_.size() &&
         "restore needs the geometry the image was snapshotted from");
  buddy_.restore(image.buddy);
  use_ = image.use;
  win_movable_ = image.win_movable;
  win_unmovable_ = image.win_unmovable;
  rng_ = image.rng;
  relocate_hook_ = nullptr;
  tearing_down_ = false;
  stats_.clear();
  c_noise_frames_->add(image.noise_frames);
}

void PhysicalMemory::set_use(Pfn pfn, FrameUse next) {
  const FrameUse prev = use_[pfn];
  if (prev == next) return;
  const std::uint64_t w = window_of(pfn);
  if (movable(prev)) --win_movable_[w];
  if (unmovable(prev)) --win_unmovable_[w];
  if (movable(next)) ++win_movable_[w];
  if (unmovable(next)) ++win_unmovable_[w];
  use_[pfn] = next;
}

Pfn PhysicalMemory::alloc_frame(FrameUse use) {
  assert(use != FrameUse::kFree);
  auto f = buddy_.alloc(0);
  assert(f.has_value() && "physical memory exhausted — size the experiment down");
  set_use(*f, use);
  c_frame_alloc_->add();
  if (use == FrameUse::kPageTable) c_pt_frames_->add();
  return *f;
}

void PhysicalMemory::alloc_frames(std::uint64_t n, FrameUse use, Pfn* out) {
  assert(use != FrameUse::kFree);
  assert(n <= buddy_.free_frames() &&
         "physical memory exhausted — size the experiment down");
  buddy_.alloc_run(n, out);
  // set_use() for frames known to be free: only the new tag's window
  // count moves.
  std::vector<std::uint16_t>* win = movable(use)     ? &win_movable_
                                    : unmovable(use) ? &win_unmovable_
                                                     : nullptr;
  for (std::uint64_t i = 0; i < n; ++i) {
    assert(use_[out[i]] == FrameUse::kFree);
    use_[out[i]] = use;
    if (win) ++(*win)[window_of(out[i])];
  }
  c_frame_alloc_->add(n);
  if (use == FrameUse::kPageTable) c_pt_frames_->add(n);
}

Pfn PhysicalMemory::alloc_table_block(unsigned order) {
  auto got = buddy_.alloc(order);
  if (!got && order <= kHugeOrder) {
    // A fragmented pool (boot noise) rarely has pristine high-order blocks;
    // page-table structures (NDPage flattened nodes, ECH ways, hybrid flat
    // windows) are worth compacting for, exactly like huge-page data
    // blocks. Compaction assembles a 2 MB window; a smaller request takes
    // its aligned head and carves the surplus back into the buddy pool.
    if (auto c = compact_for_huge()) {
      for (std::uint64_t i = 0; i < (1ull << order); ++i)
        set_use(c->base + i, FrameUse::kPageTable);
      for (unsigned o = order; o < kHugeOrder; ++o) {
        const Pfn chunk = c->base + (1ull << o);
        for (std::uint64_t i = 0; i < (1ull << o); ++i)
          set_use(chunk + i, FrameUse::kFree);
        buddy_.free(chunk, o);
      }
      c_table_block_alloc_->add();
      c_pt_frames_->add(1ull << order);
      return c->base;
    }
  }
  assert(got.has_value() &&
         "no contiguous block for a page-table structure — allocate tables "
         "before data");
  for (std::uint64_t i = 0; i < (1ull << order); ++i)
    set_use(*got + i, FrameUse::kPageTable);
  c_table_block_alloc_->add();
  c_pt_frames_->add(1ull << order);
  return *got;
}

void PhysicalMemory::free_table_block(Pfn base, unsigned order) {
  if (tearing_down_) return;
  for (std::uint64_t i = 0; i < (1ull << order); ++i) {
    assert(use_[base + i] == FrameUse::kPageTable);
    set_use(base + i, FrameUse::kFree);
  }
  buddy_.free(base, order);
  c_table_block_free_->add();
}

void PhysicalMemory::free_frame(Pfn pfn) {
  if (tearing_down_) return;
  assert(use_[pfn] != FrameUse::kFree);
  set_use(pfn, FrameUse::kFree);
  buddy_.free(pfn, 0);
  c_frame_free_->add();
}

std::optional<PhysicalMemory::CompactResult> PhysicalMemory::compact_for_huge() {
  const std::uint64_t win = 1ull << kHugeOrder;
  if (buddy_.free_frames() < win) return std::nullopt;

  // Pick the first movable window with the fewest occupants (fewest
  // relocations). A window's key is its movable count, with the top bit set
  // when it holds an unmovable frame (counts never exceed 512), so the pick
  // is the first window holding the smallest key below the top bit. Blocks
  // of 64 keys reduce branch-free (the compiler vectorizes them); only the
  // first block holding the minimum is searched for its index.
  constexpr std::uint64_t kBlock = 64;
  constexpr unsigned kUnmovableBit = 0x8000;
  const std::uint64_t num_windows = buddy_.num_frames() >> kHugeOrder;
  auto key = [this](std::uint64_t w) {
    return win_movable_[w] | (win_unmovable_[w] != 0 ? kUnmovableBit : 0u);
  };
  unsigned best = ~0u;
  std::uint64_t best_block = num_windows;
  for (std::uint64_t b = 0; b < num_windows && best != 0; b += kBlock) {
    unsigned m = ~0u;
    const std::uint64_t end = std::min(b + kBlock, num_windows);
    for (std::uint64_t w = b; w < end; ++w) m = std::min(m, key(w));
    if (m < best) {
      best = m;
      best_block = b;
    }
  }
  if (best >= kUnmovableBit) return std::nullopt;
  std::uint64_t best_w = best_block;
  while (key(best_w) != best) ++best_w;

  // Reserve the window's free frames first so relocation targets land
  // outside it, then move the occupants out.
  const Pfn base = best_w << kHugeOrder;
  for (std::uint64_t i = 0; i < win; ++i)
    if (use_[base + i] == FrameUse::kFree) {
      const bool ok = buddy_.alloc_specific(base + i);
      assert(ok);
      set_use(base + i, FrameUse::kHugePart);
    }
  std::uint64_t moved = 0;
  for (std::uint64_t i = 0; i < win; ++i) {
    const Pfn f = base + i;
    const FrameUse u = use_[f];
    if (u == FrameUse::kHugePart) continue;
    auto dst = buddy_.alloc(0);
    if (!dst) {
      // Free memory ran out mid-compaction. The partially assembled window
      // stays as kHugePart frames (a later attempt reuses it); report
      // failure so the caller falls back to 4 KB pages.
      c_compaction_abort_->add();
      return std::nullopt;
    }
    set_use(*dst, u);
    if (u == FrameUse::kData && relocate_hook_) relocate_hook_(f, *dst);
    set_use(f, FrameUse::kHugePart);
    ++moved;
  }
  c_compaction_->add();
  c_compaction_moves_->add(moved);
  s_compaction_moved_->add(static_cast<double>(moved));
  return CompactResult{base, moved};
}

PhysicalMemory::HugeResult PhysicalMemory::alloc_huge() {
  HugeResult r;
  r.cost = cfg_.costs.fault_2m_base();
  if (auto got = buddy_.alloc(kHugeOrder)) {
    for (std::uint64_t i = 0; i < (1ull << kHugeOrder); ++i)
      set_use(*got + i, FrameUse::kHugePart);
    r.base = *got;
    c_huge_alloc_->add();
    return r;
  }
  // Buddy pool has no contiguous 2 MB: try compaction.
  if (auto got = compact_for_huge()) {
    r.base = got->base;
    r.used_compaction = true;
    r.frames_moved = got->moved;
    r.cost += got->moved * cfg_.costs.compact_per_frame;
    c_huge_alloc_compacted_->add();
    return r;
  }
  r.fell_back = true;
  c_huge_fallback_->add();
  return r;
}

void PhysicalMemory::free_huge(Pfn base) {
  if (tearing_down_) return;
  const std::uint64_t win = 1ull << kHugeOrder;
  assert(base % win == 0);
  for (std::uint64_t i = 0; i < win; ++i) {
    assert(use_[base + i] == FrameUse::kHugePart);
    set_use(base + i, FrameUse::kFree);
    buddy_.free(base + i, 0);
  }
  c_huge_free_->add();
}

}  // namespace ndp
