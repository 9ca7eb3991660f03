// Whole-system assembly: Table I of the paper as a constructor.
//
// A System owns the physical-memory substrate, the cache/NoC/DRAM memory
// system, one address space (the NDP kernels run as one multi-threaded
// process), and a per-core MMU configured for the chosen translation
// mechanism. The simulation engine (src/sim) drives it with workload
// traces.
//
// Every System is built one way: from a SystemImage, the post-boot-noise
// pool, which it restores instead of re-injecting noise. System(cfg)
// prepares that image on the spot; a Session (sim/session.h) shares one
// across the cells of a sweep.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cache/hierarchy.h"
#include "core/mechanism.h"
#include "dram/dram.h"
#include "core/mmu.h"
#include "os/phys_mem.h"
#include "translate/address_space.h"

namespace ndp {

enum class SystemKind { kCpu, kNdp };

std::string to_string(SystemKind k);
/// Resolve "ndp"/"cpu" (case-insensitive); nullopt otherwise.
std::optional<SystemKind> system_kind_from_string(std::string_view name);

/// Ablation overrides, applied on top of the mechanism's own configuration.
/// Shared by SystemConfig and the experiment layer's RunSpec so a sweep
/// forwards them without field-by-field copying.
struct Overrides {
  /// Force the metadata cache bypass on/off regardless of mechanism.
  std::optional<bool> bypass;
  /// Replace the mechanism's PWC level set (e.g. {} to disable PWCs).
  std::optional<std::vector<unsigned>> pwc_levels;
  /// Replace the DRAM device model (e.g. channel-count sweeps).
  std::optional<DramTiming> dram;

  bool any() const { return bypass || pwc_levels || dram; }
  /// The mechanism's walker config with these overrides applied.
  WalkerConfig apply_to(WalkerConfig walker) const;
};

struct SystemConfig {
  SystemKind kind = SystemKind::kNdp;
  unsigned num_cores = 1;
  /// Built-in mechanism selector; ignored when `mechanism_name` is set.
  Mechanism mechanism = Mechanism::kRadix;
  /// Registry-resolved mechanism spec (takes precedence over the enum when
  /// non-empty). May carry parameters — "ech(ways=4)" — which resolve
  /// against the mechanism's schema; this is also how registered
  /// non-built-in mechanisms are selected.
  std::string mechanism_name;
  std::uint64_t phys_bytes = 16ull << 30;  ///< Table I: 16 GB
  double noise_fraction = 0.03;
  std::uint64_t seed = 0x5EED;
  /// Per-core memory-level parallelism: how many memory operations a core
  /// may have in flight. Table I uses the same x86-64 cores in both systems,
  /// so both default to 8 (a typical L1 MSHR budget).
  unsigned mlp = 0;  ///< 0 = default (8)

  Overrides overrides;

  /// The resolved (descriptor, parameters) pair this config selects.
  /// Throws std::out_of_range on an unknown `mechanism_name` and
  /// std::invalid_argument on bad parameters.
  MechanismSpec mechanism_spec() const;
  /// The registry descriptor this config selects.
  const MechanismDescriptor& descriptor() const;
  /// Canonical spelling of the selected mechanism, parameters included
  /// ("Radix", "ECH(ways=4)").
  std::string mechanism_label() const { return mechanism_spec().canonical; }

  static SystemConfig ndp(unsigned cores, Mechanism m);
  static SystemConfig cpu(unsigned cores, Mechanism m);
  static SystemConfig ndp(unsigned cores, std::string_view mechanism);
  static SystemConfig cpu(unsigned cores, std::string_view mechanism);
};

/// Immutable, shareable build product of one physical-memory pool: the
/// substrate right after boot-noise injection. It depends only on the pool
/// size, the noise fraction and the seed — not on the system kind, core
/// count, mechanism, workload or overrides — so a System of any of those
/// can be built from it (restore = a few large copies) instead of
/// re-running boot-noise injection. A Session (sim/session.h) caches these.
struct SystemImage {
  SystemConfig config;  ///< the config the image was prepared from
  PhysMemImage phys;    ///< substrate state right after noise injection

  /// Can a System with config `cfg` be built from this image with
  /// behaviour identical to a from-scratch construction? True iff the
  /// pool size, noise fraction and seed match; every other field is free.
  bool compatible_with(const SystemConfig& cfg) const;

  /// Host bytes this image keeps resident — what one Session cache slot
  /// costs (SessionStats::resident_bytes sums these).
  std::uint64_t resident_bytes() const { return phys.resident_bytes(); }
};

/// Post-prefault snapshot of a fully *prepared* System: the post-boot
/// substrate image it was built from plus the serialized page-table,
/// address-space, and OS-statistics state left behind by workload install
/// and prefault. Restoring one skips install and prefault entirely — the
/// expensive half of cell setup — and the on-disk image store
/// (sim/image_store.h) persists these across processes.
struct PreparedImage {
  std::shared_ptr<const SystemImage> base;  ///< post-boot substrate image
  PhysMemImage ready;  ///< pool state right after prefault
  std::vector<std::uint64_t> pt_state;     ///< PageTable::save_state words
  std::vector<std::uint64_t> space_state;  ///< AddressSpace::save_state words
  std::vector<std::uint64_t> stats_state;  ///< post-prefault OS statistics

  /// Host bytes one cache slot costs beyond the (shared) base image.
  std::uint64_t resident_bytes() const {
    return ready.resident_bytes() +
           (pt_state.size() + space_state.size() + stats_state.size()) *
               sizeof(std::uint64_t);
  }
};

class System {
 public:
  /// System(cfg, prepare_image(cfg)): builds the pool, then restores it.
  explicit System(const SystemConfig& cfg);
  /// Construct from a prepared image, restoring the physical-memory
  /// substrate instead of rebuilding it — the one construction path.
  /// Throws std::invalid_argument when the image is not
  /// compatible_with(cfg).
  System(const SystemConfig& cfg, const SystemImage& image);
  /// Puts the pool in teardown before the address space and page tables
  /// go, so they skip freeing frames into a pool that dies next.
  ~System();

  /// The shareable build products for `cfg` — what Session caches.
  static SystemImage prepare_image(const SystemConfig& cfg);

  /// Capture this System's state as a PreparedImage over `base` (the image
  /// this System was, or could have been, built from). Call right after
  /// Engine::prepare(). Returns null when the page table does not support
  /// snapshotting (a custom mechanism without save_state overrides); the
  /// System itself is never modified.
  std::shared_ptr<const PreparedImage> snapshot_prepared(
      std::shared_ptr<const SystemImage> base) const;
  /// Adopt a PreparedImage into a System freshly constructed from
  /// prep.base with an equivalent config: restores the physical pool
  /// wholesale, then overwrites page-table / address-space / statistics
  /// state, leaving the System observably at the post-prefault point.
  /// Returns false on a mismatched or malformed image — the System must
  /// then be discarded (its state may be partially overwritten).
  bool adopt_prepared(const PreparedImage& prep);

  const SystemConfig& config() const { return cfg_; }
  unsigned num_cores() const { return cfg_.num_cores; }
  unsigned mlp() const { return mlp_; }
  PhysicalMemory& phys() { return *phys_; }
  MemorySystem& mem() { return *mem_; }
  AddressSpace& space() { return *space_; }
  Mmu& mmu(unsigned core) { return *mmus_[core]; }
  const Mmu& mmu(unsigned core) const { return *mmus_[core]; }

  /// Snapshot of every component's statistics, prefixed per component.
  StatSet collect_stats() const;
  /// Clear every component's statistics (after warmup). Timing state —
  /// cache tags, TLB/PWC contents, DRAM bank clocks — is preserved.
  void reset_stats();

 private:
  SystemConfig cfg_;
  unsigned mlp_;
  std::unique_ptr<PhysicalMemory> phys_;
  std::unique_ptr<MemorySystem> mem_;
  std::unique_ptr<AddressSpace> space_;
  std::vector<std::unique_ptr<Mmu>> mmus_;
};

}  // namespace ndp
