#include "core/system.h"

#include <cassert>
#include <stdexcept>

#include "common/strings.h"

namespace ndp {

std::string to_string(SystemKind k) {
  return k == SystemKind::kCpu ? "CPU" : "NDP";
}

std::optional<SystemKind> system_kind_from_string(std::string_view name) {
  if (iequals(name, "ndp")) return SystemKind::kNdp;
  if (iequals(name, "cpu")) return SystemKind::kCpu;
  return std::nullopt;
}

WalkerConfig Overrides::apply_to(WalkerConfig walker) const {
  if (bypass) walker.bypass_caches_for_metadata = *bypass;
  if (pwc_levels) walker.pwc_levels = *pwc_levels;
  return walker;
}

MechanismSpec SystemConfig::mechanism_spec() const {
  return resolve_mechanism_spec(mechanism, mechanism_name);
}

const MechanismDescriptor& SystemConfig::descriptor() const {
  return *mechanism_spec().descriptor;
}

SystemConfig SystemConfig::ndp(unsigned cores, Mechanism m) {
  SystemConfig cfg;
  cfg.kind = SystemKind::kNdp;
  cfg.num_cores = cores;
  cfg.mechanism = m;
  return cfg;
}

SystemConfig SystemConfig::cpu(unsigned cores, Mechanism m) {
  SystemConfig cfg;
  cfg.kind = SystemKind::kCpu;
  cfg.num_cores = cores;
  cfg.mechanism = m;
  return cfg;
}

SystemConfig SystemConfig::ndp(unsigned cores, std::string_view mechanism) {
  SystemConfig cfg;
  cfg.kind = SystemKind::kNdp;
  cfg.num_cores = cores;
  cfg.mechanism_name = mechanism;
  return cfg;
}

SystemConfig SystemConfig::cpu(unsigned cores, std::string_view mechanism) {
  SystemConfig cfg;
  cfg.kind = SystemKind::kCpu;
  cfg.num_cores = cores;
  cfg.mechanism_name = mechanism;
  return cfg;
}

namespace {

PhysMemConfig phys_config_of(const SystemConfig& cfg) {
  PhysMemConfig pmc;
  pmc.bytes = cfg.phys_bytes;
  pmc.noise_fraction = cfg.noise_fraction;
  pmc.seed = cfg.seed;
  return pmc;
}

MemorySystemConfig memory_config_of(const SystemConfig& cfg) {
  MemorySystemConfig msc = cfg.kind == SystemKind::kNdp
                               ? MemorySystemConfig::ndp(cfg.num_cores)
                               : MemorySystemConfig::cpu(cfg.num_cores);
  if (cfg.overrides.dram) msc.dram = *cfg.overrides.dram;
  return msc;
}

}  // namespace

bool SystemImage::compatible_with(const SystemConfig& cfg) const {
  return cfg.phys_bytes == config.phys_bytes &&
         cfg.noise_fraction == config.noise_fraction &&
         cfg.seed == config.seed;
}

SystemImage System::prepare_image(const SystemConfig& cfg) {
  return SystemImage{cfg, PhysicalMemory(phys_config_of(cfg)).snapshot()};
}

System::System(const SystemConfig& cfg) : System(cfg, prepare_image(cfg)) {}

System::System(const SystemConfig& cfg, const SystemImage& image) : cfg_(cfg) {
  assert(cfg_.num_cores >= 1);
  mlp_ = cfg_.mlp ? cfg_.mlp : 8u;

  // Resolves through the registry: throws on an unknown mechanism name or
  // a parameter spec violating the mechanism's schema — before the pool
  // is copied.
  const MechanismSpec spec = cfg_.mechanism_spec();
  const MechanismDescriptor& mech = *spec.descriptor;

  if (!image.compatible_with(cfg_))
    throw std::invalid_argument(
        "System: image was prepared for a different pool (bytes, noise "
        "fraction, seed); build one with System::prepare_image(cfg)");
  phys_ = std::make_unique<PhysicalMemory>(image.phys);
  mem_ = std::make_unique<MemorySystem>(memory_config_of(cfg_));

  space_ = std::make_unique<AddressSpace>(
      *phys_, mech.make_page_table(*phys_, spec.params), mech.huge_pages);

  MmuConfig mmuc;
  mmuc.walker = cfg_.overrides.apply_to(mech.walker_config(spec.params));
  mmuc.ideal = !mech.models_translation;
  for (unsigned c = 0; c < cfg_.num_cores; ++c)
    mmus_.push_back(std::make_unique<Mmu>(mmuc, *space_, *mem_, c));

  // Reclaim/compaction tear-downs must not leave stale TLB entries.
  space_->set_shootdown_hook([this](Vpn vpn) {
    const VirtAddr va = vpn << kPageShift;
    for (auto& mmu : mmus_) {
      mmu->l1_dtlb().invalidate(va);
      mmu->l2_tlb().invalidate(va);
    }
  });
}

System::~System() {
  // Members die in reverse order: the MMUs, the address space (and its
  // page table), then the pool. Nothing reads the pool after the space.
  phys_->begin_teardown();
}

std::shared_ptr<const PreparedImage> System::snapshot_prepared(
    std::shared_ptr<const SystemImage> base) const {
  BlobWriter pt;
  if (!space_->page_table().save_state(pt)) return nullptr;
  BlobWriter sp;
  space_->save_state(sp);
  BlobWriter st;
  phys_->stats().save_state(st);
  return std::make_shared<const PreparedImage>(
      PreparedImage{std::move(base), phys_->snapshot(), pt.take(), sp.take(),
                    st.take()});
}

bool System::adopt_prepared(const PreparedImage& prep) {
  if (!prep.base || !prep.base->compatible_with(cfg_)) return false;
  // Pool first: page-table and space loads adopt frames the restored pool
  // already accounts for (they never allocate or free). The constructor's
  // own deterministic allocations are part of the snapshot's history, so
  // dropping them without freeing is consistent with the restored bitmaps.
  phys_->restore(prep.ready);
  BlobReader pt(prep.pt_state);
  if (!space_->page_table().load_state(pt)) return false;
  BlobReader sp(prep.space_state);
  if (!space_->load_state(sp)) return false;
  BlobReader st(prep.stats_state);
  return phys_->stats().load_state(st);
}

void System::reset_stats() {
  mem_->reset_stats();
  phys_->stats().clear();
  space_->stats().clear();
  for (auto& mmu : mmus_) {
    mmu->reset_counters();
    mmu->l1_dtlb().reset_counters();
    mmu->l2_tlb().reset_counters();
    mmu->walker().reset_counters();
    for (unsigned level : mmu->walker().pwcs().levels())
      mmu->walker().pwcs().level(level)->reset_counters();
  }
}

StatSet System::collect_stats() const {
  StatSet out = mem_->collect_stats();
  auto add_all = [&out](const StatSet& s, const std::string& prefix) {
    for (const auto& [k, v] : s.counters()) out.inc(prefix + "." + k, v);
    for (const auto& [k, a] : s.averages()) out.merge_average(prefix + "." + k, a);
  };
  add_all(phys_->stats(), "os");
  add_all(space_->stats(), "as");
  for (unsigned c = 0; c < cfg_.num_cores; ++c) {
    const Mmu& m = *mmus_[c];
    add_all(m.snapshot(), "mmu");
    add_all(m.l1_dtlb().snapshot(), "tlb.l1d");
    add_all(m.l2_tlb().snapshot(), "tlb.l2");
    add_all(m.walker().snapshot(), "walker");
    for (unsigned level : m.walker().pwcs().levels()) {
      const Pwc* p = m.walker().pwcs().level(level);
      add_all(p->snapshot(), "pwc.l" + std::to_string(level));
    }
  }
  return out;
}

}  // namespace ndp
