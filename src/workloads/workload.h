// Workload substrate: the 11 data-intensive applications of the paper's
// Table II, as deterministic synthetic address-trace generators.
//
// The paper traces real binaries (GraphBIG, XSBench, GUPS, DLRM,
// GenomicsBench) on Victima. We reproduce each kernel's *memory behaviour*:
// the data structures it walks, the mix of sequential and skewed-random
// references, its memory-instruction density, and its footprint — the
// properties that determine TLB/PWC/cache/DRAM behaviour and therefore
// everything the evaluation measures. These generators are the
// reproduction's substitute for the paper's binary traces.
//
// Multi-core runs shard the workload: core c works on its own slice of the
// address space, so total footprint scales with the core count exactly as
// the paper's "workload scale ... increase[s]" discussion assumes.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "translate/address_space.h"

namespace ndp {

enum class WorkloadKind {
  kBC,    ///< GraphBIG betweenness centrality
  kBFS,   ///< GraphBIG breadth-first search
  kCC,    ///< GraphBIG connected components
  kGC,    ///< GraphBIG graph coloring
  kPR,    ///< GraphBIG PageRank
  kTC,    ///< GraphBIG triangle counting
  kSP,    ///< GraphBIG shortest path
  kXS,    ///< XSBench particle simulation
  kRND,   ///< GUPS random access
  kDLRM,  ///< DLRM sparse-length sum
  kGEN,   ///< GenomicsBench k-mer counting
};

inline constexpr WorkloadKind kAllWorkloads[] = {
    WorkloadKind::kBC,  WorkloadKind::kBFS,  WorkloadKind::kCC,
    WorkloadKind::kGC,  WorkloadKind::kPR,   WorkloadKind::kTC,
    WorkloadKind::kSP,  WorkloadKind::kXS,   WorkloadKind::kRND,
    WorkloadKind::kDLRM, WorkloadKind::kGEN};

struct WorkloadParams {
  unsigned num_cores = 1;
  /// Fraction of the paper's Table II dataset size the shared dataset gets.
  /// The default (3/4) keeps the largest dataset plus OS structures inside
  /// the 16 GB physical pool while staying far above every caching
  /// structure's reach (TLBs, PWCs, and the L1's ability to hold hot PTE
  /// lines), so miss behaviour matches the full-size runs. Running 3/4 of
  /// each dataset instead of all of it is a substitution for the paper's
  /// setup; bench_table2_workloads prints both sizes per workload.
  double scale = 0.75;
  std::uint64_t seed = 42;
};

/// One memory reference of the trace.
struct MemRef {
  std::uint32_t gap = 0;  ///< non-memory instructions preceding this ref
  VirtAddr va = 0;
  AccessType type = AccessType::kRead;
};

/// A deterministic, per-core infinite stream of memory references.
///
/// The workload is one multi-threaded application: all cores share the
/// declared dataset regions and partition the *work* (staggered positions,
/// independent random streams), matching the paper's setup. Sharing is what
/// keeps every core's visible footprint at full dataset scale — the regime
/// in which PTEs are uncacheable and TLBs are overwhelmed — while total
/// physical memory stays bounded as cores scale.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  virtual std::string name() const = 0;
  virtual std::string suite() const = 0;
  /// Paper's Table II dataset size for this workload.
  virtual std::uint64_t paper_dataset_bytes() const = 0;
  /// Bytes of the shared (scaled) dataset in this run.
  virtual std::uint64_t dataset_bytes() const = 0;
  /// Shared + per-thread regions (install into the AddressSpace).
  virtual std::vector<VmRegion> regions() const = 0;
  /// Pages to pre-touch after prefaulting (demand regions whose hot part is
  /// already populated in steady state, e.g. an existing hash table).
  virtual std::vector<VirtAddr> warm_pages() const { return {}; }
  virtual MemRef next(unsigned core) = 0;
};

/// The immutable setup products of a trace source — the region layout the
/// engine installs and the steady-state-warm pages it pre-touches. Both are
/// pure functions of the workload's parameters, so a Session computes them
/// once per (workload, cores, scale, seed) key and shares them across every
/// sweep cell with that key (sim/session.h); the per-core reference streams
/// stay per-cell, in the TraceSource itself.
struct TraceMaterial {
  std::vector<VmRegion> regions;
  std::vector<VirtAddr> warm_pages;

  /// Collect `trace`'s material — exactly what Engine::prepare() would ask
  /// the trace for.
  static TraceMaterial of(const TraceSource& trace);

  /// Host bytes this material keeps resident (Session cache accounting).
  std::uint64_t resident_bytes() const {
    return regions.size() * sizeof(VmRegion) +
           warm_pages.size() * sizeof(VirtAddr);
  }
};

struct WorkloadInfo {
  WorkloadKind kind;
  const char* name;
  const char* suite;
  std::uint64_t paper_bytes;
};

const std::vector<WorkloadInfo>& all_workload_info();
const WorkloadInfo& info_of(WorkloadKind kind);
std::string to_string(WorkloadKind kind);

/// Resolve a workload by name ("PR", "RND", ...) or — when the suite maps to
/// exactly one workload — by suite ("gups" -> kRND, "xsbench" -> kXS).
/// Case-insensitive; nullopt when unknown or ambiguous. Only the built-ins
/// have enum values — resolve registered custom workloads through
/// WorkloadRegistry::find() (workloads/workload_registry.h) instead.
std::optional<WorkloadKind> workload_from_string(std::string_view name);

/// Shim over the open WorkloadRegistry (workloads/workload_registry.h):
/// builds the built-in generator registered under to_string(kind).
std::unique_ptr<TraceSource> make_workload(WorkloadKind kind,
                                           const WorkloadParams& params);

/// VA base of the shared dataset.
inline constexpr VirtAddr dataset_base() { return 0x100000000000ull; }

/// VA base of core c's private (per-thread) buffers — tallies, frontiers,
/// output batches. 8 GB apart.
inline constexpr VirtAddr private_base(unsigned core) {
  return 0x300000000000ull + static_cast<VirtAddr>(core) * 0x200000000ull;
}

}  // namespace ndp
