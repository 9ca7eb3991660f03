// Session: the long-lived half of the run lifecycle.
//
// A RunSpec describes one cell of an evaluation grid. The costliest part
// of building its platform — injecting boot noise into the 16 GB physical
// pool, ~14 ms — depends on neither the mechanism nor the workload under
// test. A Session owns two immutable, shareable build products:
//
//   * system images   (core/system.h SystemImage), keyed by
//                     (SystemKind, cores, seed, overrides): the post-boot
//                     buddy/frame state. session.run() *restores* the
//                     matching image (a few large copies, ~0.65 ms)
//                     instead of rebuilding it.
//   * prepared images (core/system.h PreparedImage), keyed by
//                     (image key, mechanism, workload/cores/scale/seed):
//                     post-prefault snapshots — a hit skips workload
//                     install and prefault entirely, the expensive half of
//                     cell setup. Only a Session with an on-disk store
//                     captures them.
//
// Everything else a cell needs — the memory system and its NoC tables, the
// page table, the MMUs, the trace and its region layout — is cheaper to
// build than to look up, so every run builds it fresh.
//
// With SessionOptions::image_store set, both also persist to an on-disk
// store (sim/image_store.h): misses probe the directory, fresh builds
// write back, and a warm process restart starts from disk instead of from
// scratch. The store changes no result byte and no in-memory build/hit
// total for images — only where a miss gets its data. Prepared images
// exist only with a store: capturing one copies the whole post-prefault
// pool, a cost only a store can be sure to repay.
//
// Restored state is bit-identical to freshly built state, so results are
// byte-identical whether a spec runs through a pooled Session or a
// one-shot one — the golden suite pins this, and run_sweep() relies on it
// to keep output independent of --jobs.
//
// Each of the two is a TieredCache (sim/tiered_cache.h) at a fixed
// capacity: 8 images (a 16 GB-substrate image is ~6 MB of host memory)
// and 4 prepared images (about the size of a system image each; the
// store's memory front).
//
// run() is thread-safe: each cache has its own mutex, held for lookups and
// inserts only — builds happen outside it, so distinct keys build in
// parallel and concurrent misses on one key at worst duplicate a
// deterministic ~14 ms build (the first insert wins). The simulation
// itself runs unlocked per cell.
//
//   Session session;
//   for (const RunSpec& spec : sweep(base, {"radix", "ndpage"}, {"gups"}))
//     results.push_back(session.run(spec));   // one substrate build, total
//
// run_experiment() in sim/experiment.h is the one-shot shim: a fresh
// Session per call, so its one run builds the image and restores it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "core/system.h"
#include "sim/experiment.h"
#include "sim/image_store.h"
#include "sim/tiered_cache.h"

namespace ndp {

struct SessionOptions {
  /// Directory of the persistent on-disk image store (sim/image_store.h).
  /// Non-empty: cache misses probe the directory before building, fresh
  /// builds are written back, and post-prefault snapshots are captured —
  /// a warm restart of the process skips boot, install, and prefault.
  /// Empty: no disk I/O and no snapshots.
  std::string image_store;
};

/// Cache effectiveness counters, cumulative over the Session's lifetime.
/// Per-run hit/miss flags also land in RunResult::host (image_builds /
/// image_hits), which is how `ndpsim --profile` reports them per sweep.
/// The whole snapshot is cheap (one mutex acquisition, a struct copy) —
/// it is what `ndpsim --profile` prints, what the sweep-level host_profile
/// JSON embeds, and what the serve daemon's `stats` request returns.
struct SessionStats {
  std::uint64_t runs = 0;
  std::uint64_t image_builds = 0;     ///< cache misses: substrate prepared
  std::uint64_t image_hits = 0;       ///< cache hits: substrate restored
  std::uint64_t image_evictions = 0;  ///< past Session::kImageCapacity
  // Prepared-image (post-prefault snapshot) cache, the memory front of the
  // on-disk store. A build is any run that *captured* a snapshot — whether
  // it came from the disk store or from running install+prefault — so the
  // totals are identical cold and warm, like image_builds. A Session
  // without a store captures nothing and reports zero prepared activity.
  std::uint64_t prepared_builds = 0;
  std::uint64_t prepared_hits = 0;
  std::uint64_t prepared_evictions = 0;
  // On-disk image store (sim/image_store.h). Counted per probe/write across
  // both blob kinds; store_errors counts rejected blobs (corrupt,
  // truncated, wrong version — rebuilt from scratch) and failed writes.
  std::uint64_t store_hits = 0;
  std::uint64_t store_misses = 0;
  std::uint64_t store_writes = 0;
  std::uint64_t store_errors = 0;
  /// Estimated host bytes held by the caches right now (images + prepared
  /// images; entries checked out by in-flight runs but already evicted are
  /// not counted — they die with the run).
  std::uint64_t resident_bytes = 0;
};

class JsonWriter;
/// Serialize a stats snapshot as one flat JSON object (the "session"
/// member of sweep-level host_profile blocks and of the serve daemon's
/// stats envelope).
void write_session_stats(JsonWriter& w, const SessionStats& s);

class Session {
 public:
  /// Entry capacities of the two caches (least recently used evicted).
  static constexpr std::size_t kImageCapacity = 8;
  static constexpr std::size_t kPreparedCapacity = 4;

  Session() : Session(SessionOptions{}) {}
  explicit Session(SessionOptions opts);

  /// Execute one cell. Identical results to run_experiment(spec), cheaper
  /// when this Session has already run a spec with the same image key.
  /// Thread-safe; any number of run() calls may be in flight.
  RunResult run(const RunSpec& spec);

  /// The cached image for `cfg`'s key, building (and caching) it on a
  /// miss. `built_out`, when given, reports whether this call built it.
  /// Exposed for tests and for callers building Systems themselves with
  /// System(cfg, image). Thread-safe.
  std::shared_ptr<const SystemImage> image_for(const SystemConfig& cfg,
                                               bool* built_out = nullptr);

  /// The cache key `cfg`'s image is shared under — equal keys share. The
  /// image itself depends only on the pool (physical-memory geometry, noise
  /// fraction, seed); the key also holds kind, cores and every override at
  /// full fidelity — the DRAM override by name+channels — so distinct
  /// design points never share a cache slot, a store file or a prepared
  /// key.
  static std::string image_key(const SystemConfig& cfg);

  const SessionOptions& options() const { return opts_; }
  SessionStats stats() const;

 private:
  /// Count one on-disk store probe / write (a rejected blob or a failed
  /// write is a store error). Both lock mu_.
  void count_load(ImageStore::Load outcome);
  void count_write(bool ok);
  /// Refresh the process-wide resident-bytes gauge after an insert.
  void update_resident_gauge();

  SessionOptions opts_;
  TieredCache<SystemImage> images_;
  TieredCache<PreparedImage> prepared_;
  /// Engaged iff a store directory was configured; the prepared layer runs
  /// only then. The store itself is stateless (every
  /// call opens files), so it needs no locking; only its counters in
  /// stats_ take mu_.
  std::unique_ptr<ImageStore> store_;
  mutable std::mutex mu_;  ///< guards stats_ and the resident-bytes gauge
  /// The Session's own counts: runs and the store_* probes. The cache
  /// counts live in the caches; stats() joins the two.
  SessionStats stats_;
};

}  // namespace ndp
