#include "sim/session.h"

#include <cstring>
#include <optional>
#include <utility>

#include "common/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "workloads/workload_registry.h"

namespace ndp {

namespace {

/// Process-wide cache-effectiveness metrics (obs/metrics.h), summed over
/// every Session in the process — the scrapeable complement of the
/// per-Session SessionStats snapshot. Handles resolve once.
struct SessionMetrics {
  obs::Counter& runs = obs::Metrics::instance().counter(
      "ndpsim_session_runs_total", "Cells executed through a Session");
  obs::Counter& image_hits = obs::Metrics::instance().counter(
      "ndpsim_session_image_hits_total",
      "System-image cache hits (substrate restored)");
  obs::Counter& image_builds = obs::Metrics::instance().counter(
      "ndpsim_session_image_builds_total",
      "System-image cache misses (substrate built)");
  obs::Counter& image_evictions = obs::Metrics::instance().counter(
      "ndpsim_session_image_evictions_total",
      "System images evicted past the LRU capacity");
  obs::Counter& material_hits = obs::Metrics::instance().counter(
      "ndpsim_session_material_hits_total", "Trace-material cache hits");
  obs::Counter& material_builds = obs::Metrics::instance().counter(
      "ndpsim_session_material_builds_total", "Trace-material cache misses");
  obs::Counter& material_evictions = obs::Metrics::instance().counter(
      "ndpsim_session_material_evictions_total",
      "Trace material evicted past the LRU capacity");
  obs::Counter& prepared_hits = obs::Metrics::instance().counter(
      "ndpsim_session_prepared_hits_total",
      "Prepared-image cache hits (install+prefault skipped)");
  obs::Counter& prepared_builds = obs::Metrics::instance().counter(
      "ndpsim_session_prepared_builds_total",
      "Prepared-image cache misses (snapshot captured or loaded from disk)");
  obs::Counter& prepared_evictions = obs::Metrics::instance().counter(
      "ndpsim_session_prepared_evictions_total",
      "Prepared images evicted past the LRU capacity");
  obs::Counter& store_hits = obs::Metrics::instance().counter(
      "ndpsim_store_hits_total", "On-disk image-store blob loads");
  obs::Counter& store_misses = obs::Metrics::instance().counter(
      "ndpsim_store_misses_total", "On-disk image-store probes finding nothing");
  obs::Counter& store_writes = obs::Metrics::instance().counter(
      "ndpsim_store_writes_total", "On-disk image-store blobs written");
  obs::Counter& store_errors = obs::Metrics::instance().counter(
      "ndpsim_store_errors_total",
      "On-disk image-store rejected blobs and failed writes");
  obs::Gauge& resident_bytes = obs::Metrics::instance().gauge(
      "ndpsim_session_resident_bytes",
      "Host bytes held by Session caches (last Session to update wins)");

  static SessionMetrics& get() {
    static SessionMetrics m;
    return m;
  }
};
/// Bit-exact text of a double. Cache keys must distinguish *any* two
/// values that could yield different build products; decimal formatting
/// (std::to_string's fixed 6 digits) would alias close-but-distinct
/// scales/fractions and hand one of them the other's cached state.
std::string exact(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return std::to_string(bits);
}

/// Store-probe/write outcomes accumulated outside the Session mutex and
/// folded into SessionStats (and the process metrics) under it.
struct StoreDelta {
  std::uint64_t hits = 0, misses = 0, writes = 0, errors = 0;

  void probed(ImageStore::Load outcome) {
    switch (outcome) {
      case ImageStore::Load::kHit: ++hits; break;
      case ImageStore::Load::kMiss: ++misses; break;
      case ImageStore::Load::kReject: ++errors; break;
    }
  }
  void wrote(bool ok) { ++(ok ? writes : errors); }
  /// Fold into `s` — the caller holds the Session mutex.
  void fold(SessionStats& s) const {
    s.store_hits += hits;
    s.store_misses += misses;
    s.store_writes += writes;
    s.store_errors += errors;
    SessionMetrics& m = SessionMetrics::get();
    m.store_hits.inc(hits);
    m.store_misses.inc(misses);
    m.store_writes.inc(writes);
    m.store_errors.inc(errors);
  }
};
}  // namespace

std::string Session::image_key(const SystemConfig& cfg) {
  std::string key = to_string(cfg.kind);
  key += '/' + std::to_string(cfg.num_cores);
  key += '/' + std::to_string(cfg.phys_bytes);
  key += '/' + exact(cfg.noise_fraction);
  key += '/' + std::to_string(cfg.seed);
  // Every override is in the key — bypass/PWC overrides do not touch the
  // substrate, but never sharing across ablation axes is the conservative
  // contract the tests pin (distinct design points must not alias).
  key += "/b:";
  if (cfg.overrides.bypass) key += *cfg.overrides.bypass ? '1' : '0';
  key += "/p:";
  if (cfg.overrides.pwc_levels) {
    // Mark engaged-ness itself: an engaged-but-empty override ("strip the
    // PWCs", JSON null/[]) is a distinct design point from no override.
    key += 'e';
    for (unsigned l : *cfg.overrides.pwc_levels)
      key += std::to_string(l) + ',';
  }
  key += "/d:";
  if (cfg.overrides.dram)
    // name + channels, the image-relevant fidelity: the image holds only
    // substrate + mesh tables, and of DramTiming only `channels` shapes
    // those (name alone would alias a custom timing reusing a preset's
    // name with different channels, which SystemImage::compatible_with
    // rejects with a throw instead of a rebuild). Two timings agreeing on
    // name+channels do share an image — by construction it is identical.
    key += cfg.overrides.dram->name + ':' +
           std::to_string(cfg.overrides.dram->channels);
  return key;
}

std::shared_ptr<const SystemImage> Session::image_for(const SystemConfig& cfg,
                                                      bool* built_out) {
  const std::string key = image_key(cfg);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto hit = images_.find(key)) {
      ++stats_.image_hits;
      SessionMetrics::get().image_hits.inc();
      if (built_out) *built_out = false;
      return hit;
    }
  }
  // Build outside the lock so distinct keys build in parallel across sweep
  // workers. Concurrent misses on *one* key may both build it — rare,
  // wasted work only: images are deterministic, so the copies are
  // identical, and insert-if-absent below keeps the first one (the loser
  // counts as a hit, so the build/hit totals stay deterministic too).
  //
  // A memory miss probes the on-disk store before building. A disk load
  // still counts as an image *build* (the in-memory cache genuinely
  // missed, so the build/hit totals are identical with the store on or
  // off) plus a store_hit; only where the bytes came from changes.
  StoreDelta delta;
  std::shared_ptr<const SystemImage> image;
  if (store_) {
    const ImageStore::Load outcome = store_->load_system_image(key, cfg, &image);
    delta.probed(outcome);
  }
  if (!image) {
    image = std::make_shared<SystemImage>(System::prepare_image(cfg));
    if (store_) delta.wrote(store_->store_system_image(key, *image));
  }
  std::lock_guard<std::mutex> lock(mu_);
  delta.fold(stats_);
  if (auto raced = images_.find(key)) {
    ++stats_.image_hits;
    SessionMetrics::get().image_hits.inc();
    if (built_out) *built_out = false;
    return raced;
  }
  ++stats_.image_builds;
  SessionMetrics::get().image_builds.inc();
  const std::size_t evicted = images_.insert(key, image, opts_.max_images);
  stats_.image_evictions += evicted;
  SessionMetrics::get().image_evictions.inc(evicted);
  update_resident_gauge();
  if (built_out) *built_out = true;
  return image;
}

std::shared_ptr<const TraceMaterial> Session::material_for(
    const std::string& key, const TraceSource& trace) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto hit = materials_.find(key)) {
      ++stats_.material_hits;
      SessionMetrics::get().material_hits.inc();
      return hit;
    }
  }
  // Same insert-if-absent dance as image_for: material is deterministic,
  // so a raced duplicate collection is harmless and never serializes the
  // worker pool. Disk probe and write-back follow image_for's counting
  // contract too.
  StoreDelta delta;
  std::shared_ptr<const TraceMaterial> material;
  if (store_) {
    auto loaded = std::make_shared<TraceMaterial>();
    const ImageStore::Load outcome = store_->load_material(key, loaded.get());
    delta.probed(outcome);
    if (outcome == ImageStore::Load::kHit) material = std::move(loaded);
  }
  if (!material) {
    material = std::make_shared<TraceMaterial>(TraceMaterial::of(trace));
    if (store_) delta.wrote(store_->store_material(key, *material));
  }
  std::lock_guard<std::mutex> lock(mu_);
  delta.fold(stats_);
  if (auto raced = materials_.find(key)) {
    ++stats_.material_hits;
    SessionMetrics::get().material_hits.inc();
    return raced;
  }
  ++stats_.material_builds;
  SessionMetrics::get().material_builds.inc();
  const std::size_t evicted =
      materials_.insert(key, material, opts_.max_materials);
  stats_.material_evictions += evicted;
  SessionMetrics::get().material_evictions.inc(evicted);
  update_resident_gauge();
  return material;
}

void Session::update_resident_gauge() {
  SessionMetrics::get().resident_bytes.set(static_cast<std::int64_t>(
      images_.bytes + materials_.bytes + prepared_.bytes));
}

SessionStats Session::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SessionStats s = stats_;
  s.resident_bytes = images_.bytes + materials_.bytes + prepared_.bytes;
  return s;
}

void write_session_stats(JsonWriter& w, const SessionStats& s) {
  w.begin_object();
  w.key("runs").value(s.runs);
  w.key("image_builds").value(s.image_builds);
  w.key("image_hits").value(s.image_hits);
  w.key("image_evictions").value(s.image_evictions);
  w.key("material_builds").value(s.material_builds);
  w.key("material_hits").value(s.material_hits);
  w.key("material_evictions").value(s.material_evictions);
  w.key("prepared_builds").value(s.prepared_builds);
  w.key("prepared_hits").value(s.prepared_hits);
  w.key("prepared_evictions").value(s.prepared_evictions);
  w.key("store_hits").value(s.store_hits);
  w.key("store_misses").value(s.store_misses);
  w.key("store_writes").value(s.store_writes);
  w.key("store_errors").value(s.store_errors);
  w.key("resident_bytes").value(s.resident_bytes);
  w.end_object();
}

RunResult Session::run(const RunSpec& spec) {
  HostProfile build_profile;
  SystemConfig sc = spec.system == SystemKind::kNdp
                        ? SystemConfig::ndp(spec.cores, spec.mechanism)
                        : SystemConfig::cpu(spec.cores, spec.mechanism);
  sc.mechanism_name = spec.mechanism_name;
  sc.seed = spec.seed;
  sc.overrides = spec.overrides;

  std::shared_ptr<const SystemImage> image;
  bool image_built = false;
  if (opts_.share_images) {
    ScopedPhaseTimer timer(build_profile, ProfilePhase::kBuildCached);
    image = image_for(sc, &image_built);
  }

  std::unique_ptr<System> system;
  std::unique_ptr<TraceSource> trace;
  std::shared_ptr<const TraceMaterial> material;  // outlives the engine
  EngineConfig ec;
  std::string prepared_key;
  {
    ScopedPhaseTimer timer(build_profile, ProfilePhase::kBuild);
    system = image ? std::make_unique<System>(sc, *image)
                   : std::make_unique<System>(sc);

    WorkloadParams wp;
    wp.num_cores = spec.cores;
    if (spec.scale > 0) wp.scale = spec.scale;
    wp.seed = spec.seed;
    const WorkloadDescriptor& wd =
        resolve_workload(spec.workload, spec.workload_name);
    trace = wd.make(wp);
    if (opts_.share_images) {
      const std::string material_key =
          wd.name + '/' + std::to_string(wp.num_cores) + '/' +
          exact(wp.scale) + '/' + std::to_string(wp.seed);
      material = material_for(material_key, *trace);
      ec.material = material.get();
      // The prepared (post-prefault) layer keys on everything that shapes
      // the state the snapshot captures: substrate + mechanism + material.
      if (image)
        prepared_key = image_key(sc) + "|mech:" + sc.mechanism_label() +
                       "|mat:" + material_key;
    }

    ec.instructions_per_core = spec.instructions_per_core
                                   ? spec.instructions_per_core
                                   : default_instructions();
    ec.warmup_refs_per_core =
        spec.warmup_refs ? spec.warmup_refs : ec.instructions_per_core / 15;
  }

  // Prepared-image layer: a run whose (image, mechanism, material) point
  // was already prepared adopts the post-prefault snapshot — memory cache
  // first, then the on-disk store — and skips install+prefault entirely.
  // Restored state is bit-identical to freshly prepared state (the golden
  // suite pins results with the cache cold, warm, and disabled).
  std::shared_ptr<const PreparedImage> prepared;
  bool restored = false;
  bool capture_worthwhile = store_ != nullptr;
  if (!prepared_key.empty()) {
    bool prepared_from_disk = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (auto hit = prepared_.find(prepared_key)) {
        prepared = std::move(hit);
        ++stats_.prepared_hits;
        SessionMetrics::get().prepared_hits.inc();
      } else if (!prepared_missed_.insert(prepared_key).second) {
        // Second miss of this key: the grid revisits the design point, so
        // the snapshot copy will pay for itself even without a store.
        capture_worthwhile = true;
      }
    }
    if (!prepared && store_) {
      StoreDelta delta;
      delta.probed(store_->load_prepared(prepared_key, sc, &prepared));
      prepared_from_disk = prepared != nullptr;
      std::lock_guard<std::mutex> lock(mu_);
      delta.fold(stats_);
    }
    if (prepared) {
      ScopedPhaseTimer timer(build_profile, ProfilePhase::kBuildCached);
      if (system->adopt_prepared(*prepared)) {
        restored = true;
        if (prepared_from_disk) {
          // Disk restores feed the memory cache too, and count as a
          // prepared *build*: the in-memory cache genuinely missed, so
          // build/hit totals stay identical with the store on or off.
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.prepared_builds;
          SessionMetrics::get().prepared_builds.inc();
          if (!prepared_.find(prepared_key)) {
            const std::size_t evicted =
                prepared_.insert(prepared_key, prepared, opts_.max_prepared);
            stats_.prepared_evictions += evicted;
            SessionMetrics::get().prepared_evictions.inc(evicted);
          }
          update_resident_gauge();
        }
      } else {
        // Mismatched or malformed snapshot: the System's state may be
        // partially overwritten, so discard it and rebuild cold. Never a
        // crash, never a wrong result — only a rebuild and a warning.
        obs::log(obs::LogLevel::kWarn, "session.prepared_reject")
            .kv("key", prepared_key);
        prepared.reset();
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.store_errors;
          SessionMetrics::get().store_errors.inc();
        }
        ScopedPhaseTimer rebuild(build_profile, ProfilePhase::kBuild);
        system = image ? std::make_unique<System>(sc, *image)
                       : std::make_unique<System>(sc);
      }
    }
  }

  std::optional<Engine> engine(std::in_place, *system, *trace, ec);
  if (restored) {
    engine->mark_prepared();
  } else if (!prepared_key.empty() && capture_worthwhile) {
    // Cold cell of a sharing Session: prepare now, then capture the
    // post-prefault snapshot for later cells (and for the on-disk store).
    // Skipped when no store is configured and the key has not repeated —
    // a one-shot sweep of unique cells would pay the copy for nothing.
    engine->prepare();
    ScopedPhaseTimer timer(build_profile, ProfilePhase::kSnapshot);
    if (auto snap = system->snapshot_prepared(image)) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.prepared_builds;
        SessionMetrics::get().prepared_builds.inc();
        if (!prepared_.find(prepared_key)) {
          const std::size_t evicted =
              prepared_.insert(prepared_key, snap, opts_.max_prepared);
          stats_.prepared_evictions += evicted;
          SessionMetrics::get().prepared_evictions.inc(evicted);
        }
        update_resident_gauge();
      }
      if (store_) {
        StoreDelta delta;
        delta.wrote(store_->store_prepared(prepared_key, *snap));
        std::lock_guard<std::mutex> lock(mu_);
        delta.fold(stats_);
      }
    }
  }
  RunResult result = engine->run();
  {
    // Freeing a paper-scale resident set is a visible share of a cell's
    // wall, so it gets its own phase instead of falling outside all of them.
    ScopedPhaseTimer timer(build_profile, ProfilePhase::kTeardown);
    engine.reset();
    system.reset();
    trace.reset();
    material.reset();
  }
  result.host_profile.merge(build_profile);
  result.host.image_builds = image_built ? 1 : 0;
  result.host.image_hits = image && !image_built ? 1 : 0;
  result.meta.system = to_string(spec.system);
  const MechanismSpec mech = sc.mechanism_spec();
  result.meta.mechanism = mech.canonical;
  // Record every resolved parameter (defaults included) so a result set is
  // self-describing about the exact design point it measured.
  for (const auto& [name, value] : mech.params.entries())
    result.meta.mechanism_params.emplace_back(name, value.text());
  // Canonical registry name, not trace->name(): the registered identity is
  // what configs and aggregation select by, and for the built-ins the two
  // agree anyway.
  result.meta.workload = spec.workload_label();
  result.meta.cores = spec.cores;
  result.meta.instructions_per_core = ec.instructions_per_core;
  result.meta.seed = spec.seed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.runs;
  }
  SessionMetrics::get().runs.inc();
  return result;
}

}  // namespace ndp
