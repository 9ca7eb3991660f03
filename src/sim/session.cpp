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
    // name + channels: the pool image does not depend on the DRAM device
    // at all, so two timings agreeing on name+channels share one, while a
    // custom timing reusing a preset's name with a different channel count
    // stays a distinct design point.
    key += cfg.overrides.dram->name + ':' +
           std::to_string(cfg.overrides.dram->channels);
  return key;
}

Session::Session(SessionOptions opts)
    : opts_(std::move(opts)),
      images_(kImageCapacity, SessionMetrics::get().image_hits,
              SessionMetrics::get().image_builds,
              SessionMetrics::get().image_evictions),
      prepared_(kPreparedCapacity, SessionMetrics::get().prepared_hits,
                SessionMetrics::get().prepared_builds,
                SessionMetrics::get().prepared_evictions) {
  if (!opts_.image_store.empty())
    store_ = std::make_unique<ImageStore>(opts_.image_store);
}

// A memory miss probes the on-disk store before building. A disk load
// still counts as a *build* (the in-memory cache genuinely missed, so the
// build/hit totals are identical with the store on or off) plus a
// store_hit; only where the bytes came from changes.
std::shared_ptr<const SystemImage> Session::image_for(const SystemConfig& cfg,
                                                      bool* built_out) {
  const std::string key = image_key(cfg);
  bool built = false;
  auto image = images_.get_or_build(
      key,
      [&] {
        return std::make_shared<SystemImage>(System::prepare_image(cfg));
      },
      {[&] {
         std::shared_ptr<const SystemImage> loaded;
         if (store_) count_load(store_->load_system_image(key, cfg, &loaded));
         return loaded;
       },
       [&](const SystemImage& fresh) {
         if (store_) count_write(store_->store_system_image(key, fresh));
       }},
      &built);
  if (built) update_resident_gauge();
  if (built_out) *built_out = built;
  return image;
}

void Session::count_load(ImageStore::Load outcome) {
  SessionMetrics& m = SessionMetrics::get();
  std::lock_guard<std::mutex> lock(mu_);
  switch (outcome) {
    case ImageStore::Load::kHit:
      ++stats_.store_hits;
      m.store_hits.inc();
      break;
    case ImageStore::Load::kMiss:
      ++stats_.store_misses;
      m.store_misses.inc();
      break;
    case ImageStore::Load::kReject:
      ++stats_.store_errors;
      m.store_errors.inc();
      break;
  }
}

void Session::count_write(bool ok) {
  SessionMetrics& m = SessionMetrics::get();
  std::lock_guard<std::mutex> lock(mu_);
  ++(ok ? stats_.store_writes : stats_.store_errors);
  (ok ? m.store_writes : m.store_errors).inc();
}

void Session::update_resident_gauge() {
  // Under mu_, so concurrent updates land in order and the last one set
  // reflects every insert before it.
  std::lock_guard<std::mutex> lock(mu_);
  SessionMetrics::get().resident_bytes.set(static_cast<std::int64_t>(
      images_.stats().bytes + prepared_.stats().bytes));
}

SessionStats Session::stats() const {
  SessionStats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s = stats_;
  }
  const auto images = images_.stats();
  const auto prepared = prepared_.stats();
  s.image_builds = images.builds;
  s.image_hits = images.hits;
  s.image_evictions = images.evictions;
  s.prepared_builds = prepared.builds;
  s.prepared_hits = prepared.hits;
  s.prepared_evictions = prepared.evictions;
  s.resident_bytes = images.bytes + prepared.bytes;
  return s;
}

void write_session_stats(JsonWriter& w, const SessionStats& s) {
  w.begin_object();
  w.key("runs").value(s.runs);
  w.key("image_builds").value(s.image_builds);
  w.key("image_hits").value(s.image_hits);
  w.key("image_evictions").value(s.image_evictions);
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
  {
    ScopedPhaseTimer timer(build_profile, ProfilePhase::kBuildCached);
    image = image_for(sc, &image_built);
  }

  std::unique_ptr<System> system;
  std::unique_ptr<TraceSource> trace;
  EngineConfig ec;
  std::string prepared_key;
  {
    ScopedPhaseTimer timer(build_profile, ProfilePhase::kBuild);
    system = std::make_unique<System>(sc, *image);

    WorkloadParams wp;
    wp.num_cores = spec.cores;
    if (spec.scale > 0) wp.scale = spec.scale;
    wp.seed = spec.seed;
    const WorkloadDescriptor& wd =
        resolve_workload(spec.workload, spec.workload_name);
    trace = wd.make(wp);
    // The prepared (post-prefault) layer keys on everything that shapes
    // the state the snapshot captures: substrate + mechanism + the
    // workload's region layout and warm pages.
    if (store_)
      prepared_key = image_key(sc) + "|mech:" + sc.mechanism_label() +
                     "|mat:" + wd.name + '/' + std::to_string(wp.num_cores) +
                     '/' + exact(wp.scale) + '/' + std::to_string(wp.seed);

    ec.instructions_per_core = spec.instructions_per_core
                                   ? spec.instructions_per_core
                                   : default_instructions();
    ec.warmup_refs_per_core =
        spec.warmup_refs ? spec.warmup_refs : ec.instructions_per_core / 15;
  }

  // Prepared-image layer (store only): a run whose (image, mechanism,
  // workload) point was already prepared adopts the post-prefault
  // snapshot — memory front first, then the on-disk store — and skips
  // install+prefault entirely. Restored state is bit-identical to freshly
  // prepared state (the golden suite pins results with the store off,
  // cold, and warm).
  std::shared_ptr<const PreparedImage> prepared;
  bool restored = false;
  if (!prepared_key.empty()) {
    prepared = prepared_.find(prepared_key);
    bool prepared_from_disk = false;
    if (!prepared) {
      count_load(store_->load_prepared(prepared_key, sc, &prepared));
      prepared_from_disk = prepared != nullptr;
    }
    if (prepared) {
      ScopedPhaseTimer timer(build_profile, ProfilePhase::kBuildCached);
      if (system->adopt_prepared(*prepared)) {
        restored = true;
        if (prepared_from_disk) {
          // Disk restores feed the memory front too, and count as a
          // prepared *build*: the in-memory cache genuinely missed, so
          // build/hit totals stay identical with the store cold or warm.
          prepared_.admit(prepared_key, prepared);
          update_resident_gauge();
        }
      } else {
        // Mismatched or malformed snapshot: the System's state may be
        // partially overwritten, so discard it and rebuild cold. Never a
        // crash, never a wrong result — only a rebuild and a warning.
        obs::log(obs::LogLevel::kWarn, "session.prepared_reject")
            .kv("key", prepared_key);
        prepared.reset();
        count_load(ImageStore::Load::kReject);
        ScopedPhaseTimer rebuild(build_profile, ProfilePhase::kBuild);
        system = std::make_unique<System>(sc, *image);
      }
    }
  }

  std::optional<Engine> engine(std::in_place, *system, *trace, ec);
  if (restored) {
    engine->mark_prepared();
  } else if (!prepared_key.empty()) {
    // Cold cell of a Session with a store: prepare now, then capture the
    // post-prefault snapshot for the store and its memory front.
    engine->prepare();
    ScopedPhaseTimer timer(build_profile, ProfilePhase::kSnapshot);
    if (auto snap = system->snapshot_prepared(image)) {
      prepared_.admit(prepared_key, snap);
      update_resident_gauge();
      count_write(store_->store_prepared(prepared_key, *snap));
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
  }
  result.host_profile.merge(build_profile);
  result.host.image_builds = image_built ? 1 : 0;
  result.host.image_hits = image_built ? 0 : 1;
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
