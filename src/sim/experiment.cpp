#include "sim/experiment.h"

#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "common/flags.h"
#include "common/json.h"
#include "sim/session.h"
#include "workloads/workload_registry.h"

namespace ndp {

std::string RunSpec::mechanism_label() const {
  return resolve_mechanism_spec(mechanism, mechanism_name).canonical;
}

std::string RunSpec::workload_label() const {
  return resolve_workload(workload, workload_name).name;
}

RunSpecBuilder& RunSpecBuilder::system(SystemKind k) {
  spec_.system = k;
  return *this;
}

RunSpecBuilder& RunSpecBuilder::system(std::string_view name) {
  const auto k = system_kind_from_string(name);
  if (!k)
    throw std::invalid_argument("unknown system '" + std::string(name) +
                                "'; expected 'ndp' or 'cpu'");
  spec_.system = *k;
  return *this;
}

RunSpecBuilder& RunSpecBuilder::cores(unsigned n) {
  if (n == 0) throw std::invalid_argument("cores must be >= 1");
  spec_.cores = n;
  return *this;
}

RunSpecBuilder& RunSpecBuilder::mechanism(Mechanism m) {
  spec_.mechanism = m;
  spec_.mechanism_name.clear();
  return *this;
}

RunSpecBuilder& RunSpecBuilder::mechanism(std::string_view name) {
  // resolve() validates the full spec (name + parameters) and throws
  // std::out_of_range (listing registered names) on unknown mechanisms;
  // surface that as invalid_argument like the other name setters. Bad
  // parameters already arrive as invalid_argument.
  try {
    const MechanismSpec spec = MechanismRegistry::instance().resolve(name);
    spec_.mechanism_name = spec.canonical;
    if (const auto m = mechanism_from_string(spec.descriptor->name))
      spec_.mechanism = *m;
  } catch (const std::out_of_range& e) {
    throw std::invalid_argument(e.what());
  }
  return *this;
}

RunSpecBuilder& RunSpecBuilder::workload(WorkloadKind k) {
  spec_.workload = k;
  spec_.workload_name.clear();
  return *this;
}

RunSpecBuilder& RunSpecBuilder::workload(std::string_view name) {
  // Throws std::out_of_range (listing registered names) when unknown;
  // surface it as invalid_argument like the other name setters.
  try {
    spec_.workload_name = WorkloadRegistry::instance().at(name).name;
  } catch (const std::out_of_range& e) {
    throw std::invalid_argument(e.what());
  }
  if (const auto k = workload_from_string(name)) spec_.workload = *k;
  return *this;
}

RunSpecBuilder& RunSpecBuilder::instructions(std::uint64_t per_core) {
  spec_.instructions_per_core = per_core;
  return *this;
}

RunSpecBuilder& RunSpecBuilder::warmup(std::uint64_t refs) {
  spec_.warmup_refs = refs;
  return *this;
}

RunSpecBuilder& RunSpecBuilder::scale(double s) {
  if (s < 0 || s > 1)
    throw std::invalid_argument(
        "scale must be in (0, 1] (0 = workload default)");
  spec_.scale = s;
  return *this;
}

RunSpecBuilder& RunSpecBuilder::seed(std::uint64_t s) {
  spec_.seed = s;
  return *this;
}

RunSpecBuilder& RunSpecBuilder::overrides(Overrides o) {
  spec_.overrides = std::move(o);
  return *this;
}

std::vector<RunSpec> sweep(const RunSpec& base,
                           const std::vector<std::string>& mechanisms,
                           const std::vector<std::string>& workloads,
                           const std::vector<unsigned>& core_counts) {
  std::vector<RunSpec> out;
  // An empty axis contributes the base's value — one iteration.
  const std::size_t nm = mechanisms.empty() ? 1 : mechanisms.size();
  const std::size_t nw = workloads.empty() ? 1 : workloads.size();
  const std::size_t nc = core_counts.empty() ? 1 : core_counts.size();
  out.reserve(nm * nw * nc);
  for (std::size_t m = 0; m < nm; ++m)
    for (std::size_t w = 0; w < nw; ++w)
      for (std::size_t c = 0; c < nc; ++c) {
        RunSpecBuilder b(base);
        if (!mechanisms.empty()) b.mechanism(mechanisms[m]);
        if (!workloads.empty()) b.workload(workloads[w]);
        if (!core_counts.empty()) b.cores(core_counts[c]);
        out.push_back(b.build());
      }
  return out;
}

std::uint64_t default_instructions() {
  const char* env = std::getenv("NDPAGE_INSTRS");
  std::uint64_t v = 0;
  if (env && *env && !parse_number(env, v))
    throw std::invalid_argument(
        std::string("NDPAGE_INSTRS takes a number, got '") + env + "'");
  return v ? v : 150'000;
}

RunResult run_experiment(const RunSpec& spec) {
  // One-shot: a fresh Session with sharing off is exactly the historical
  // build-everything-per-run path.
  SessionOptions opts;
  opts.share_images = false;
  return Session(opts).run(spec);
}

double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : xs) {
    if (x <= 0.0) return 0.0;
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

namespace {

/// Emit a "mechanism_params" object with the resolved, typed parameter
/// values of `spec` — omitted entirely for unparameterized mechanisms, so
/// documents for the existing built-ins keep their exact shape.
void write_mechanism_params(JsonWriter& w, const MechanismSpec& spec) {
  if (spec.params.empty()) return;
  w.key("mechanism_params").begin_object();
  for (const auto& [name, value] : spec.params.entries()) {
    w.key(name);
    switch (value.type()) {
      case ParamType::kUInt: w.value(value.as_uint()); break;
      case ParamType::kDouble: w.value(value.as_double()); break;
      case ParamType::kBool: w.value(value.as_bool()); break;
    }
  }
  w.end_object();
}

void write_stats(JsonWriter& w, const StatSet& stats) {
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, v] : stats.counters()) w.key(name).value(v);
  w.end_object();
  w.key("averages").begin_object();
  for (const auto& [name, a] : stats.averages()) {
    w.key(name).begin_object();
    w.key("mean").value(a.mean());
    w.key("min").value(a.min());
    w.key("max").value(a.max());
    w.key("count").value(a.count());
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

}  // namespace

std::string to_json(const StatSet& stats) {
  JsonWriter w;
  write_stats(w, stats);
  return w.str();
}

void write_host_profile(JsonWriter& w, const HostProfile& profile,
                        const HostCounters& host) {
  w.begin_object();
  w.key("phases").begin_object();
  for (unsigned i = 0; i < kNumProfilePhases; ++i) {
    const auto p = static_cast<ProfilePhase>(i);
    w.key(std::string(to_string(p)) + "_ns").value(profile.ns(p));
  }
  w.end_object();
  w.key("total_ns").value(profile.total_ns());
  w.key("counters").begin_object();
  w.key("events").value(host.events);
  w.key("heap_pushes").value(host.heap_pushes);
  w.key("heap_peak").value(host.heap_peak);
  w.key("image_builds").value(host.image_builds);
  w.key("image_hits").value(host.image_hits);
  w.key("prefault_pages").value(host.prefault_pages);
  w.key("prefault_run_pages").value(host.prefault_run_pages);
  w.end_object();
  w.end_object();
}

std::string to_json(const RunResult& r, const RunSpec* spec,
                    bool include_host_profile) {
  JsonWriter w;
  w.begin_object();
  if (spec) {
    const MechanismSpec mech =
        resolve_mechanism_spec(spec->mechanism, spec->mechanism_name);
    w.key("spec").begin_object();
    w.key("system").value(to_string(spec->system));
    w.key("cores").value(spec->cores);
    w.key("mechanism").value(mech.canonical);
    write_mechanism_params(w, mech);
    w.key("workload").value(spec->workload_label());
    w.key("instructions_per_core")
        .value(spec->instructions_per_core ? spec->instructions_per_core
                                           : default_instructions());
    w.key("seed").value(spec->seed);
    if (spec->scale > 0) w.key("scale").value(spec->scale);
    if (spec->overrides.any()) {
      w.key("overrides").begin_object();
      if (spec->overrides.bypass)
        w.key("bypass").value(*spec->overrides.bypass);
      if (spec->overrides.pwc_levels) {
        w.key("pwc_levels").begin_array();
        for (unsigned l : *spec->overrides.pwc_levels) w.value(l);
        w.end_array();
      }
      if (spec->overrides.dram)
        w.key("dram").value(spec->overrides.dram->name);
      w.end_object();
    }
    w.end_object();
  } else if (!r.meta.mechanism.empty()) {
    w.key("spec").begin_object();
    w.key("system").value(r.meta.system);
    w.key("cores").value(r.meta.cores);
    w.key("mechanism").value(r.meta.mechanism);
    if (!r.meta.mechanism_params.empty()) {
      w.key("mechanism_params").begin_object();
      for (const auto& [name, value] : r.meta.mechanism_params)
        w.key(name).value(value);
      w.end_object();
    }
    w.key("workload").value(r.meta.workload);
    w.key("instructions_per_core").value(r.meta.instructions_per_core);
    w.key("seed").value(r.meta.seed);
    w.end_object();
  }
  w.key("total_cycles").value(static_cast<std::uint64_t>(r.total_cycles));
  w.key("total_instructions").value(r.total_instructions());
  w.key("ipc").value(r.ipc);
  w.key("avg_ptw_latency").value(r.avg_ptw_latency);
  w.key("translation_fraction").value(r.translation_fraction);
  w.key("l1_tlb_miss_rate").value(r.l1_tlb_miss_rate);
  w.key("l2_tlb_miss_rate").value(r.l2_tlb_miss_rate);
  w.key("pte_access_share").value(r.pte_access_share);
  w.key("cores").begin_array();
  for (const CoreStats& c : r.cores) {
    w.begin_object();
    w.key("instructions").value(c.instructions);
    w.key("memrefs").value(c.memrefs);
    w.key("cycles").value(static_cast<std::uint64_t>(c.cycles()));
    w.key("translation_cycles").value(c.translation_cycles);
    w.key("data_cycles").value(c.data_cycles);
    w.key("gap_cycles").value(c.gap_cycles);
    w.key("fault_cycles").value(c.fault_cycles);
    w.end_object();
  }
  w.end_array();
  w.key("stats");
  write_stats(w, r.stats);
  if (include_host_profile) {
    w.key("host_profile");
    write_host_profile(w, r.host_profile, r.host);
  }
  w.end_object();
  return w.str();
}

}  // namespace ndp
