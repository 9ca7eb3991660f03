#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricDef>& catalogue() {
  static const std::vector<MetricDef> defs = {
      // End to end (untraced run).
      {"grid_s", "s", "lower", false},
      {"setup_s", "s", "lower", false},
      {"peak_rss_mb", "MB", "lower", false},
      {"sim_cycles", "cycles", "lower", false},
      {"req_p50_ms", "ms", "lower", false},
      {"req_p90_ms", "ms", "lower", false},
      {"first_cell_p50_ms", "ms", "lower", false},
      {"req_per_s", "req/s", "higher", false},
      // Per layer (traced run). Setup path.
      {"sim.session.image_ms", "ms", "lower", true},
      {"core.system_build_ms", "ms", "lower", true},
      {"workloads.material_ms", "ms", "lower", true},
      {"translate.prefault_ms", "ms", "lower", true},
      {"translate.prefault_ns_per_page", "ns", "lower", true},
      {"translate.table_mb", "MB", "lower", true},
      {"core.teardown_ms", "ms", "lower", true},
      {"unattributed_ms", "ms", "lower", true},
      {"cell_wall_ms", "ms", "lower", true},
      {"sim.serialize_ms", "ms", "lower", true},
      // Engine.
      {"sim.engine.warmup_ms", "ms", "lower", true},
      {"sim.engine.run_ms", "ms", "lower", true},
      {"sim.engine.run_ns_per_instr", "ns", "lower", true},
      {"sim.engine.run_ns_per_event", "ns", "lower", true},
      {"sim.engine.events_per_kinstr", "count", "lower", true},
      {"sim.engine.heap_peak", "count", "lower", true},
      // Run-path components: host cost per call, from outside.
      {"workloads.next_ns", "ns", "lower", true},
      {"translate.tlb.lookup_ns", "ns", "lower", true},
      {"translate.walk_ns", "ns", "lower", true},
      {"cache.access_ns", "ns", "lower", true},
      {"noc.to_memory_ns", "ns", "lower", true},
      {"dram.access_ns", "ns", "lower", true},
      {"sim.event_heap.push_pop_ns", "ns", "lower", true},
      // Run-path components: deterministic work counts from the StatSets.
      {"translate.tlb.l1_miss_per_kinstr", "count", "lower", true},
      {"translate.tlb.l2_miss_ratio", "ratio", "lower", true},
      {"translate.pwc.hit_ratio", "ratio", "higher", true},
      {"translate.walker.walks_per_kinstr", "count", "lower", true},
      {"translate.walker.pte_reads_per_walk", "count", "lower", true},
      {"core.mmu.coalesced_ratio", "ratio", "higher", true},
      {"cache.accesses_per_kinstr", "count", "lower", true},
      {"cache.l1_meta_miss_ratio", "ratio", "lower", true},
      {"noc.packets_per_kinstr", "count", "lower", true},
      {"dram.accesses_per_kinstr", "count", "lower", true},
      {"dram.queue_delay_cycles", "cycles", "lower", true},
      {"dram.row_hit_ratio", "ratio", "higher", true},
      // Simulated-time attribution.
      {"sim.translation_share", "ratio", "lower", true},
      {"sim.ptw_cycles", "cycles", "lower", true},
      // Serving tiers, measured from outside.
      {"fleet.run_grid_ms", "ms", "lower", true},
      {"serve.shard_ms", "ms", "lower", true},
      {"fleet.merge_ms", "ms", "lower", true},
      {"serve.framing_ms", "ms", "lower", true},
      {"serve.client_overhead_ms", "ms", "lower", true},
      {"fleet.coordinator_overhead_ms", "ms", "lower", true},
      // Cache effectiveness and failures.
      {"sim.session.prepared_hit_ratio", "ratio", "higher", true},
      {"sim.session.snapshot_ms", "ms", "lower", true},
      {"sim.session.image_hit_ratio", "ratio", "higher", true},
      {"fleet.result_cache.hit_ratio", "ratio", "higher", true},
      {"fleet.retries", "count", "lower", true},
      {"fleet.failovers", "count", "lower", true},
      {"serve.error_envelopes", "count", "lower", true},
      // Observability.
      {"trace_overhead", "ratio", "lower", true},
  };
  return defs;
}

void Report::fail(const std::string& what) {
  ++failed_;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
}

void Report::check(bool ok, const std::string& what) {
  attempt();
  if (!ok) fail("check: " + what);
}

void Report::set(const std::string& name, double value,
                 const std::string& note) {
  values_[name] = {value, note};
}

void Report::print(bool per_layer) {
  std::vector<std::pair<const MetricDef*, double>> emitted;
  for (const MetricDef& d : catalogue()) {
    if (d.per_layer != per_layer) continue;
    auto it = values_.find(d.name);
    if (it == values_.end() || !std::isfinite(it->second.first)) {
      fail(std::string("metric not measured: ") + d.name);
      continue;
    }
    std::printf("%-36s %16.6f %-7s (%s is better)%s%s\n", d.name,
                it->second.first, d.unit, d.better,
                it->second.second.empty() ? "" : "  ",
                it->second.second.c_str());
    emitted.emplace_back(&d, it->second.first);
  }
  ndp::JsonWriter w;
  w.begin_object();
  w.key("correct").value(failed_ == 0);
  w.key("attempted").value(std::max<std::uint64_t>(attempted_, 1));
  w.key("failed").value(failed_);
  w.key("metrics").begin_object();
  for (const auto& [d, v] : emitted) {
    w.key(d->name).begin_object();
    w.key("value").value(v);
    w.key("unit").value(d->unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 0.5); }

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double ms_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

double ratio(double a, double b) { return b != 0 ? a / b : 0.0; }

std::string Inputs::seeded(const ndp::JsonValue& grid) const {
  std::vector<ndp::JsonValue::Member> members;
  for (const auto& [key, value] : grid.members()) {
    if (key == "seed") continue;
    if (tiny && key == "scale") continue;
    if (tiny && key == "instructions") continue;
    members.emplace_back(key, value);
  }
  members.emplace_back("seed",
                       ndp::JsonValue::make_number(static_cast<double>(seed)));
  if (tiny) {
    members.emplace_back("scale", ndp::JsonValue::make_number(tiny_scale));
    members.emplace_back("instructions",
                         ndp::JsonValue::make_number(
                             static_cast<double>(tiny_instructions)));
  }
  return ndp::JsonValue::make_object(std::move(members)).dump();
}

Inputs load_inputs(const std::string& path, const std::string& workload,
                   std::uint64_t seed, double seconds, bool tiny) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  const ndp::JsonValue all = ndp::JsonValue::parse(text.str());
  const ndp::JsonValue* w = all.find(workload);
  if (!w || workload == "tiny" || !w->find("kind"))
    throw std::invalid_argument("unknown workload '" + workload + "'");
  Inputs in_;
  in_.name = workload;
  in_.kind = w->at("kind").as_string();
  in_.seed = seed;
  in_.seconds = seconds;
  in_.tiny = tiny;
  in_.doc = *w;
  if (tiny) {
    const ndp::JsonValue& t = all.at("tiny");
    in_.tiny_scale = t.at("scale").as_double();
    in_.tiny_instructions = t.at("instructions").as_u64();
    in_.seconds = std::min(seconds, t.at("seconds").as_double());
  }
  if (in_.kind == "batch") {
    for (const ndp::JsonValue& g : w->at("grids").array())
      in_.grid_texts.push_back(in_.seeded(g));
  } else if (in_.kind == "fleet") {
    in_.grid_texts.push_back(in_.seeded(w->at("warmup")));
  } else {
    throw std::invalid_argument("workload '" + workload + "': unknown kind");
  }
  return in_;
}

std::uint64_t document_cycles(const std::string& document) {
  std::uint64_t sum = 0;
  for (std::string_view cell :
       ndp::raw_elements(ndp::raw_member(document, "results")))
    sum += std::stoull(std::string(ndp::raw_member(cell, "total_cycles")));
  return sum;
}

}  // namespace perfbench
