#include "layers.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "core/system.h"
#include "sim/engine.h"
#include "sim/event_heap.h"
#include "workloads/workload_registry.h"

namespace perfbench {

namespace {

using ndp::ProfilePhase;

volatile std::uint64_t g_sink = 0;  ///< keeps probe loops observable

std::vector<ndp::RunConfig> load_configs(
    const std::vector<std::string>& grid_texts) {
  std::vector<ndp::RunConfig> configs;
  for (const std::string& text : grid_texts)
    configs.push_back(ndp::RunConfig::from_json(text));
  return configs;
}

std::vector<ndp::RunSpec> expand_all(
    const std::vector<ndp::RunConfig>& configs) {
  std::vector<ndp::RunSpec> specs;
  for (const ndp::RunConfig& c : configs)
    for (ndp::RunSpec& s : c.expand()) specs.push_back(std::move(s));
  return specs;
}

/// What Session::run derives from a spec before building anything.
ndp::SystemConfig system_config(const ndp::RunSpec& spec) {
  ndp::SystemConfig sc =
      spec.system == ndp::SystemKind::kNdp
          ? ndp::SystemConfig::ndp(spec.cores, spec.mechanism)
          : ndp::SystemConfig::cpu(spec.cores, spec.mechanism);
  sc.mechanism_name = spec.mechanism_name;
  sc.seed = spec.seed;
  sc.overrides = spec.overrides;
  return sc;
}

ndp::WorkloadParams workload_params(const ndp::RunSpec& spec) {
  ndp::WorkloadParams wp;
  wp.num_cores = spec.cores;
  if (spec.scale > 0) wp.scale = spec.scale;
  wp.seed = spec.seed;
  return wp;
}

ndp::EngineConfig engine_config(const ndp::RunSpec& spec,
                                const ndp::TraceMaterial* material) {
  ndp::EngineConfig ec;
  ec.material = material;
  ec.instructions_per_core = spec.instructions_per_core
                                 ? spec.instructions_per_core
                                 : ndp::default_instructions();
  ec.warmup_refs_per_core = spec.warmup_refs ? spec.warmup_refs
                                             : ec.instructions_per_core / 15;
  return ec;
}

/// The identity Session::run stamps on a result, so a traced cell
/// serializes exactly like a served or batch one.
void stamp_meta(ndp::RunResult& r, const ndp::RunSpec& spec,
                const ndp::SystemConfig& sc, const ndp::EngineConfig& ec,
                bool image_built) {
  r.host.image_builds = image_built ? 1 : 0;
  r.host.image_hits = image_built ? 0 : 1;
  r.meta.system = ndp::to_string(spec.system);
  const ndp::MechanismSpec mech = sc.mechanism_spec();
  r.meta.mechanism = mech.canonical;
  for (const auto& [name, value] : mech.params.entries())
    r.meta.mechanism_params.emplace_back(name, value.text());
  r.meta.workload = spec.workload_label();
  r.meta.cores = spec.cores;
  r.meta.instructions_per_core = ec.instructions_per_core;
  r.meta.seed = spec.seed;
}

ndp::SweepCell traced_cell(ndp::Session& session, const ndp::RunSpec& spec,
                           Tracer& tracer, CellFacts& facts) {
  ScopedSpan cell(tracer, "cell", tracer.next_trace_id());
  const ndp::SystemConfig sc = system_config(spec);

  std::shared_ptr<const ndp::SystemImage> image;
  bool built = false;
  {
    ScopedSpan s(tracer, "sim.session.image_for");
    image = session.image_for(sc, &built);
  }
  std::unique_ptr<ndp::System> system;
  {
    ScopedSpan s(tracer, "core.system_build");
    system = std::make_unique<ndp::System>(sc, *image);
  }
  std::unique_ptr<ndp::TraceSource> trace;
  std::unique_ptr<ndp::TraceMaterial> material;
  {
    ScopedSpan s(tracer, "workloads.material");
    trace = ndp::resolve_workload(spec.workload, spec.workload_name)
                .make(workload_params(spec));
    material = std::make_unique<ndp::TraceMaterial>(
        ndp::TraceMaterial::of(*trace));
  }
  const ndp::EngineConfig ec = engine_config(spec, material.get());
  auto engine = std::make_unique<ndp::Engine>(*system, *trace, ec);
  {
    ScopedSpan s(tracer, "translate.prefault");
    engine->prepare();
  }
  facts.mapped_pages = system->space().mapped_pages();
  facts.table_bytes = system->space().page_table().table_bytes();

  ndp::SweepCell out;
  out.spec = spec;
  {
    ScopedSpan s(tracer, "sim.engine");
    out.result = engine->run();
    // Engine::run stamps warmup, run and collect back to back and returns
    // right after collect; lay its own phase timers out as child spans
    // ending now, so the engine span's self time is what no phase covers.
    const ndp::HostProfile& p = out.result.host_profile;
    std::int64_t end = now_ns();
    for (auto [phase, name] :
         {std::pair{ProfilePhase::kCollect, "sim.engine.collect"},
          std::pair{ProfilePhase::kRun, "sim.engine.run"},
          std::pair{ProfilePhase::kWarmup, "sim.engine.warmup"}}) {
      const std::int64_t start = std::max(
          s.start_ns(), end - static_cast<std::int64_t>(p.ns(phase)));
      tracer.add(name, s.trace(), s.id(), start, end);
      end = start;
    }
  }
  stamp_meta(out.result, spec, sc, ec, built);
  {
    ScopedSpan s(tracer, "core.teardown");
    engine.reset();
    system.reset();
    trace.reset();
    material.reset();
    image.reset();
  }
  return out;
}

double setup_ns(const ndp::HostProfile& p) {
  return static_cast<double>(
      p.ns(ProfilePhase::kBuild) + p.ns(ProfilePhase::kBuildCached) +
      p.ns(ProfilePhase::kInstall) + p.ns(ProfilePhase::kPrefault) +
      p.ns(ProfilePhase::kSnapshot));
}

}  // namespace

std::string cell_json(const ndp::SweepCell& cell) {
  return ndp::to_json(cell.result, &cell.spec);
}

TracedGrid run_traced_grid(const std::vector<std::string>& grid_texts,
                           unsigned jobs, Tracer& tracer) {
  TracedGrid g;
  ScopedSpan grid(tracer, "grid", tracer.next_trace_id());
  const std::int64_t t0 = now_ns();
  std::vector<ndp::RunConfig> configs;
  std::vector<ndp::RunSpec> specs;
  {
    ScopedSpan s(tracer, "sim.run_config.load");
    configs = load_configs(grid_texts);
    specs = expand_all(configs);
  }
  g.results.cells.resize(specs.size());
  g.facts.resize(specs.size());
  ndp::Session session;  // sharing on, as run_sweep's own Session
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::exception_ptr first_error;
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= specs.size()) return;
      try {
        g.results.cells[i] = traced_cell(session, specs[i], tracer, g.facts[i]);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!first_error) first_error = std::current_exception();
        return;
      }
    }
  };
  // Cells always run on pool threads (even at jobs 1), so every cell span
  // is a root and the grid span never parents some cells but not others.
  const unsigned n = std::max(
      1u, std::min<unsigned>(jobs, static_cast<unsigned>(specs.size())));
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < n; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);

  g.results.name = configs.front().name;
  g.results.baseline = configs.front().baseline;
  g.results.jobs_used = n;
  {
    ScopedSpan s(tracer, "sim.serialize");
    g.document = ndp::to_json(g.results);
    g.serialize_ms = ms_between(s.start_ns(), now_ns());
  }
  g.wall_ms = ms_between(t0, now_ns());
  return g;
}

PlainGrid run_plain_grid(const std::vector<std::string>& grid_texts,
                         unsigned jobs) {
  PlainGrid g;
  const std::int64_t t0 = now_ns();
  const std::vector<ndp::RunConfig> configs = load_configs(grid_texts);
  const std::vector<ndp::RunSpec> specs = expand_all(configs);
  g.cell_ms.assign(specs.size(), 0.0);
  // Each pool thread runs its cells back to back, so a cell's latency is
  // the gap since that thread's previous completion (or the grid start).
  std::map<std::thread::id, std::int64_t> last_done;
  ndp::SweepOptions opts;
  opts.jobs = jobs;
  opts.cell_done = [&](std::size_t index, const ndp::SweepCell&) {
    const std::int64_t now = now_ns();
    auto it = last_done.emplace(std::this_thread::get_id(), t0).first;
    g.cell_ms[index] = ms_between(it->second, now);
    it->second = now;
  };
  g.results = ndp::run_sweep(specs, opts);
  g.results.name = configs.front().name;
  g.results.baseline = configs.front().baseline;
  g.document = ndp::to_json(g.results);
  g.wall_ms = ms_between(t0, now_ns());
  for (const ndp::SweepCell& c : g.results.cells)
    g.setup_ms += setup_ns(c.result.host_profile) / 1e6;
  return g;
}

double first_cell_probe(const std::vector<std::string>& grid_texts,
                        unsigned jobs) {
  const std::int64_t t0 = now_ns();
  const std::vector<ndp::RunSpec> specs = expand_all(load_configs(grid_texts));
  std::atomic<bool> stop{false};
  std::int64_t done = 0;
  ndp::SweepOptions opts;
  opts.jobs = jobs;
  opts.cancel = &stop;
  opts.cell_done = [&](std::size_t index, const ndp::SweepCell&) {
    if (index != 0) return;
    done = now_ns();
    stop = true;
  };
  ndp::run_sweep(specs, opts);
  return ms_between(t0, done);
}

void print_profile_gap(const PlainGrid& grid) {
  double wall = 0, phases = 0, lo = 1, hi = 0;
  for (std::size_t i = 0; i < grid.results.cells.size(); ++i) {
    const double p =
        static_cast<double>(grid.results.cells[i].result.host_profile.total_ns()) /
        1e6;
    const double gap = 1.0 - ratio(p, grid.cell_ms[i]);
    wall += grid.cell_ms[i];
    phases += p;
    lo = std::min(lo, gap);
    hi = std::max(hi, gap);
  }
  std::printf(
      "untraced cells: %.1f ms wall, HostProfile phases cover %.1f ms; "
      "%.1f%% in no phase (%.1f%%..%.1f%% per cell)\n",
      wall, phases, 100.0 * (1.0 - ratio(phases, wall)), 100.0 * lo,
      100.0 * hi);
}

void report_layers(const std::vector<const TracedGrid*>& grids,
                   const Tracer& tracer, Report& report) {
  std::map<std::string, double> self = tracer.self_ms_by_name();
  double cell_wall_ms = 0, serialize_ms = 0;
  for (const Span& s : tracer.spans())
    if (s.name == "cell") cell_wall_ms += ms_between(s.start_ns, s.end_ns);

  ndp::StatSet merged;
  double instrs = 0, events = 0, run_ns = 0, engine_ns = 0, pages = 0;
  double heap_peak = 0, table_bytes = 0;
  double trans = 0, busy = 0;
  for (const TracedGrid* g : grids) {
    serialize_ms += g->serialize_ms;
    for (std::size_t i = 0; i < g->results.cells.size(); ++i) {
      const ndp::RunResult& r = g->results.cells[i].result;
      merged.merge(r.stats);
      instrs += static_cast<double>(r.total_instructions());
      events += static_cast<double>(r.host.events);
      run_ns += static_cast<double>(r.host_profile.ns(ProfilePhase::kRun));
      engine_ns += static_cast<double>(
          r.host_profile.ns(ProfilePhase::kWarmup) +
          r.host_profile.ns(ProfilePhase::kRun));
      heap_peak = std::max(heap_peak, static_cast<double>(r.host.heap_peak));
      pages += static_cast<double>(g->facts[i].mapped_pages);
      table_bytes =
          std::max(table_bytes, static_cast<double>(g->facts[i].table_bytes));
      for (const ndp::CoreStats& c : r.cores) {
        trans += static_cast<double>(c.translation_cycles);
        busy += static_cast<double>(c.translation_cycles + c.data_cycles +
                                    c.gap_cycles + c.memrefs);
      }
    }
  }
  const double kinstr = instrs / 1000.0;
  auto get = [&](const char* key) {
    return static_cast<double>(merged.get(key));
  };
  auto mean = [&](const char* key) { return merged.mean(key); };

  report.set("sim.session.image_ms", self["sim.session.image_for"]);
  report.set("core.system_build_ms", self["core.system_build"]);
  report.set("workloads.material_ms", self["workloads.material"]);
  report.set("translate.prefault_ms", self["translate.prefault"]);
  report.set("translate.prefault_ns_per_page",
             ratio(self["translate.prefault"] * 1e6, pages));
  report.set("translate.table_mb", table_bytes / (1 << 20),
             "largest single-cell page table");
  report.set("core.teardown_ms", self["core.teardown"]);
  report.set("unattributed_ms", self["cell"],
             "cell wall no layer span covers");
  report.set("cell_wall_ms", cell_wall_ms, "sum over traced cells");
  report.set("sim.serialize_ms", serialize_ms, "to_json(SweepResults)");
  report.set("sim.engine.warmup_ms", self["sim.engine.warmup"]);
  report.set("sim.engine.run_ms", self["sim.engine.run"]);
  report.set("sim.engine.run_ns_per_instr", ratio(run_ns, instrs));
  report.set("sim.engine.run_ns_per_event", ratio(engine_ns, events),
             "warmup+run ns per event");
  report.set("sim.engine.events_per_kinstr", ratio(events, kinstr));
  report.set("sim.engine.heap_peak", heap_peak);

  double pwc_hits = 0, pwc_total = 0;
  for (const auto& [key, value] : merged.counters()) {
    if (key.rfind("pwc.", 0) != 0) continue;
    if (key.size() > 4 && key.compare(key.size() - 4, 4, ".hit") == 0)
      pwc_hits += static_cast<double>(value);
    pwc_total += static_cast<double>(value);
  }
  report.set("translate.tlb.l1_miss_per_kinstr",
             ratio(get("tlb.l1d.miss"), kinstr));
  report.set("translate.tlb.l2_miss_ratio",
             ratio(get("tlb.l2.miss"), get("tlb.l2.miss") + get("tlb.l2.hit")));
  report.set("translate.pwc.hit_ratio", ratio(pwc_hits, pwc_total));
  report.set("translate.walker.walks_per_kinstr",
             ratio(get("walker.walks"), kinstr));
  report.set("translate.walker.pte_reads_per_walk",
             ratio(get("walker.mem_accesses"), get("walker.walks")));
  report.set("core.mmu.coalesced_ratio",
             ratio(get("mmu.coalesced_walks"),
                   get("mmu.coalesced_walks") + get("mmu.walks")));
  report.set("cache.accesses_per_kinstr", ratio(get("mem.access"), kinstr));
  report.set("cache.l1_meta_miss_ratio",
             ratio(get("l1.miss.meta"), get("l1.miss.meta") + get("l1.hit.meta")));
  report.set("noc.packets_per_kinstr", ratio(get("noc.packet"), kinstr));
  report.set("dram.accesses_per_kinstr", ratio(get("dram.access"), kinstr));
  report.set("dram.queue_delay_cycles", mean("dram.queue_delay"));
  report.set("dram.row_hit_ratio",
             ratio(get("dram.row_hit"), get("dram.row_hit") + get("dram.row_miss")));
  report.set("sim.translation_share", ratio(trans, busy));
  report.set("sim.ptw_cycles", mean("walker.latency"));

  // The traced cells' wall, layer by layer: the named spans plus the
  // engine's unphased remainder and the cell's own unattributed gap add up
  // to the outside-measured wall exactly (self times partition it).
  const char* parts[] = {"sim.session.image_for", "core.system_build",
                         "workloads.material",    "translate.prefault",
                         "sim.engine.warmup",     "sim.engine.run",
                         "sim.engine.collect",    "sim.engine",
                         "core.teardown",         "cell"};
  double sum = 0;
  std::printf("traced cells: %.1f ms wall =", cell_wall_ms);
  for (const char* p : parts) {
    sum += self[p];
    std::printf(" %s %.1f (%.1f%%)%s", std::string(p) == "cell" ? "unattributed" : p,
                self[p], 100.0 * ratio(self[p], cell_wall_ms),
                p == parts[9] ? "" : " +");
  }
  std::printf("; parts sum to %.1f ms\n", sum);
}

void report_component_costs(ndp::Session& session, const ndp::RunSpec& spec,
                            const std::string& expected_cell_json,
                            Report& report) {
  constexpr std::size_t kCalls = 1 << 15;
  constexpr int kReps = 5;
  const ndp::SystemConfig sc = system_config(spec);
  bool built = false;
  const std::shared_ptr<const ndp::SystemImage> image =
      session.image_for(sc, &built);
  ndp::System sys(sc, *image);
  const ndp::WorkloadDescriptor& wd =
      ndp::resolve_workload(spec.workload, spec.workload_name);
  auto trace = wd.make(workload_params(spec));
  const ndp::TraceMaterial material = ndp::TraceMaterial::of(*trace);
  const ndp::EngineConfig ec = engine_config(spec, &material);
  ndp::Engine engine(sys, *trace, ec);
  engine.prepare();

  std::vector<double> snap;
  for (int i = 0; i < 3; ++i) {
    const std::int64_t t = now_ns();
    auto prep = sys.snapshot_prepared(image);
    snap.push_back(ms_between(t, now_ns()));
    g_sink = g_sink + (prep ? 1 : 0);
  }
  report.set("sim.session.snapshot_ms", median(snap),
             "one System::snapshot_prepared");

  ndp::SweepCell probe;
  probe.spec = spec;
  probe.result = engine.run();
  stamp_meta(probe.result, spec, sc, ec, built);
  report.check(cell_json(probe) == expected_cell_json,
               "probe cell result equals the grid's cell");

  // Each probe repeats kReps passes over the same kCalls inputs and keeps
  // the median pass: ns per call, on the warm post-run System.
  const unsigned cores = spec.cores;
  auto timed = [&](const char* name, auto&& pass, std::size_t calls) {
    std::vector<double> ns;
    for (int r = 0; r < kReps; ++r) {
      const std::int64_t t = now_ns();
      pass();
      ns.push_back(static_cast<double>(now_ns() - t) /
                   static_cast<double>(std::max<std::size_t>(calls, 1)));
    }
    report.set(name, median(ns));
  };

  auto stream = wd.make(workload_params(spec));
  std::vector<ndp::MemRef> refs(kCalls);
  timed("workloads.next_ns", [&] {
    for (std::size_t i = 0; i < kCalls; ++i)
      refs[i] = stream->next(static_cast<unsigned>(i % cores));
  }, kCalls);
  std::vector<ndp::VirtAddr> vas;
  std::vector<ndp::PhysAddr> pas;
  for (const ndp::MemRef& m : refs) {
    if (auto pa = sys.space().translate(m.va)) {
      vas.push_back(m.va);
      pas.push_back(*pa);
    }
  }
  ndp::Tlb tlb = sys.mmu(0).l1_dtlb();
  timed("translate.tlb.lookup_ns", [&] {
    std::uint64_t hits = 0;
    for (ndp::VirtAddr va : vas) hits += tlb.lookup(va).has_value();
    g_sink = g_sink + hits;
  }, vas.size());
  const ndp::PageTable& pt = sys.space().page_table();
  ndp::WalkPath path;
  timed("translate.walk_ns", [&] {
    std::uint64_t steps = 0;
    for (ndp::VirtAddr va : vas) {
      pt.walk_into(va >> ndp::kPageShift, path);
      steps += path.steps.size();
    }
    g_sink = g_sink + steps;
  }, vas.size());
  ndp::MemorySystem& mem = sys.mem();
  ndp::Cycle now = 1ull << 40;
  timed("cache.access_ns", [&] {
    for (std::size_t i = 0; i < pas.size(); ++i)
      g_sink = g_sink + mem.access(now++, static_cast<unsigned>(i % cores),
                                   pas[i], ndp::AccessType::kRead,
                                   ndp::AccessClass::kData)
                            .finish;
  }, pas.size());
  timed("noc.to_memory_ns", [&] {
    for (std::size_t i = 0; i < pas.size(); ++i)
      g_sink = g_sink + mem.mesh().to_memory(now++, static_cast<unsigned>(i % cores),
                                             mem.dram().channel_of(pas[i]));
  }, pas.size());
  timed("dram.access_ns", [&] {
    for (std::size_t i = 0; i < pas.size(); ++i)
      g_sink = g_sink + mem.dram()
                            .access(now++, pas[i], ndp::AccessType::kRead,
                                    ndp::AccessClass::kData)
                            .finish;
  }, pas.size());
  // The engine keeps cores x (mlp + 1) events outstanding; replay the
  // stream's gaps as event-time deltas at that occupancy.
  ndp::EventHeap heap(static_cast<std::size_t>(cores) * (sys.mlp() + 1));
  for (unsigned c = 0; c < cores; ++c)
    for (unsigned s = 0; s <= sys.mlp(); ++s)
      heap.push(ndp::EngineEvent{refs[(c * 31 + s) % kCalls].gap, c, s});
  timed("sim.event_heap.push_pop_ns", [&] {
    for (std::size_t i = 0; i < kCalls; ++i) {
      ndp::EngineEvent e = heap.top();
      heap.pop();
      e.time += 1 + refs[i].gap % 64;
      heap.push(e);
    }
  }, kCalls);
}

}  // namespace perfbench
