#include "sim/sweep_runner.h"

#include <atomic>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/json.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ndp {

namespace {

/// Process-wide sweep-progress metrics (obs/metrics.h). Queue depth counts
/// cells claimed-or-pending across every in-flight run_sweep in the
/// process — the fleet-mode "how far behind is this worker" signal.
struct SweepMetrics {
  obs::Counter& cells_ok = obs::Metrics::instance().counter(
      "ndpsim_sweep_cells_total", "Sweep cells finished, by outcome",
      "outcome=\"ok\"");
  obs::Counter& cells_failed = obs::Metrics::instance().counter(
      "ndpsim_sweep_cells_total", "Sweep cells finished, by outcome",
      "outcome=\"failed\"");
  obs::Gauge& queue_depth = obs::Metrics::instance().gauge(
      "ndpsim_sweep_queue_depth",
      "Cells of in-flight sweeps not yet completed");

  static SweepMetrics& get() {
    static SweepMetrics m;
    return m;
  }
};

}  // namespace

SweepResults run_sweep(const std::vector<RunSpec>& specs,
                       const SweepOptions& opts) {
  const auto t_start = HostProfile::Clock::now();
  SweepResults out;
  if (opts.shard_count > 1) {
    // Round-robin slice: cell k of the full grid belongs to shard
    // k % shard_count, so the (similar-cost) neighbours of a workload or
    // core-count axis spread across shards instead of clumping in one.
    if (opts.shard_index >= opts.shard_count)
      throw std::invalid_argument(
          "run_sweep: shard index " + std::to_string(opts.shard_index) +
          " out of range for " + std::to_string(opts.shard_count) + " shards");
    ShardInfo info;
    info.index = opts.shard_index;
    info.count = opts.shard_count;
    info.total_cells = specs.size();
    for (std::size_t k = opts.shard_index; k < specs.size();
         k += opts.shard_count) {
      info.indices.push_back(k);
      out.cells.emplace_back();
      out.cells.back().spec = specs[k];
    }
    out.shard = std::move(info);
  } else {
    out.cells.resize(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
      out.cells[i].spec = specs[i];
  }

  const std::size_t total = out.cells.size();
  unsigned jobs = opts.jobs ? opts.jobs : std::thread::hardware_concurrency();
  if (jobs == 0) jobs = 1;
  if (total < jobs) jobs = static_cast<unsigned>(total ? total : 1);
  out.jobs_used = jobs;

  // All cells route through one thread-safe Session so they share prepared
  // system images; results do not depend on sharing (or the job count).
  SessionOptions session_opts;
  session_opts.image_store = opts.image_store;
  Session local_session(session_opts);
  Session& session = opts.session ? *opts.session : local_session;

  // Work-stealing by atomic index: completion order varies with scheduling,
  // but cell i always lands in slot i, so the result set is deterministic.
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<std::size_t> finished{0};  ///< ok + failed (gauge accounting)
  std::atomic<bool> failed{false};
  std::mutex mu;  // guards progress callback + first_error
  std::exception_ptr first_error;

  SweepMetrics::get().queue_depth.add(static_cast<std::int64_t>(total));

  auto worker = [&] {
    while (!failed.load(std::memory_order_relaxed) &&
           !(opts.cancel && opts.cancel->load(std::memory_order_relaxed))) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= total) return;
      SweepCell& cell = out.cells[i];
      try {
        // Perfetto view: one "cell" span per executed spec, with the host
        // phases (build/prefault/run/...) nested inside it on this thread.
        obs::ScopedTraceSpan span(
            cell.spec.mechanism_label() + '/' + cell.spec.workload_label() +
                '/' + std::to_string(cell.spec.cores) + 'c',
            "cell");
        cell.result = session.run(cell.spec);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        SweepMetrics::get().cells_failed.inc();
        SweepMetrics::get().queue_depth.add(-1);
        finished.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      SweepMetrics::get().cells_ok.inc();
      SweepMetrics::get().queue_depth.add(-1);
      finished.fetch_add(1, std::memory_order_relaxed);
      const std::size_t completed =
          done.fetch_add(1, std::memory_order_relaxed) + 1;
      if (opts.progress || opts.cell_done) {
        std::lock_guard<std::mutex> lock(mu);
        if (opts.progress) opts.progress(completed, total, cell.spec);
        if (opts.cell_done) opts.cell_done(i, cell);
      }
    }
  };

  if (jobs <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  // Cells never claimed (cancellation, a failed sibling) leave the queue
  // with the sweep — the gauge must not drift upward across runs.
  SweepMetrics::get().queue_depth.add(-static_cast<std::int64_t>(
      total - finished.load(std::memory_order_relaxed)));
  if (first_error) std::rethrow_exception(first_error);
  out.session = session.stats();
  out.host_wall_ns = HostProfile::since_ns(t_start);
  return out;
}

SweepResults run_sweep(const RunConfig& config, const SweepOptions& opts) {
  SweepOptions effective = opts;
  // The config can name a store directory; an explicit caller value (the
  // --image-store flag) wins.
  if (effective.image_store.empty()) effective.image_store = config.image_store;
  SweepResults out = run_sweep(config.expand(), effective);
  out.name = config.name;
  out.baseline = config.baseline;
  return out;
}

HostProfile SweepResults::merged_host_profile() const {
  HostProfile p;
  for (const SweepCell& c : cells) p.merge(c.result.host_profile);
  return p;
}

HostCounters SweepResults::merged_host_counters() const {
  HostCounters h;
  for (const SweepCell& c : cells) h.merge(c.result.host);
  return h;
}

std::uint64_t SweepResults::total_instructions() const {
  std::uint64_t n = 0;
  for (const SweepCell& c : cells) n += c.result.total_instructions();
  return n;
}

// --- aggregation ------------------------------------------------------------

double metric_of(const RunResult& r, Metric m) {
  switch (m) {
    case Metric::kCycles: return static_cast<double>(r.total_cycles);
    case Metric::kIpc: return r.ipc;
    case Metric::kPtwLatency: return r.avg_ptw_latency;
    case Metric::kTranslationFraction: return r.translation_fraction;
    case Metric::kL1TlbMissRate: return r.l1_tlb_miss_rate;
    case Metric::kL2TlbMissRate: return r.l2_tlb_miss_rate;
    case Metric::kPteAccessShare: return r.pte_access_share;
  }
  return 0.0;
}

std::string to_string(Metric m) {
  switch (m) {
    case Metric::kCycles: return "cycles";
    case Metric::kIpc: return "ipc";
    case Metric::kPtwLatency: return "avg_ptw_latency";
    case Metric::kTranslationFraction: return "translation_fraction";
    case Metric::kL1TlbMissRate: return "l1_tlb_miss_rate";
    case Metric::kL2TlbMissRate: return "l2_tlb_miss_rate";
    case Metric::kPteAccessShare: return "pte_access_share";
  }
  return "?";
}

bool CellFilter::matches(const SweepCell& cell) const {
  if (system && *system != cell.spec.system) return false;
  if (cores && *cores != cell.spec.cores) return false;
  if (mechanism && !iequals(*mechanism, cell.spec.mechanism_label()))
    return false;
  if (workload && !iequals(*workload, cell.spec.workload_label()))
    return false;
  return true;
}

std::vector<double> collect_metric(const SweepResults& results, Metric m,
                                   const CellFilter& filter) {
  std::vector<double> out;
  for (const SweepCell& cell : results.cells)
    if (filter.matches(cell)) out.push_back(metric_of(cell.result, m));
  return out;
}

double mean_metric(const SweepResults& results, Metric m,
                   const CellFilter& filter) {
  const std::vector<double> xs = collect_metric(results, m, filter);
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

Table summary_table(const SweepResults& results) {
  Table t({"system", "cores", "mechanism", "workload", "cycles", "IPC",
           "PTW (cy)", "translation", "PTE share"});
  for (const SweepCell& cell : results.cells) {
    const RunSpec& spec = cell.spec;
    const RunResult& r = cell.result;
    t.add_row(
        {to_string(spec.system), std::to_string(spec.cores),
         spec.mechanism_label(), spec.workload_label(),
         std::to_string(static_cast<unsigned long long>(r.total_cycles)),
         Table::num(r.ipc, 3), Table::num(r.avg_ptw_latency, 1),
         Table::pct(r.translation_fraction), Table::pct(r.pte_access_share)});
  }
  return t;
}

namespace {

/// Distinct values in first-appearance (spec) order.
template <typename Key>
void add_unique(std::vector<Key>& keys, const Key& k) {
  for (const Key& existing : keys)
    if (existing == k) return;
  keys.push_back(k);
}

struct Group {
  std::string system;
  unsigned cores;
  bool operator==(const Group& o) const {
    return system == o.system && cores == o.cores;
  }
};

/// One pass over the cell views, cataloguing the distinct axes; every
/// aggregation query then works on plain string comparisons. Built from
/// CellViews rather than SweepCells so the shard merge tool — which only
/// has parsed envelope text — aggregates through the identical code.
struct Catalog {
  const std::vector<CellView>& cells;   ///< spec order
  std::vector<Group> groups;            ///< first-appearance order
  std::vector<std::string> mechs, wls;  ///< canonical, first-appearance

  explicit Catalog(const std::vector<CellView>& views) : cells(views) {
    for (const CellView& c : cells) {
      add_unique(groups, Group{c.system, c.cores});
      add_unique(mechs, c.mechanism);
      add_unique(wls, c.workload);
    }
  }

  const CellView* find(const Group& g, const std::string& mech,
                       const std::string& wl) const {
    for (const CellView& c : cells)
      if (c.system == g.system && c.cores == g.cores && c.mechanism == mech &&
          c.workload == wl)
        return &c;
    return nullptr;
  }

  const CellView& baseline_cell(const Group& g, const std::string& baseline,
                                const std::string& wl) const {
    if (const CellView* c = find(g, baseline, wl)) return *c;
    throw std::invalid_argument("speedup aggregation: no baseline '" +
                                baseline + "' cell for " + g.system + "/" +
                                std::to_string(g.cores) + " cores/" + wl);
  }

  /// Canonical spelling of a baseline name/alias, via the mechanism column.
  std::string canonical_mechanism(std::string_view name) const {
    for (const std::string& m : mechs)
      if (iequals(m, name)) return m;
    return std::string(name);
  }
};

double speedup_of(const CellView& baseline, const CellView& cell) {
  const double base = static_cast<double>(baseline.total_cycles);
  const double cycles = static_cast<double>(cell.total_cycles);
  return cycles > 0 ? base / cycles : 0.0;
}

std::vector<std::pair<std::string, double>> group_geomeans(
    const Catalog& cat, const std::string& baseline, const Group& g) {
  std::vector<std::pair<std::string, double>> out;
  for (const std::string& mech : cat.mechs) {
    if (mech == baseline) continue;
    std::vector<double> xs;
    for (const std::string& wl : cat.wls) {
      const CellView* c = cat.find(g, mech, wl);
      if (!c) continue;
      xs.push_back(speedup_of(cat.baseline_cell(g, baseline, wl), *c));
    }
    if (!xs.empty()) out.emplace_back(mech, geomean(xs));
  }
  return out;
}

[[noreturn]] void merge_error(const std::string& msg) {
  throw std::invalid_argument("sweep merge: " + msg);
}

void write_aggregate(JsonWriter& w, const Catalog& cat,
                     const std::string& base_name) {
  w.begin_object();
  w.key("baseline").value(base_name);
  w.key("groups").begin_array();
  for (const Group& g : cat.groups) {
    w.begin_object();
    w.key("system").value(g.system);
    w.key("cores").value(g.cores);
    w.key("speedup").begin_object();
    for (const std::string& wl : cat.wls) {
      const CellView& base = cat.baseline_cell(g, base_name, wl);
      w.key(wl).begin_object();
      for (const std::string& mech : cat.mechs) {
        if (mech == base_name) continue;
        if (const CellView* c = cat.find(g, mech, wl))
          w.key(mech).value(speedup_of(base, *c));
      }
      w.end_object();
    }
    w.end_object();
    w.key("geomean").begin_object();
    for (const auto& [mech, gm] : group_geomeans(cat, base_name, g))
      w.key(mech).value(gm);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

std::vector<CellView> cell_views(const SweepResults& results) {
  std::vector<CellView> out;
  out.reserve(results.cells.size());
  for (const SweepCell& c : results.cells)
    out.push_back({to_string(c.spec.system), c.spec.cores,
                   c.spec.mechanism_label(), c.spec.workload_label(),
                   static_cast<std::uint64_t>(c.result.total_cycles),
                   c.result.avg_ptw_latency});
  return out;
}

std::string aggregate_json(const std::vector<CellView>& cells,
                           std::string_view baseline) {
  const Catalog cat(cells);
  JsonWriter w;
  write_aggregate(w, cat, cat.canonical_mechanism(baseline));
  return w.str();
}

Table speedup_table(const SweepResults& results, std::string_view baseline) {
  const std::vector<CellView> views = cell_views(results);
  const Catalog cat(views);
  const std::string base_name = cat.canonical_mechanism(baseline);
  std::vector<std::string> mechs;
  for (const std::string& m : cat.mechs)
    if (m != base_name) mechs.push_back(m);

  std::vector<std::string> header = {"system", "cores", "workload"};
  header.insert(header.end(), mechs.begin(), mechs.end());
  header.push_back(base_name + " PTW (cy)");
  Table t(std::move(header));

  for (const Group& g : cat.groups) {
    std::vector<std::vector<double>> per_mech(mechs.size());
    for (const std::string& wl : cat.wls) {
      const CellView& base = cat.baseline_cell(g, base_name, wl);
      std::vector<std::string> row = {g.system, std::to_string(g.cores), wl};
      for (std::size_t m = 0; m < mechs.size(); ++m) {
        const CellView* c = cat.find(g, mechs[m], wl);
        if (!c) {
          row.push_back("-");
          continue;
        }
        const double s = speedup_of(base, *c);
        per_mech[m].push_back(s);
        row.push_back(Table::num(s, 3));
      }
      row.push_back(Table::num(base.avg_ptw_latency, 0));
      t.add_row(std::move(row));
    }
    std::vector<std::string> gm = {g.system, std::to_string(g.cores),
                                   "GEOMEAN"};
    for (const std::vector<double>& xs : per_mech)
      gm.push_back(xs.empty() ? "-" : Table::num(geomean(xs), 3));
    gm.push_back("-");
    t.add_row(std::move(gm));
  }
  return t;
}

std::vector<std::pair<std::string, double>> geomean_speedups(
    const SweepResults& results, std::string_view baseline, SystemKind system,
    unsigned cores) {
  const std::vector<CellView> views = cell_views(results);
  const Catalog cat(views);
  return group_geomeans(cat, cat.canonical_mechanism(baseline),
                        Group{to_string(system), cores});
}

std::string to_json(const SweepResults& results) {
  std::string out = "{\"name\":\"" + JsonWriter::escape(results.name) +
                    "\",\"results\":[";
  for (std::size_t i = 0; i < results.cells.size(); ++i) {
    if (i) out += ',';
    out += to_json(results.cells[i].result, &results.cells[i].spec,
                   results.include_host_profile);
  }
  out += ']';
  if (results.include_host_profile) {
    // Sweep-level summary: wall time, throughput, and the merged per-phase
    // host profile. Opt-in only — these numbers vary run to run.
    const HostProfile merged = results.merged_host_profile();
    const std::uint64_t instrs = results.total_instructions();
    const double wall_s =
        static_cast<double>(results.host_wall_ns) / 1e9;
    JsonWriter w;
    w.begin_object();
    w.key("jobs").value(results.jobs_used);
    w.key("cells").value(static_cast<std::uint64_t>(results.cells.size()));
    w.key("wall_ns").value(results.host_wall_ns);
    w.key("cells_per_sec")
        .value(wall_s > 0 ? static_cast<double>(results.cells.size()) / wall_s
                          : 0.0);
    w.key("simulated_instructions").value(instrs);
    w.key("merged");
    write_host_profile(w, merged, results.merged_host_counters());
    w.key("session");
    write_session_stats(w, results.session);
    w.end_object();
    out += ",\"host_profile\":" + w.str();
  }
  if (results.shard) {
    // A slice can't compute "aggregate" (its baseline cells may live in
    // another shard); it records provenance instead, and sweep_merge
    // restores the full document — including the aggregate — from N slices.
    const ShardInfo& s = *results.shard;
    JsonWriter w;
    w.begin_object();
    w.key("index").value(s.index);
    w.key("count").value(s.count);
    w.key("total_cells").value(static_cast<std::uint64_t>(s.total_cells));
    w.key("baseline").value(results.baseline);
    w.key("indices").begin_array();
    for (std::size_t k : s.indices) w.value(static_cast<std::uint64_t>(k));
    w.end_array();
    w.end_object();
    out += ",\"shard\":" + w.str();
  } else if (!results.baseline.empty()) {
    out += ",\"aggregate\":" + aggregate_json(cell_views(results),
                                              results.baseline);
  }
  out += '}';
  return out;
}

std::string merge_sharded_envelopes(
    const std::vector<std::string>& envelopes) {
  if (envelopes.empty()) merge_error("no shard envelopes given");

  std::string name, baseline;
  unsigned count = 0;
  std::size_t total_cells = 0;
  std::vector<std::string_view> merged;     // raw cell text by global index
  std::vector<CellView> views;              // parsed facts by global index
  std::vector<bool> seen_shard;

  for (std::size_t e = 0; e < envelopes.size(); ++e) {
    const std::string& text = envelopes[e];
    const std::string which = "envelope " + std::to_string(e);
    JsonValue doc;
    try {
      doc = JsonValue::parse(text);
    } catch (const JsonError& err) {
      merge_error(which + ": " + err.what());
    }
    const JsonValue* shard = doc.find("shard");
    if (!shard)
      merge_error(which + " has no \"shard\" block (not a --shard output?)");
    const unsigned idx =
        static_cast<unsigned>(shard->at("index").as_u64());
    const unsigned cnt =
        static_cast<unsigned>(shard->at("count").as_u64());
    const std::size_t total =
        static_cast<std::size_t>(shard->at("total_cells").as_u64());
    const std::string& base = shard->at("baseline").as_string();
    const std::string& nm = doc.at("name").as_string();

    if (e == 0) {
      name = nm;
      baseline = base;
      count = cnt;
      total_cells = total;
      if (count == 0) merge_error("shard count 0");
      merged.assign(total_cells, {});
      views.resize(total_cells);
      seen_shard.assign(count, false);
    } else if (nm != name || cnt != count || total != total_cells ||
               base != baseline) {
      merge_error(which + " ran a different grid (config '" + nm + "', " +
                  std::to_string(cnt) + " shards, " + std::to_string(total) +
                  " cells, baseline '" + base + "') than envelope 0 ('" +
                  name + "', " + std::to_string(count) + " shards, " +
                  std::to_string(total_cells) + " cells, baseline '" +
                  baseline + "')");
    }
    if (idx >= count) merge_error(which + ": shard index out of range");
    if (seen_shard[idx])
      merge_error("shard " + std::to_string(idx) + " given twice");
    seen_shard[idx] = true;

    // Raw element text is what gets re-emitted — byte fidelity — while the
    // parsed tree supplies the facts the aggregate recomputation needs.
    const std::vector<std::string_view> raws =
        raw_elements(raw_member(text, "results"));
    const std::vector<JsonValue>& cells = doc.at("results").array();
    const std::vector<JsonValue>& indices = shard->at("indices").array();
    if (raws.size() != indices.size() || cells.size() != indices.size())
      merge_error(which + ": " + std::to_string(raws.size()) +
                  " results but " + std::to_string(indices.size()) +
                  " shard indices");
    for (std::size_t j = 0; j < indices.size(); ++j) {
      const std::size_t k = static_cast<std::size_t>(indices[j].as_u64());
      if (k >= total_cells)
        merge_error(which + ": cell index " + std::to_string(k) +
                    " out of range");
      if (!merged[k].empty())
        merge_error("cell " + std::to_string(k) +
                    " appears in two shards (mismatched --shard runs?)");
      merged[k] = raws[j];
      const JsonValue& spec = cells[j].at("spec");
      views[k] = CellView{spec.at("system").as_string(),
                          static_cast<unsigned>(spec.at("cores").as_u64()),
                          spec.at("mechanism").as_string(),
                          spec.at("workload").as_string(),
                          cells[j].at("total_cycles").as_u64(),
                          cells[j].at("avg_ptw_latency").as_double()};
    }
  }

  if (envelopes.size() != count)
    merge_error(std::to_string(envelopes.size()) + " envelopes given for a " +
                std::to_string(count) + "-shard grid");
  for (std::size_t k = 0; k < merged.size(); ++k)
    if (merged[k].empty())
      merge_error("cell " + std::to_string(k) + " missing from every shard");

  std::string out =
      "{\"name\":\"" + JsonWriter::escape(name) + "\",\"results\":[";
  for (std::size_t k = 0; k < merged.size(); ++k) {
    if (k) out += ',';
    out.append(merged[k].data(), merged[k].size());
  }
  out += ']';
  if (!baseline.empty())
    out += ",\"aggregate\":" + aggregate_json(views, baseline);
  out += '}';
  return out;
}

std::string to_csv(const SweepResults& results) {
  return summary_table(results).to_csv();
}

}  // namespace ndp
