// explore_fleet: a closed loop of clients against an in-process fleet
// coordinator over worker daemons. Each client sends its next request only
// when the previous one completed; a request is a small grid on one shared
// platform — the Radix baseline plus one mechanism parameter point, on two
// Table II workloads, all drawn from the seed — so (mechanism, workload)
// points recur across requests (cross-request Session caches) while exact
// repeats, which the coordinator's result cache answers, stay a minority.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/mechanism_registry.h"
#include "layers.h"
#include "serve/client.h"
#include "tiers.h"
#include "workloads.h"
#include "workloads/workload_registry.h"

namespace perfbench {

namespace {

/// The non-default values a request may give one knob: the schema minimum
/// and the point a quarter of the way from the default to the maximum (on
/// the step grid). Booleans flip.
std::vector<std::string> ladder(const ndp::ParamSpec& p) {
  switch (p.type) {
    case ndp::ParamType::kBool:
      return {ndp::ParamValue::of_bool(!p.def.as_bool()).text()};
    case ndp::ParamType::kDouble: {
      const double d = p.def.as_double();
      return {ndp::ParamValue::of_double(p.min.as_double()).text(),
              ndp::ParamValue::of_double(d + (p.max.as_double() - d) / 4).text()};
    }
    case ndp::ParamType::kUInt: {
      const std::uint64_t d = p.def.as_uint();
      std::uint64_t up = d + (p.max.as_uint() - d) / 4;
      up -= up % std::max<std::uint64_t>(p.multiple_of, 1);
      std::vector<std::string> out;
      for (std::uint64_t v : {p.min.as_uint(), up})
        if (v != d) out.push_back(ndp::ParamValue::of_uint(v).text());
      return out;
    }
  }
  return {};
}

/// Candidate mechanism points per registered mechanism other than the
/// baseline: its defaults, then one knob moved along its ladder.
std::vector<std::vector<std::string>> mechanism_points(
    const std::string& baseline) {
  const std::string base =
      ndp::MechanismRegistry::instance().resolve(baseline).canonical;
  std::vector<std::vector<std::string>> out;
  for (const ndp::MechanismDescriptor& d :
       ndp::MechanismRegistry::instance().descriptors()) {
    if (d.name == base) continue;
    std::vector<std::string> points{d.name};
    for (const ndp::ParamSpec& p : d.params)
      for (const std::string& v : ladder(p))
        points.push_back(d.name + "(" + p.name + "=" + v + ")");
    out.push_back(std::move(points));
  }
  return out;
}

class RequestDraw {
 public:
  RequestDraw(const Inputs& in, std::uint64_t stream)
      : in_(in),
        rng_(in.seed * 0x9E3779B97F4A7C15ull + stream),
        points_(mechanism_points(
            in.doc.at("platform").at("baseline").as_string())),
        workloads_(ndp::WorkloadRegistry::instance().builtin_names()) {}

  /// The next request's RunConfig document (seeded like every grid).
  /// Mechanisms and workloads are dealt from shuffled decks rather than
  /// drawn independently, so every seed sends the same mix over a run and
  /// seeds differ only in order and pairing — which keeps throughput and
  /// memory comparable across seeds.
  std::string next() {
    const ndp::JsonValue& p = in_.doc.at("platform");
    const auto& mech = points_[deal(mech_deck_, points_.size())];
    const std::string point = mech[pick(mech.size())];
    std::vector<ndp::JsonValue> wls;
    std::vector<std::size_t> taken;
    while (wls.size() < p.at("workloads_per_request").as_u64()) {
      const std::size_t w = deal(workload_deck_, workloads_.size());
      if (std::find(taken.begin(), taken.end(), w) != taken.end()) continue;
      taken.push_back(w);
      wls.push_back(ndp::JsonValue::make_string(workloads_[w]));
    }
    using ndp::JsonValue;
    const std::string& base = p.at("baseline").as_string();
    return in_.seeded(JsonValue::make_object({
        {"name", JsonValue::make_string("explore")},
        {"systems", JsonValue::make_array({p.at("system")})},
        {"mechanisms", JsonValue::make_array({JsonValue::make_string(base),
                                              JsonValue::make_string(point)})},
        {"workloads", JsonValue::make_array(std::move(wls))},
        {"cores", JsonValue::make_array({p.at("cores")})},
        {"instructions", p.at("instructions")},
        {"scale", p.at("scale")},
        {"baseline", JsonValue::make_string(base)},
    }));
  }

 private:
  std::size_t pick(std::size_t n) { return static_cast<std::size_t>(rng_() % n); }

  /// Next card of a deck of 0..n-1, reshuffled when empty.
  std::size_t deal(std::vector<std::size_t>& deck, std::size_t n) {
    if (deck.empty()) {
      for (std::size_t i = 0; i < n; ++i) deck.push_back(i);
      for (std::size_t i = n; i > 1; --i) std::swap(deck[i - 1], deck[pick(i)]);
    }
    const std::size_t card = deck.back();
    deck.pop_back();
    return card;
  }

  const Inputs& in_;
  std::mt19937_64 rng_;
  std::vector<std::size_t> mech_deck_, workload_deck_;
  std::vector<std::vector<std::string>> points_;
  std::vector<std::string> workloads_;
};

struct Served {
  std::string config;    ///< RunConfig document sent
  std::string document;  ///< the done envelope's result document
  double latency_ms = 0;      ///< send to done
  double first_cell_ms = -1;  ///< send to first streamed cell; -1 = none
};

struct LoopResult {
  std::vector<Served> served;
  double span_s = 0;  ///< loop start to the last completion
};

/// Run `clients` closed-loop clients until `deadline_ns`. With a tracer,
/// each request's spans are recorded after it completes, outside the
/// measured latency.
LoopResult closed_loop(const Inputs& in, LocalFleet& fleet,
                       std::int64_t deadline_ns, Tracer* tracer,
                       Report& report) {
  const unsigned clients = static_cast<unsigned>(in.u64("clients"));
  LoopResult out;
  std::vector<Served>& served = out.served;
  std::mutex mu;
  const std::int64_t begin = now_ns();
  std::int64_t last_done = begin;
  auto client = [&](unsigned c) {
    RequestDraw draw(in, c + 1);
    std::unique_ptr<ndp::serve::Client> conn;
    for (std::uint64_t n = 0; now_ns() < deadline_ns; ++n) {
      Served s;
      s.config = draw.next();
      const std::string id = "c" + std::to_string(c) + "-" + std::to_string(n);
      const std::int64_t t0 = now_ns();
      std::int64_t first = -1;
      try {
        if (!conn)
          conn = std::make_unique<ndp::serve::Client>(
              ndp::serve::Client::connect("127.0.0.1", fleet.port()));
        s.document = conn->run(id, ndp::RunConfig::from_json(s.config),
                               fleet.worker_jobs(),
                               [&](std::size_t, std::size_t) {
                                 if (first < 0) first = now_ns();
                               });
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(mu);
        report.attempt();
        report.fail("request " + id + ": " + e.what());
        conn.reset();
        continue;
      }
      const std::int64_t t1 = now_ns();
      s.latency_ms = ms_between(t0, t1);
      if (first >= 0) s.first_cell_ms = ms_between(t0, first);
      if (tracer) {
        const std::uint64_t trace = tracer->next_trace_id();
        const std::uint64_t root = tracer->add("request", trace, 0, t0, t1);
        if (first >= 0) {
          tracer->add("request.first_cell", trace, root, t0, first);
          tracer->add("request.stream", trace, root, first, t1);
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      report.attempt();
      last_done = std::max(last_done, t1);
      served.push_back(std::move(s));
    }
  };
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) threads.emplace_back(client, c);
  for (std::thread& t : threads) t.join();
  out.span_s = ms_between(begin, last_done) / 1e3;
  return out;
}

/// A seeded sample of the served requests that simulated (cache hits
/// replay an earlier document byte for byte, so they are not re-checked).
std::vector<const Served*> check_sample(const Inputs& in,
                                        const std::vector<Served>& served) {
  std::vector<const Served*> pool;
  for (const Served& s : served)
    if (s.first_cell_ms >= 0) pool.push_back(&s);
  std::mt19937_64 rng(in.seed ^ 0xC0FFEEull);
  std::shuffle(pool.begin(), pool.end(), rng);
  pool.resize(std::min<std::size_t>(pool.size(), in.u64("check_sample")));
  return pool;
}

/// Start a fleet and serve the warm-up grid through it; returns the
/// fleet and stores the served document.
std::unique_ptr<LocalFleet> warm_fleet(const Inputs& in, std::string* document,
                                       Report& report) {
  auto fleet = std::make_unique<LocalFleet>(
      static_cast<unsigned>(in.u64("workers")),
      static_cast<unsigned>(in.u64("worker_jobs")),
      in.u64("result_cache_capacity"));
  ndp::serve::Client c = ndp::serve::Client::connect("127.0.0.1", fleet->port());
  report.attempt();
  *document = c.run("warmup", ndp::RunConfig::from_json(in.grid_texts.front()),
                    fleet->worker_jobs());
  return fleet;
}

std::int64_t loop_deadline(const Inputs& in) {
  return now_ns() + static_cast<std::int64_t>(in.seconds * 1e9);
}

void run_untraced(const Inputs& in, Report& report) {
  // The warm-up grid is the fixed reference: its simulated cycles are
  // sim_cycles, and every served copy of it must equal batch.
  const PlainGrid batch = run_plain_grid(in.grid_texts, 1);
  report.attempt(batch.results.cells.size());
  const std::string& batch_doc = batch.document;

  // Set-up is timed several times (fleet start to warm-up request done);
  // the last fleet serves the measured loop.
  std::vector<double> setups;
  std::unique_ptr<LocalFleet> fleet;
  std::string warm_doc;
  for (std::uint64_t i = 0; i < in.u64("fleet_setups"); ++i) {
    fleet.reset();
    const std::int64_t t = now_ns();
    fleet = warm_fleet(in, &warm_doc, report);
    setups.push_back(ms_between(t, now_ns()) / 1e3);
    report.check(warm_doc == batch_doc,
                 "served warm-up grid equals batch run_sweep");
  }

  const LoopResult loop = closed_loop(in, *fleet, loop_deadline(in), nullptr,
                                      report);
  const std::vector<Served>& served = loop.served;
  // Daemons, coordinator and clients share this process: its peak RSS
  // through set-up and the closed loop is the fleet's.
  const double rss_mb = peak_rss_mb();
  fleet.reset();

  std::vector<double> latency, first;
  std::size_t cached = 0;
  double latency_sum = 0;
  for (const Served& s : served) {
    latency.push_back(s.latency_ms);
    latency_sum += s.latency_ms;
    if (s.first_cell_ms >= 0)
      first.push_back(s.first_cell_ms);
    else
      ++cached;
  }
  for (const Served* s : check_sample(in, served)) {
    const PlainGrid batch = run_plain_grid({s->config}, 1);
    report.check(batch.document == s->document,
                 "served request equals batch run_sweep");
  }

  const std::uint64_t cycles = document_cycles(batch_doc);
  const std::string n = "n=" + std::to_string(latency.size()) + " requests";
  // A served request is a grid: RunConfig in, result document out.
  report.set("grid_s", ratio(latency_sum, static_cast<double>(latency.size())) / 1e3,
             "mean served grid, " + n);
  std::string each;
  for (double s : setups) each += " " + std::to_string(s * 1e3).substr(0, 5);
  report.set("setup_s", median(setups),
             "fleet start to warm-up done, median of " +
                 std::to_string(setups.size()) + " (ms):" + each);
  report.set("peak_rss_mb", rss_mb, "through set-up and the closed loop");
  report.set("sim_cycles", static_cast<double>(cycles),
             "warm-up grid; unvalidated model, no error figure");
  report.set("req_p50_ms", percentile(latency, 0.5), n);
  report.set("req_p90_ms", percentile(latency, 0.9),
             n + ", " + std::to_string(latency.size() / 10) + " beyond");
  report.set("first_cell_p50_ms", percentile(first, 0.5),
             "n=" + std::to_string(first.size()) + " streamed, " +
                 std::to_string(cached) + " result-cache hits");
  report.set("req_per_s",
             ratio(static_cast<double>(served.size()), loop.span_s),
             std::to_string(in.u64("clients")) + " closed-loop clients");
}

void run_traced(const Inputs& in, const std::string& spans_path,
                Report& report) {
  std::string warm_doc;
  std::unique_ptr<LocalFleet> fleet = warm_fleet(in, &warm_doc, report);
  Tracer tracer;
  const std::vector<Served> served =
      closed_loop(in, *fleet, loop_deadline(in), &tracer, report).served;
  report_fleet_health(*fleet, report);

  // The layer path on the fixed warm-up grid and the checked sample. Each
  // grid runs untraced, traced, untraced on the same config, and the
  // traced wall is compared with the mean of its neighbours.
  std::vector<std::pair<std::string, std::string>> grids = {
      {in.grid_texts.front(), warm_doc}};
  for (const Served* s : check_sample(in, served))
    grids.emplace_back(s->config, s->document);
  std::vector<TracedGrid> layered;
  std::vector<TierSample> tiers;
  double plain_ms = 0, traced_ms = 0;
  for (std::size_t i = 0; i < grids.size(); ++i) {
    const auto& [config, document] = grids[i];
    const PlainGrid before = run_plain_grid({config}, 1);
    layered.push_back(run_traced_grid({config}, 1, tracer));
    const PlainGrid after = run_plain_grid({config}, 1);
    report.attempt(layered.back().results.cells.size());
    report.check(before.document == document && after.document == document,
                 "batch run_sweep equals the served document");
    report.check(layered.back().document == document,
                 "traced grid equals the served document");
    plain_ms += (before.wall_ms + after.wall_ms) / 2;
    traced_ms += layered.back().wall_ms;
    if (i > 0)  // tiers are probed on the sampled requests
      tiers.push_back(probe_tiers(*fleet, ndp::RunConfig::from_json(config),
                                  document, 2, report));
  }
  report.set("trace_overhead", ratio(traced_ms, plain_ms),
             "traced grid walls / mean untraced neighbours, " +
                 std::to_string(grids.size()) + " grids");
  std::vector<const TracedGrid*> views;
  for (const TracedGrid& g : layered) views.push_back(&g);
  report_layers(views, tracer, report);
  report_tiers(tiers, report);

  ndp::Session probe_session;
  report_component_costs(probe_session, layered.front().results.cells.front().spec,
                         cell_json(layered.front().results.cells.front()), report);
  fleet.reset();
  if (!spans_path.empty() && !tracer.write_chrome(spans_path))
    report.fail("cannot write " + spans_path);
}

}  // namespace

void run_fleet(const Inputs& in, bool traced, const std::string& spans_path,
               Report& report) {
  if (traced)
    run_traced(in, spans_path, report);
  else
    run_untraced(in, report);
}

}  // namespace perfbench
