#include "tiers.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "serve/client.h"
#include "serve/framing.h"
#include "serve/protocol.h"
#include "tracer.h"

namespace perfbench {

LocalFleet::LocalFleet(unsigned workers, unsigned worker_jobs,
                       std::size_t cache_capacity)
    : worker_jobs_(worker_jobs) {
  ndp::fleet::FleetOptions fopts;
  fopts.jobs = worker_jobs;
  fopts.cache_capacity = cache_capacity;
  for (unsigned i = 0; i < workers; ++i) {
    ndp::serve::ServeOptions sopts;
    sopts.jobs = worker_jobs;
    daemons_.push_back(std::make_unique<ndp::serve::Server>(sopts));
    worker_ports_.push_back(daemons_.back()->start());
    ndp::fleet::WorkerOptions w;
    w.port = worker_ports_.back();
    w.label = "w" + std::to_string(i);
    fopts.workers.push_back(std::move(w));
  }
  coordinator_ = std::make_unique<ndp::fleet::Coordinator>(std::move(fopts));
  port_ = coordinator_->start();
}

LocalFleet::~LocalFleet() {
  coordinator_->request_shutdown();
  coordinator_->wait();
  coordinator_.reset();
  for (auto& d : daemons_) {
    d->request_shutdown();
    d->wait();
  }
}

namespace {

ndp::serve::Client connect(std::uint16_t port) {
  return ndp::serve::Client::connect("127.0.0.1", port);
}

/// Time one read of `line` through a LineReader on a socketpair, with the
/// writer on its own thread (a large envelope exceeds the socket buffer).
double framing_ms(const std::string& line, Report& report) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
    throw std::runtime_error("socketpair failed");
  bool wrote = false;
  std::thread writer([&] { wrote = ndp::serve::write_line(fds[1], line); });
  ndp::serve::LineReader reader(fds[0]);
  std::string got;
  const std::int64_t t = now_ns();
  const auto status = reader.next(got, 10000);
  const double ms = ms_between(t, now_ns());
  writer.join();
  ::close(fds[0]);
  ::close(fds[1]);
  report.check(wrote && status == ndp::serve::LineReader::Status::kLine &&
                   got == line,
               "LineReader returns the done envelope intact");
  return ms;
}

}  // namespace

TierSample probe_tiers(LocalFleet& fleet, const ndp::RunConfig& config,
                       const std::string& expected_document, unsigned reps,
                       Report& report) {
  TierSample out;
  const std::size_t cells = config.expand().size();
  const unsigned n = static_cast<unsigned>(
      std::min<std::size_t>(fleet.workers(), std::max<std::size_t>(cells, 1)));
  const unsigned jobs = fleet.worker_jobs();

  // Serve the grid `reps` times untimed first, so every timed tier below
  // finds the workers' Sessions in the same state: the tier metrics are
  // differences between these timings.
  reps = std::max(reps, 1u);
  for (unsigned r = 0; r < reps; ++r)
    fleet.coordinator().run_grid(config, /*use_cache=*/false, jobs);

  // The coordinator sends shard k to worker k, all shards at once; so does
  // this probe, each shard on its own connection.
  std::vector<std::string> shards(n);
  std::vector<double> shard_ms(n);
  std::vector<std::string> errors(n);
  std::vector<std::thread> senders;
  for (unsigned k = 0; k < n; ++k) {
    senders.emplace_back([&, k] {
      try {
        ndp::serve::Client c = connect(fleet.worker_port(k % fleet.workers()));
        const std::int64_t t = now_ns();
        shards[k] = c.run_line(ndp::serve::run_request_line(
            "probe-shard" + std::to_string(k), config, jobs, k, n));
        shard_ms[k] = ms_between(t, now_ns());
      } catch (const std::exception& e) {
        errors[k] = e.what();
      }
    });
  }
  for (std::thread& t : senders) t.join();
  for (unsigned k = 0; k < n; ++k)
    if (!errors[k].empty()) throw std::runtime_error("shard probe: " + errors[k]);
  out.slowest_shard_ms = *std::max_element(shard_ms.begin(), shard_ms.end());

  std::vector<double> grid_ms, trip_ms;
  for (unsigned r = 0; r < reps; ++r) {
    std::int64_t t = now_ns();
    const ndp::fleet::Coordinator::RunOutcome direct =
        fleet.coordinator().run_grid(config, /*use_cache=*/false, jobs);
    grid_ms.push_back(ms_between(t, now_ns()));
    report.check(direct.envelope == expected_document,
                 "Coordinator::run_grid document equals batch");
    ndp::serve::Client c = connect(fleet.port());
    t = now_ns();
    const std::string served = c.run_line(ndp::serve::run_request_line(
        "probe-trip" + std::to_string(r), config, jobs, 0, 1,
        /*use_cache=*/false));
    trip_ms.push_back(ms_between(t, now_ns()));
    report.check(served == expected_document,
                 "fleet-served document equals batch");
  }
  out.run_grid_ms = median(grid_ms);
  out.roundtrip_ms = median(trip_ms);

  std::vector<double> merge, frame;
  const std::string done =
      ndp::serve::done_envelope_raw("probe", cells, expected_document);
  for (int r = 0; r < 9; ++r) {
    if (n > 1) {
      const std::int64_t t = now_ns();
      const std::string merged = ndp::merge_sharded_envelopes(shards);
      merge.push_back(ms_between(t, now_ns()));
      if (r == 0)
        report.check(merged == expected_document,
                     "merged shard envelopes equal batch");
    }
    frame.push_back(framing_ms(done, report));
  }
  out.merge_ms = median(merge);
  out.framing_ms = median(frame);
  return out;
}

void report_tiers(const std::vector<TierSample>& samples, Report& report) {
  std::vector<double> grid, shard, merge, frame, client, coord;
  for (const TierSample& s : samples) {
    grid.push_back(s.run_grid_ms);
    shard.push_back(s.slowest_shard_ms);
    merge.push_back(s.merge_ms);
    frame.push_back(s.framing_ms);
    client.push_back(s.roundtrip_ms - s.run_grid_ms);
    coord.push_back(s.run_grid_ms - s.slowest_shard_ms);
  }
  const std::string n = "median of " + std::to_string(samples.size()) + " grids";
  report.set("fleet.run_grid_ms", median(grid), n);
  report.set("serve.shard_ms", median(shard), n + ", slowest shard");
  report.set("fleet.merge_ms", median(merge), n);
  report.set("serve.framing_ms", median(frame), n);
  report.set("serve.client_overhead_ms", median(client),
             n + ", round trip minus run_grid");
  report.set("fleet.coordinator_overhead_ms", median(coord),
             n + ", run_grid minus slowest shard");
}

void report_fleet_health(LocalFleet& fleet, Report& report) {
  double prepared_hits = 0, prepared_builds = 0, image_hits = 0,
         image_builds = 0;
  for (std::size_t i = 0; i < fleet.workers(); ++i) {
    ndp::serve::Client c = connect(fleet.worker_port(i));
    const ndp::JsonValue stats = ndp::JsonValue::parse(
        c.roundtrip(ndp::serve::simple_request_line("stats", "health")));
    const ndp::JsonValue& s = stats.at("session");
    prepared_hits += s.at("prepared_hits").as_double();
    prepared_builds += s.at("prepared_builds").as_double();
    image_hits += s.at("image_hits").as_double();
    image_builds += s.at("image_builds").as_double();
  }
  ndp::serve::Client c = connect(fleet.port());
  const ndp::JsonValue status = ndp::JsonValue::parse(
      c.roundtrip(ndp::serve::simple_request_line("status", "health")));
  const ndp::JsonValue& cache = status.at("cache");
  const double hits = cache.at("hits").as_double();
  const double misses = cache.at("misses").as_double();
  const ndp::JsonValue metrics = ndp::JsonValue::parse(
      c.roundtrip(ndp::serve::simple_request_line("metrics", "health")));

  // Prometheus text: "family{labels} value" per sample line.
  double retries = 0, failovers = 0, errors = 0;
  std::istringstream text(metrics.at("text").as_string());
  for (std::string line; std::getline(text, line);) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    const std::string series = line.substr(0, sp);
    const double v = std::stod(line.substr(sp + 1));
    const std::string family = series.substr(0, series.find('{'));
    if (family == "ndpsim_fleet_retries_total") retries += v;
    if (family == "ndpsim_fleet_failovers_total") failovers += v;
    if ((family == "ndpsim_requests_total" ||
         family == "ndpsim_fleet_runs_total") &&
        series.find("outcome=\"error\"") != std::string::npos)
      errors += v;
  }
  report.set("sim.session.prepared_hit_ratio",
             ratio(prepared_hits, prepared_builds),
             "adoptions per capture, all workers");
  report.set("sim.session.image_hit_ratio",
             ratio(image_hits, image_hits + image_builds));
  report.set("fleet.result_cache.hit_ratio", ratio(hits, hits + misses));
  report.set("fleet.retries", retries);
  report.set("fleet.failovers", failovers);
  report.set("serve.error_envelopes", errors);
}

}  // namespace perfbench
