#include "fleet/coordinator.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "sim/image_store.h"
#include "sim/sweep_runner.h"

namespace ndp::fleet {

namespace {

/// Fleet-level metrics (obs/metrics.h). Fixed handles, resolved once;
/// worker-labelled children are found per call (dispatch is not hot).
struct FleetMetrics {
  obs::Counter& failovers = obs::Metrics::instance().counter(
      "ndpsim_fleet_failovers_total",
      "Shards re-dispatched after a worker failure");
  obs::Counter& cache_hits = obs::Metrics::instance().counter(
      "ndpsim_fleet_cache_hits_total", "Fleet result-cache hits");
  obs::Counter& cache_misses = obs::Metrics::instance().counter(
      "ndpsim_fleet_cache_misses_total", "Fleet result-cache misses");
  obs::Counter& cache_evictions = obs::Metrics::instance().counter(
      "ndpsim_fleet_cache_evictions_total",
      "Fleet result-cache LRU evictions");
  obs::Gauge& cache_entries = obs::Metrics::instance().gauge(
      "ndpsim_fleet_cache_entries", "Fleet result-cache resident entries");

  obs::Counter& dispatches(const std::string& worker) {
    return obs::Metrics::instance().counter(
        "ndpsim_fleet_dispatches_total", "Shard dispatches, by worker",
        "worker=\"" + worker + "\"");
  }

  obs::Counter& runs(const char* outcome) {
    return obs::Metrics::instance().counter(
        "ndpsim_fleet_runs_total", "Fleet runs, by outcome",
        std::string("outcome=\"") + outcome + "\"");
  }

  static FleetMetrics& get() {
    static FleetMetrics m;
    return m;
  }
};

[[noreturn]] void config_error(const std::string& msg) {
  throw std::invalid_argument("fleet config: " + msg);
}

int int_of(const JsonValue& v, const std::string& key) {
  if (!v.is_number()) config_error("\"" + key + "\" must be a number");
  const double d = v.as_double();
  const int i = static_cast<int>(d);
  if (static_cast<double>(i) != d)
    config_error("\"" + key + "\" must be an integer");
  return i;
}

}  // namespace

WorkerOptions parse_worker_endpoint(std::string_view endpoint) {
  const std::size_t colon = endpoint.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 == endpoint.size())
    throw std::invalid_argument("worker endpoint \"" + std::string(endpoint) +
                                "\" is not HOST:PORT");
  WorkerOptions w;
  w.host = std::string(endpoint.substr(0, colon));
  const std::string port_text(endpoint.substr(colon + 1));
  unsigned long port = 0;
  try {
    std::size_t used = 0;
    port = std::stoul(port_text, &used);
    if (used != port_text.size()) throw std::invalid_argument(port_text);
  } catch (const std::exception&) {
    throw std::invalid_argument("worker endpoint \"" + std::string(endpoint) +
                                "\": bad port \"" + port_text + '"');
  }
  if (port == 0 || port > 65535)
    throw std::invalid_argument("worker endpoint \"" + std::string(endpoint) +
                                "\": port out of range");
  w.port = static_cast<std::uint16_t>(port);
  return w;
}

FleetOptions FleetOptions::from_json(std::string_view text) {
  const JsonValue doc = JsonValue::parse(text);
  if (!doc.is_object()) config_error("must be a JSON object");
  FleetOptions opts;
  std::vector<std::string> endpoints;
  int connect_timeout_ms = 2000;
  unsigned connect_retries = 2;
  int backoff_ms = 100;
  int backoff_max_ms = 2000;
  for (const auto& [key, value] : doc.members()) {
    if (key == "port") {
      const std::uint64_t p = value.as_u64();
      if (p > 65535) config_error("\"port\" out of range");
      opts.port = static_cast<std::uint16_t>(p);
    } else if (key == "workers") {
      if (!value.is_array()) config_error("\"workers\" must be an array");
      for (const JsonValue& w : value.array()) {
        if (!w.is_string())
          config_error("\"workers\" entries must be \"HOST:PORT\" strings");
        endpoints.push_back(w.as_string());
      }
    } else if (key == "jobs") {
      const std::uint64_t n = value.as_u64();
      if (n > 1024) config_error("\"jobs\" out of range");
      opts.jobs = static_cast<unsigned>(n);
    } else if (key == "max_connections") {
      opts.max_connections = static_cast<unsigned>(value.as_u64());
    } else if (key == "idle_timeout_ms") {
      opts.idle_timeout_ms = int_of(value, key);
    } else if (key == "probe_interval_ms") {
      opts.probe_interval_ms = int_of(value, key);
    } else if (key == "request_timeout_ms") {
      opts.request_timeout_ms = int_of(value, key);
    } else if (key == "connect_timeout_ms") {
      connect_timeout_ms = int_of(value, key);
    } else if (key == "connect_retries") {
      connect_retries = static_cast<unsigned>(value.as_u64());
    } else if (key == "backoff_ms") {
      backoff_ms = int_of(value, key);
    } else if (key == "backoff_max_ms") {
      backoff_max_ms = int_of(value, key);
    } else if (key == "cache") {
      if (!value.is_bool()) config_error("\"cache\" must be a bool");
      opts.cache = value.as_bool();
    } else if (key == "cache_capacity") {
      opts.cache_capacity = static_cast<std::size_t>(value.as_u64());
    } else {
      config_error("unknown key \"" + key + '"');
    }
  }
  if (endpoints.empty()) config_error("\"workers\" must name at least one");
  for (const std::string& e : endpoints) {
    WorkerOptions w = parse_worker_endpoint(e);
    w.connect_timeout_ms = connect_timeout_ms;
    w.connect_retries = connect_retries;
    w.backoff_ms = backoff_ms;
    w.backoff_max_ms = backoff_max_ms;
    opts.workers.push_back(std::move(w));
  }
  return opts;
}

FleetOptions FleetOptions::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::invalid_argument(path + ": cannot open");
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return from_json(text.str());
  } catch (const std::exception& e) {
    throw std::invalid_argument(path + ": " + e.what());
  }
}

Coordinator::Coordinator(FleetOptions opts)
    : Daemon("fleet", "coordinator", opts.port, opts.max_connections,
             opts.idle_timeout_ms),
      opts_(std::move(opts)),
      cache_(opts_.cache ? opts_.cache_capacity : 0,
             FleetMetrics::get().cache_hits, FleetMetrics::get().cache_misses,
             FleetMetrics::get().cache_evictions) {
  for (const WorkerOptions& w : opts_.workers)
    workers_.push_back(std::make_unique<WorkerLink>(w));
  if (opts_.probe_interval_ms > 0)
    probe_thread_ = std::thread([this] { probe_loop(); });
}

Coordinator::~Coordinator() {
  // Connection, run and probe threads use the worker links: stop them
  // before the links go.
  request_shutdown();
  wait();
  if (probe_thread_.joinable()) probe_thread_.join();
}

std::size_t Coordinator::live_workers() {
  std::size_t live = 0;
  for (auto& w : workers_)
    if (w->ensure_connected()) ++live;
  return live;
}

void Coordinator::probe_loop() {
  while (!wait_for_shutdown(opts_.probe_interval_ms)) {
    for (auto& w : workers_) {
      if (w->up())
        w->probe();
      else
        w->ensure_connected();
    }
  }
}

serve::Daemon::Reply Coordinator::run(const serve::Request& req,
                                      Conn& conn) {
  try {
    const RunOutcome out = run_grid(
        req.config, req.use_cache, req.jobs,
        [&](std::size_t index, std::size_t total, std::string_view raw) {
          send_cell(conn, serve::cell_envelope_raw(req.id, index, total, raw));
        });
    FleetMetrics::get().runs(out.cache_hit ? "cache_hit" : "ok").inc();
    return {serve::done_envelope_raw(req.id, out.cells, out.envelope)};
  } catch (const std::exception&) {
    FleetMetrics::get().runs("error").inc();
    throw;
  }
}

serve::Daemon::Reply Coordinator::handle_op(const serve::Request& req,
                                            std::uint64_t) {
  // `stats` and `cancel` are worker-local: there is no one Session behind a
  // fleet, and runs are not addressable mid-flight across workers. An
  // explicit error beats silent acceptance.
  return {serve::error_envelope(req.id,
                                "op not supported by the fleet coordinator"),
          "error"};
}

std::string Coordinator::status_members() const {
  const auto cs = cache_.stats();
  std::string out = ",\"role\":\"coordinator\"";
  out += ",\"cache\":{\"entries\":" + std::to_string(cs.entries);
  out += ",\"hits\":" + std::to_string(cs.hits);
  out += ",\"misses\":" + std::to_string(cs.builds);
  out += ",\"evictions\":" + std::to_string(cs.evictions);
  out += "},\"workers\":[";
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (i) out += ',';
    out += "{\"worker\":\"" + JsonWriter::escape(workers_[i]->label());
    out += "\",\"up\":";
    out += workers_[i]->up() ? "true" : "false";
    out += '}';
  }
  out += ']';
  return out;
}

Coordinator::RunOutcome Coordinator::run_grid(const RunConfig& config,
                                               bool use_cache, unsigned jobs,
                                               const CellCallback& on_cell) {
  const std::size_t total = config.expand().size();
  if (!opts_.cache || !use_cache)
    return RunOutcome{total, dispatch(config, total, jobs, on_cell), false};

  // A miss is counted by the insert after a successful dispatch, so a run
  // that throws counts nothing.
  const std::string key = key_of(config);
  bool dispatched = false;
  const auto doc = cache_.get_or_build(key, [&] {
    dispatched = true;
    return std::make_shared<CachedDocument>(
        CachedDocument{dispatch(config, total, jobs, on_cell)});
  });
  if (dispatched) {
    FleetMetrics::get().cache_entries.set(
        static_cast<std::int64_t>(cache_.stats().entries));
  } else {
    obs::log(obs::LogLevel::kInfo, "fleet.cache.hit")
        .kv("key", key)
        .kv("cells", total);
  }
  return RunOutcome{total, doc->text, !dispatched};
}

std::string Coordinator::key_of(const RunConfig& config) {
  // Clear every field that can't change the result document's bytes (the
  // golden suite pins image_store invariance; output paths and the
  // description never reach the document).
  RunConfig normalized = config;
  normalized.description.clear();
  normalized.image_store.clear();
  normalized.json_output.clear();
  normalized.csv_output.clear();
  // Version-salt the key so a future normalization change can't collide
  // with entries an older coordinator produced.
  return ImageStore::digest("fleet-result|v1|" + normalized.to_json());
}

std::string Coordinator::dispatch(const RunConfig& config, std::size_t total,
                                  unsigned jobs, const CellCallback& on_cell) {
  // The live worker set at dispatch time fixes N — this run's shard
  // geometry. Failover re-dispatches the same k/N to a survivor, so the
  // merged document's bytes never depend on who executed what.
  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < workers_.size(); ++i)
    if (workers_[i]->ensure_connected()) live.push_back(i);
  if (live.empty()) throw std::runtime_error("fleet: no worker reachable");
  const unsigned n = static_cast<unsigned>(
      std::min<std::size_t>(live.size(), std::max<std::size_t>(total, 1)));

  const std::uint64_t seq = run_seq_.fetch_add(1, std::memory_order_relaxed);
  const unsigned worker_jobs = jobs ? jobs : opts_.jobs;
  obs::log(obs::LogLevel::kInfo, "fleet.run.start")
      .kv("run", seq)
      .kv("cells", total)
      .kv("shards", n)
      .kv("workers", live.size());

  std::vector<std::string> shard_envelopes(n);
  std::vector<std::string> shard_errors(n);
  std::mutex forward_mu;
  std::vector<bool> streamed(total, false);

  // Worker cell frames carry shard-local indices (position in the shard's
  // result set, which keeps global spec order); global = k + local·N under
  // round-robin slicing. The bitmap deduplicates re-streams after a
  // failover, so the client sees each global index exactly once.
  auto forward_cell = [&](unsigned k, const std::string& line) {
    try {
      const JsonValue frame = JsonValue::parse(line);
      const std::size_t local = frame.at("index").as_u64();
      const std::size_t global = k + local * n;
      const std::string_view raw = raw_member(line, "result");
      std::lock_guard<std::mutex> lock(forward_mu);
      if (global < total && !streamed[global]) {
        streamed[global] = true;
        if (on_cell) on_cell(global, total, raw);
      }
    } catch (const std::exception& e) {
      obs::log(obs::LogLevel::kWarn, "fleet.cell.bad")
          .kv("shard", k)
          .kv("error", e.what());
    }
  };

  auto run_shard = [&](unsigned k) {
    obs::ScopedTraceSpan span("fleet:shard" + std::to_string(k), "fleet");
    std::size_t wi = live[k % live.size()];
    const unsigned max_attempts =
        static_cast<unsigned>(workers_.size()) * 2 + 1;
    for (unsigned attempt = 0; attempt < max_attempts; ++attempt) {
      WorkerLink& worker = *workers_[wi];
      const std::string id = "f" + std::to_string(seq) + "-s" +
                             std::to_string(k) + "a" + std::to_string(attempt);
      FleetMetrics::get().dispatches(worker.label()).inc();
      obs::log(obs::LogLevel::kInfo, "fleet.dispatch")
          .kv("worker", worker.label())
          .kv("req", id)
          .kv("shard", std::to_string(k) + "/" + std::to_string(n));
      try {
        const std::string terminal = worker.exchange(
            id,
            serve::run_request_line(id, config, worker_jobs, k, n),
            [&](const std::string& cell) { forward_cell(k, cell); },
            opts_.request_timeout_ms);
        const JsonValue frame = JsonValue::parse(terminal);
        const std::string& type = frame.at("type").as_string();
        if (type == "done") {
          shard_envelopes[k] = std::string(raw_member(terminal, "envelope"));
          return;
        }
        if (type == "error") {
          // Deterministic failure (the config itself is bad, say): every
          // worker would say the same, so it goes straight to the client.
          shard_errors[k] = frame.at("error").as_string();
          return;
        }
        // "cancelled" (a worker-local watchdog) and anything unexpected:
        // retryable on another worker.
        throw std::runtime_error("worker " + worker.label() +
                                 " returned \"" + type + '"');
      } catch (const std::exception& e) {
        FleetMetrics::get().failovers.inc();
        obs::log(obs::LogLevel::kWarn, "fleet.failover")
            .kv("req", id)
            .kv("shard", k)
            .kv("worker", worker.label())
            .kv("error", e.what());
        // Move to the next connectable worker (wrapping; the failed one is
        // usually down, but with a single worker left it may reconnect and
        // retry — graceful degradation down to one).
        bool found = false;
        for (std::size_t step = 1; step <= workers_.size(); ++step) {
          const std::size_t cand = (wi + step) % workers_.size();
          if (workers_[cand]->ensure_connected()) {
            wi = cand;
            found = true;
            break;
          }
        }
        if (!found) {
          shard_errors[k] = "shard " + std::to_string(k) + "/" +
                            std::to_string(n) + ": no worker reachable (" +
                            e.what() + ")";
          return;
        }
      }
    }
    if (shard_errors[k].empty())
      shard_errors[k] = "shard " + std::to_string(k) + "/" +
                        std::to_string(n) + ": every re-dispatch failed";
  };

  std::vector<std::thread> threads;
  threads.reserve(n);
  for (unsigned k = 0; k < n; ++k)
    threads.emplace_back([&run_shard, k] { run_shard(k); });
  for (std::thread& t : threads) t.join();

  for (unsigned k = 0; k < n; ++k)
    if (!shard_errors[k].empty())
      throw std::runtime_error("fleet: " + shard_errors[k]);

  // One shard = the worker ran the whole grid; its envelope IS the batch
  // document. Otherwise recombine — merge rejections (an envelope that
  // doesn't belong to this grid) surface as std::invalid_argument.
  std::string merged = n == 1 ? std::move(shard_envelopes[0])
                              : merge_sharded_envelopes(shard_envelopes);
  obs::log(obs::LogLevel::kInfo, "fleet.run.done")
      .kv("run", seq)
      .kv("cells", total)
      .kv("shards", n)
      .kv("bytes", merged.size());
  return merged;
}

}  // namespace ndp::fleet
