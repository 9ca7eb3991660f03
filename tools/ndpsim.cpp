// ndpsim — config-driven front-end for the NDPage simulator.
//
// Every cell of the paper's evaluation (and any registered custom mechanism
// or workload) is runnable from flags, no bench binary required:
//
//   ndpsim --system=ndp --cores=4 --mechanism=ndpage --workload=gups
//   ndpsim --mechanism=radix,ndpage --workload=gups,pr --cores=1,4
//          --json=sweep.json
//   ndpsim --mechanism='ech(ways=4,probes=2),ech(ways=8)' --workload=gups
//   ndpsim --list-mechanisms
//
// Comma-separated --mechanism/--workload/--cores values expand into a
// cross-product sweep (mechanism-major order). Results print as a table plus
// per-component stats; --json writes machine-readable results ('-' = stdout).
//
// Whole experiment grids live in JSON config files (see experiments/ and
// src/sim/run_config.h) and run host-parallel — cells are independent, and
// results are deterministic regardless of the job count:
//
//   ndpsim --config experiments/fig06_core_scaling.json --jobs 4
//
// Grids also run resident (`--serve`: a daemon answering JSON-lines run/
// stats requests over TCP or stdio, with one warm Session shared across
// requests — drive it with `--client`) and distributed (`--shard i/N` runs
// one deterministic slice; `sweep_merge` recombines the slices into the
// document a single run would have written, byte for byte).
//
// Every flag is declared once, in main()'s Flags table (common/flags.h),
// which drives parsing, --help and the mode rule (a flag given outside its
// modes — batch, --serve, --fleet, --client — is a usage error).
//
// Exit codes: 0 success, 1 run-time failure, 2 bad flags/usage, 3 a broken
// experiment description (config parse/validation, unknown names).
// Diagnostics go to stderr; stdout carries only results.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/flags.h"
#include "common/json.h"
#include "common/table.h"
#include "fleet/coordinator.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/server.h"
#include "sim/run_config.h"
#include "sim/sweep_runner.h"
#include "workloads/workload_registry.h"

using namespace ndp;

namespace {

// Exit-code policy (also in --help): scripts — CI in
// particular — branch on whether a failure is retryable (runtime), a
// wrong invocation, or a broken checked-in experiment description.
constexpr int kExitRuntime = 1;
constexpr int kExitUsage = 2;
constexpr int kExitConfig = 3;

void list_systems() {
  // The two simulated platforms of the paper's Table I. Unlike mechanisms
  // and workloads these are a closed set (SystemKind), so the catalogue
  // lives here rather than in a registry.
  Table t({"name", "memory system", "summary"});
  t.add_row({"ndp", "per-core L1D, HBM2 vaults over the logic-layer mesh",
             "near-data-processing system under study (default)"});
  t.add_row({"cpu", "L1D + L2 + shared L3, DDR4-2400 behind the mesh",
             "host-processor baseline"});
  t.print(std::cout);
  std::printf("\nselect with --system=ndp|cpu or \"systems\" in a config\n");
}

void list_mechanisms() {
  Table t({"name", "aliases", "parameters", "summary"});
  for (const MechanismDescriptor& d :
       MechanismRegistry::instance().descriptors()) {
    std::string aliases;
    for (const std::string& a : d.aliases)
      aliases += aliases.empty() ? a : ", " + a;
    const std::string schema = d.param_schema();
    t.add_row({d.name, aliases, schema.empty() ? "-" : schema, d.summary});
  }
  t.print(std::cout);
  std::printf(
      "\nselect parameter points as 'name(key=value,...)', e.g. "
      "--mechanism='ech(ways=4)'\n");
}

void list_workloads() {
  Table t({"name", "aliases", "suite", "paper dataset", "summary"});
  for (const WorkloadDescriptor& d :
       WorkloadRegistry::instance().descriptors()) {
    std::string aliases;
    for (const std::string& a : d.aliases)
      aliases += aliases.empty() ? a : ", " + a;
    t.add_row({d.name, aliases, d.suite,
               d.paper_bytes
                   ? Table::num(double(d.paper_bytes) / double(1ull << 30), 0) +
                         " GB"
                   : "-",
               d.summary});
  }
  t.print(std::cout);
}

/// Per-component summary: hit rates and latencies grouped by stat prefix.
void print_component_stats(const RunResult& r) {
  Table t({"component", "metric", "value"});
  auto hit_rate = [&](const std::string& comp, const std::string& prefix) {
    const auto hits = r.stats.get(prefix + ".hit");
    const auto misses = r.stats.get(prefix + ".miss");
    if (hits + misses == 0) return;
    t.add_row({comp, "hit rate",
               Table::pct(r.stats.rate(prefix + ".hit", prefix + ".miss")) +
                   "  (" + std::to_string(hits + misses) + " lookups)"});
  };
  hit_rate("L1 dTLB", "tlb.l1d");
  hit_rate("L2 TLB", "tlb.l2");
  for (unsigned l = 4; l >= 1; --l)
    hit_rate("PWC L" + std::to_string(l), "pwc.l" + std::to_string(l));
  if (r.stats.get("walker.walks") > 0) {
    t.add_row({"walker", "walks", std::to_string(r.stats.get("walker.walks"))});
    t.add_row({"walker", "avg latency (cy)",
               Table::num(r.stats.mean("walker.latency"), 1)});
    t.add_row({"walker", "accesses/walk",
               Table::num(r.stats.mean("walker.accesses_per_walk"), 2)});
  }
  for (const char* lvl : {"l1", "l2", "l3"}) {
    const std::string served = std::string("mem.served.") + lvl;
    if (r.stats.get(served) > 0)
      t.add_row({std::string("cache ") + lvl, "accesses served",
                 std::to_string(r.stats.get(served))});
  }
  t.add_row({"dram", "accesses", std::to_string(r.stats.get("dram.access"))});
  if (const Average* q = r.stats.average("dram.queue_delay"))
    t.add_row({"dram", "avg queue delay (cy)", Table::num(q->mean(), 1)});
  t.print(std::cout);
}

void print_all_stats(const RunResult& r) {
  std::printf("  counters:\n");
  for (const auto& [name, v] : r.stats.counters())
    std::printf("    %-32s %llu\n", name.c_str(),
                static_cast<unsigned long long>(v));
  std::printf("  averages:\n");
  for (const auto& [name, a] : r.stats.averages())
    std::printf("    %-32s mean=%.3f min=%.3f max=%.3f n=%llu\n", name.c_str(),
                a.mean(), a.min(), a.max(),
                static_cast<unsigned long long>(a.count()));
}

/// Host self-profiling report: where the wall time of this invocation went
/// (phase ns summed across cells) plus engine op counters and throughput.
void print_host_profile(const SweepResults& results) {
  const HostProfile merged = results.merged_host_profile();
  const HostCounters host = results.merged_host_counters();
  const std::uint64_t instrs = results.total_instructions();
  const double wall_s = static_cast<double>(results.host_wall_ns) / 1e9;
  std::printf("\nhost profile (%zu cells, %u jobs, %.3f s wall)\n",
              results.cells.size(), results.jobs_used, wall_s);
  Table t({"phase", "ms", "share"});
  const double total_ns = static_cast<double>(merged.total_ns());
  for (unsigned i = 0; i < kNumProfilePhases; ++i) {
    const auto p = static_cast<ProfilePhase>(i);
    t.add_row({to_string(p), Table::num(merged.ns(p) / 1e6, 1),
               Table::pct(total_ns > 0 ? merged.ns(p) / total_ns : 0.0)});
  }
  t.print(std::cout);
  const SessionStats& sess = results.session;
  // Engine speed is run-phase ns over simulated instructions; the host-ns
  // figure divides *total* wall (prefault, image builds, reporting...) by the
  // same instruction count and mostly tracks setup cost, not the hot loop.
  std::printf(
      "  %.1f cells/sec, %.1f run-ns per simulated instruction "
      "(%.1f host-ns incl. setup)\n"
      "  engine: %llu events, %llu heap pushes, peak queue %llu\n"
      "  prefault: %llu pages, %llu mapped in runs\n"
      "  session: %llu image builds, %llu restores, %llu evictions; "
      "~%.1f MB resident\n"
      "  prepared: %llu builds, %llu hits, %llu evictions; "
      "store: %llu hits, %llu misses, %llu writes, %llu errors\n",
      wall_s > 0 ? results.cells.size() / wall_s : 0.0,
      instrs ? static_cast<double>(merged.ns(ProfilePhase::kRun)) / instrs
             : 0.0,
      instrs ? static_cast<double>(results.host_wall_ns) / instrs : 0.0,
      static_cast<unsigned long long>(host.events),
      static_cast<unsigned long long>(host.heap_pushes),
      static_cast<unsigned long long>(host.heap_peak),
      static_cast<unsigned long long>(host.prefault_pages),
      static_cast<unsigned long long>(host.prefault_run_pages),
      static_cast<unsigned long long>(sess.image_builds),
      static_cast<unsigned long long>(sess.image_hits),
      static_cast<unsigned long long>(sess.image_evictions),
      static_cast<double>(sess.resident_bytes) / (1024.0 * 1024.0),
      static_cast<unsigned long long>(sess.prepared_builds),
      static_cast<unsigned long long>(sess.prepared_hits),
      static_cast<unsigned long long>(sess.prepared_evictions),
      static_cast<unsigned long long>(sess.store_hits),
      static_cast<unsigned long long>(sess.store_misses),
      static_cast<unsigned long long>(sess.store_writes),
      static_cast<unsigned long long>(sess.store_errors));
}

bool write_output(const std::string& path, const std::string& payload,
                  const char* what) {
  if (path == "-") {
    std::printf("%s\n", payload.c_str());
    return true;
  }
  std::ofstream out(path);
  if (!out) {
    obs::log(obs::LogLevel::kError, "output.error")
        .kv("path", path)
        .kv("error", "cannot open for writing");
    return false;
  }
  out << payload << '\n';
  std::printf("wrote %s (%s)\n", path.c_str(), what);
  return true;
}

/// Flush the opt-in observability artifacts (--metrics-dump, --trace-out)
/// on the way out of any mode. Returns `code`, escalated to kExitRuntime
/// when an artifact could not be written.
int finish_obs(const std::string& metrics_path, const std::string& trace_path,
               int code) {
  if (!metrics_path.empty()) {
    std::string text = obs::Metrics::instance().prometheus_text();
    if (!text.empty() && text.back() == '\n') text.pop_back();
    if (!write_output(metrics_path, text, "metrics") && code == 0)
      code = kExitRuntime;
  }
  if (!trace_path.empty()) {
    const std::size_t events = obs::TraceSink::instance().event_count();
    std::string error;
    if (obs::TraceSink::instance().end_to_file(trace_path, &error)) {
      obs::log(obs::LogLevel::kInfo, "trace.write")
          .kv("path", trace_path)
          .kv("events", events);
    } else {
      obs::log(obs::LogLevel::kError, "trace.write.error")
          .kv("path", trace_path)
          .kv("error", error);
      if (code == 0) code = kExitRuntime;
    }
  }
  return code;
}

// --- serving & client modes -------------------------------------------------

serve::Daemon* g_daemon = nullptr;

void on_signal(int) {
  // request_shutdown is one write() to a pipe — async-signal-safe — and
  // starts the graceful drain: in-flight runs finish, then the daemon exits.
  if (g_daemon) g_daemon->request_shutdown();
}

/// Run one daemon (`--serve` worker or `--fleet` coordinator) until it has
/// drained. `prefix` names its ready/fatal log lines; a daemon that cannot
/// be built or bound is a runtime failure.
int daemon_main(const char* prefix, bool stdio_mode,
                const std::function<std::unique_ptr<serve::Daemon>()>& make) {
  // Outlives the handlers: they are reset before the daemon is destroyed.
  std::unique_ptr<serve::Daemon> daemon;
  int code = 0;
  try {
    daemon = make();
    g_daemon = daemon.get();
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    if (stdio_mode) {
      daemon->serve_stream(0, 1);
    } else {
      const std::uint16_t port = daemon->start();
      // The one line a launcher script greps for the kernel-assigned port;
      // start() already logged <prefix>.listen with the same number.
      obs::log(obs::LogLevel::kInfo, std::string(prefix) + ".ready")
          .kv("port", port)
          .kv("hint", "a shutdown request or SIGINT drains");
    }
    daemon->wait();
  } catch (const std::exception& e) {
    obs::log(obs::LogLevel::kError, std::string(prefix) + ".fatal")
        .kv("error", e.what());
    code = kExitRuntime;
  }
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_daemon = nullptr;
  return code;
}

int client_main(const std::string& host, std::uint16_t port,
                const std::string& op, const std::string& config_path,
                const std::string& json_path, unsigned jobs,
                unsigned connect_retries, bool no_cache) {
  RunConfig config;
  if (op == "run") {
    if (config_path.empty()) {
      std::fprintf(stderr, "--client needs --config=FILE for a run request\n");
      return kExitUsage;
    }
    try {
      config = RunConfig::load(config_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return kExitConfig;
    }
  }
  try {
    serve::ConnectRetry retry;
    retry.retries = connect_retries;
    serve::Client client = serve::Client::connect(host, port, retry);
    if (op == "run") {
      const std::string envelope = client.run_line(
          serve::run_request_line(config.name.empty() ? "run" : config.name,
                                  config, jobs, 0, 1, !no_cache),
          [](std::size_t done, std::size_t total) {
            obs::log(obs::LogLevel::kInfo, "client.cell")
                .kv("done", done)
                .kv("total", total);
          });
      // The daemon's envelope is the batch document, byte for byte; write
      // it exactly where (and how) a batch run would have.
      std::string out_path = !json_path.empty() ? json_path
                             : !config.json_output.empty() ? config.json_output
                                                           : "-";
      return write_output(out_path, envelope, "JSON") ? 0 : kExitRuntime;
    }
    const std::string reply =
        client.roundtrip(serve::simple_request_line(op, op));
    if (op == "metrics") {
      // Unwrap the envelope: print the Prometheus text itself, so
      // `ndpsim --client=PORT --op=metrics` pipes straight into a scrape
      // file. Error envelopes (draining daemon) fall through verbatim.
      const JsonValue doc = JsonValue::parse(reply);
      if (const JsonValue* text = doc.find("text")) {
        std::fputs(text->as_string().c_str(), stdout);
        return 0;
      }
    }
    std::printf("%s\n", reply.c_str());
    return 0;
  } catch (const std::exception& e) {
    obs::log(obs::LogLevel::kError, "client.error").kv("error", e.what());
    return kExitRuntime;
  }
}

}  // namespace

int main(int argc, char** argv) {
  // A flag given outside its modes is a usage error.
  enum Mode : unsigned { kBatch = 1, kServe = 2, kFleet = 4, kClient = 8 };
  constexpr unsigned kDaemon = kServe | kFleet;

  // Selection and run-parameter flags fill `config`, the RunConfig a
  // --config file fills otherwise.
  RunConfig config;
  std::string config_path, image_store, system = "ndp", bypass;
  std::string json_path, csv_path, baseline;
  unsigned jobs = 1, shard_index = 0, shard_count = 1, connect_retries = 0;
  bool dump_stats = false, profile = false;
  bool serve_mode = false, stdio_mode = false, fleet_mode = false;
  serve::ServeOptions serve_opts;
  std::string client_host = "127.0.0.1", client_op = "run";
  std::uint16_t client_port = 0;
  bool no_cache = false;
  std::vector<fleet::WorkerOptions> workers;
  std::string fleet_config_path, fleet_cache;
  std::string log_level, log_format, metrics_dump, trace_out;

  Flags flags(
      "[options]",
      "[...] names the modes a flag applies to: batch (the default), --serve,\n"
      "--fleet or --client. A flag given in another mode is a usage error.\n"
      "\n"
      "exit codes: 0 ok, 1 run-time failure, 2 bad flags/usage, 3 broken\n"
      "experiment description (config parse or validation errors)\n",
      {"batch", "--serve", "--fleet", "--client"});

  flags.section("config-driven runs");
  flags.text("--config", kBatch | kClient, "FILE", &config_path,
             "run a JSON experiment description (see experiments/; "
             "selection and run-parameter flags then belong in the file)");
  flags.number("--jobs", Flags::kAll, "N", &jobs, 0,
               "a number (0 = all cores)",
               "execute sweep cells across N host threads (0 = all cores; "
               "results are identical whatever N is; default 1)");
  flags.text("--image-store", kBatch | kServe, "DIR", &image_store,
             "persist post-boot and post-prefault snapshots in DIR so a "
             "warm re-run (batch or daemon restart) skips boot, install, "
             "and prefault; results are byte-identical cold, warm, or "
             "disabled (wins over a config's \"image_store\")");
  flags.text("--shard", kBatch, "I/N", "I/N with 0 <= I < N",
             [&](const std::string& v) {
               const std::string_view text = v;
               const std::size_t slash = text.find('/');
               return slash != std::string_view::npos &&
                      parse_number(text.substr(0, slash), shard_index) &&
                      parse_number(text.substr(slash + 1), shard_count, 1) &&
                      shard_index < shard_count;
             },
             "run only shard I of the config's grid split N ways (cell k "
             "belongs to shard k % N); recombine the N JSON envelopes with "
             "sweep_merge for the byte-identical single-run document");

  flags.section("serving (see README \"Serving mode\")");
  flags.toggle("--serve", kServe, &serve_mode,
               "run as a resident daemon answering JSON-lines requests "
               "(run/status/stats/cancel/shutdown) over one warm Session");
  flags.number("--port", kDaemon, "P", &serve_opts.port, 0, "a port number",
               "daemon TCP port (0 = kernel-assigned, printed to stderr; "
               "default 0)");
  flags.toggle("--stdio", kServe, &stdio_mode,
               "serve one connection on stdin/stdout instead of TCP");
  flags.number("--max-conns", kDaemon, "N", &serve_opts.max_connections, 1,
               "a positive number", "concurrent connection limit (default 16)");
  flags.number("--idle-timeout", kDaemon, "MS", &serve_opts.idle_timeout_ms,
               1, "milliseconds", "close a connection idle this long");
  flags.number("--request-timeout", kDaemon, "MS",
               &serve_opts.request_timeout_ms, 1, "milliseconds",
               "cancel a run running longer than this");
  flags.text("--client", kClient, "[HOST:]PORT", "[HOST:]PORT",
             [&](const std::string& v) {
               std::string_view port = v;
               if (const std::size_t colon = v.rfind(':');
                   colon != std::string::npos) {
                 if (colon > 0) client_host = v.substr(0, colon);
                 port.remove_prefix(colon + 1);
               }
               return parse_number(port, client_port, 1);
             },
             "drive a daemon: submit --config as a run request and write "
             "the streamed envelope (byte-identical to a batch run) to "
             "--json");
  flags.choice("--op", kClient,
               {"run", "stats", "status", "metrics", "shutdown"}, &client_op,
               "client request kind (default run; metrics prints the "
               "daemon's Prometheus exposition)");
  flags.number("--connect-retries", kClient, "N", &connect_retries, 0,
               "a number",
               "retry a refused --client connect N times with exponential "
               "backoff (default 0)");
  flags.toggle("--no-cache", kClient, &no_cache,
               "ask a fleet coordinator to bypass its result cache for this "
               "run request");

  flags.section("fleet mode (see README \"Fleet mode\")");
  flags.toggle("--fleet", kFleet, &fleet_mode,
               "run as a coordinator that shards each run request across "
               "worker daemons (--shard semantics on the wire), merges the "
               "shard envelopes byte-identically, fails shards over when a "
               "worker dies, and caches results by config digest");
  flags.text("--worker", kFleet, "HOST:PORT,...", "HOST:PORT,...",
             [&](const std::string& v) {
               workers.clear();
               try {
                 for (const std::string& w : split_list(v))
                   workers.push_back(fleet::parse_worker_endpoint(w));
               } catch (const std::invalid_argument&) {
                 return false;
               }
               return !workers.empty();
             },
             "the worker daemons (each `ndpsim --serve`)");
  flags.text("--fleet-config", kFleet, "FILE", &fleet_config_path,
             "JSON fleet description (workers, probe cadence, backoff, "
             "cache size; flags win)");
  flags.choice("--fleet-cache", kFleet, {"on", "off"}, &fleet_cache,
               "coordinator result cache (default on)");

  flags.section("observability (see README \"Observability\")");
  flags.choice("--log-level", Flags::kAll,
               {"trace", "debug", "info", "warn", "error", "off"}, &log_level,
               "log threshold (default info; the NDPSIM_LOG env variable "
               "sets the same, flags win)");
  flags.choice("--log-format", Flags::kAll, {"text", "json"}, &log_format,
               "structured log line format (default text)");
  flags.text("--metrics-dump", Flags::kAll, "PATH", &metrics_dump,
             "write the process metrics as Prometheus text exposition on "
             "exit ('-' = stdout)");
  flags.text("--trace-out", Flags::kAll, "FILE", &trace_out,
             "record a Chrome trace-event JSON timeline (host phases, sweep "
             "cells, serve requests; open in Perfetto or chrome://tracing)");

  const std::size_t selection =
      flags.section("selection (comma-separated values expand into a sweep)");
  flags.choice("--system", kBatch, {"ndp", "cpu"}, &system,
               "simulated system (default ndp)");
  flags.numbers("--cores", kBatch, "N[,N...]", &config.cores,
                "a comma-separated list of core counts",
                "core counts (default 4)");
  flags.list("--mechanism", kBatch, "SPEC[,...]", &config.mechanisms,
             "translation mechanisms (default ndpage; any registered name "
             "or alias, optionally parameterized: 'ech(ways=4,probes=2)'; "
             "--list-mechanisms shows each schema)");
  flags.list("--workload", kBatch, "NAME[,...]", &config.workloads,
             "workloads (default gups; any registered name or alias)");

  const std::size_t run_parameters = flags.section("run parameters");
  flags.number("--instructions", kBatch, "N", &config.instructions, 0,
               "a number",
               "per-core instruction budget (default: NDPAGE_INSTRS env, "
               "else 150000)");
  flags.number("--warmup", kBatch, "N", &config.warmup, 0, "a number",
               "warmup refs/core (default instructions/15)");
  flags.number("--scale", kBatch, "F", &config.scale,
               std::numeric_limits<double>::lowest(), "a number",
               "dataset scale fraction (default 0.75)");
  flags.number("--seed", kBatch, "N", &config.seed, 0, "a number",
               "RNG seed (default 42)");

  const std::size_t ablation = flags.section("ablation overrides");
  flags.choice("--bypass", kBatch, {"on", "off"}, &bypass,
               "force metadata cache bypass");
  flags.text("--pwc-levels", kBatch, "4,3|none",
             "a comma-separated list of levels or 'none'",
             [&](const std::string& v) {
               std::vector<unsigned> levels;
               if (v != "none" && !parse_number_list(v, levels)) return false;
               config.overrides.pwc_levels = std::move(levels);
               return true;
             },
             "replace the mechanism's PWC level set");

  flags.section("output");
  flags.text("--json", kBatch | kClient, "PATH", &json_path,
             "write results as JSON ('-' = stdout)");
  flags.text("--csv", kBatch, "PATH", &csv_path,
             "write the summary table as CSV ('-' = stdout)");
  flags.text("--baseline", kBatch, "NAME", &baseline,
             "aggregate speedups vs this mechanism");
  flags.toggle("--stats", kBatch, &dump_stats,
               "dump every stat counter, not just the per-component summary");
  flags.toggle("--profile", kBatch, &profile,
               "print host-side self-profiling (wall time per run phase, "
               "engine op counters, cells/sec) and include a host_profile "
               "block in JSON output");
  flags.action("--list-systems", list_systems,
               "list simulated systems and exit");
  flags.action("--list-mechanisms", list_mechanisms,
               "list registered mechanisms and exit");
  flags.action("--list-workloads", list_workloads,
               "list registered workloads and exit");

  // Environment first, flags on top (flags win).
  obs::init_log_from_env();
  if (const std::optional<int> code = flags.parse(argc, argv)) return *code;
  const Mode mode = serve_mode                ? kServe
                    : fleet_mode              ? kFleet
                    : flags.given("--client") ? kClient
                                              : kBatch;
  if (!flags.check_mode(mode)) return kExitUsage;
  const bool config_mode = !config_path.empty();
  if (config_mode) {
    const std::string flag =
        flags.first_given({selection, run_parameters, ablation});
    if (!flag.empty()) {
      std::fprintf(stderr,
                   "--config conflicts with %s; put selection and "
                   "run-parameter flags in the config file\n",
                   flag.c_str());
      return kExitUsage;
    }
  }
  if (flags.given("--shard") && !config_mode) {
    std::fprintf(stderr,
                 "--shard requires --config (the shards of a grid must agree "
                 "on its expansion)\n");
    return kExitUsage;
  }
  try {
    default_instructions();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return kExitUsage;
  }

  obs::LogLevel level;
  if (obs::parse_log_level(log_level, level)) obs::set_log_level(level);
  if (!log_format.empty())
    obs::set_log_format(log_format == "json" ? obs::LogFormat::kJson
                                             : obs::LogFormat::kText);
  if (!trace_out.empty()) obs::TraceSink::instance().begin();

  if (mode == kFleet) {
    fleet::FleetOptions fleet_opts;
    try {
      if (!fleet_config_path.empty())
        fleet_opts = fleet::FleetOptions::load(fleet_config_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return kExitConfig;
    }
    // Flags given on the command line win over the config file.
    if (flags.given("--worker")) fleet_opts.workers = workers;
    if (fleet_opts.workers.empty()) {
      std::fprintf(stderr,
                   "--fleet needs workers: --worker=HOST:PORT,... or a "
                   "--fleet-config file with a \"workers\" array\n");
      return kExitUsage;
    }
    if (flags.given("--port")) fleet_opts.port = serve_opts.port;
    if (flags.given("--max-conns"))
      fleet_opts.max_connections = serve_opts.max_connections;
    if (flags.given("--idle-timeout"))
      fleet_opts.idle_timeout_ms = serve_opts.idle_timeout_ms;
    if (flags.given("--request-timeout"))
      fleet_opts.request_timeout_ms = serve_opts.request_timeout_ms;
    if (flags.given("--jobs")) fleet_opts.jobs = jobs;
    if (flags.given("--fleet-cache")) fleet_opts.cache = fleet_cache == "on";
    return finish_obs(metrics_dump, trace_out,
                      daemon_main("fleet", false, [&fleet_opts] {
                        return std::make_unique<fleet::Coordinator>(
                            std::move(fleet_opts));
                      }));
  }
  if (mode == kServe) {
    serve_opts.jobs = jobs;
    // The daemon's warm Session persists through the store: a restarted
    // daemon restores snapshots the previous incarnation wrote.
    serve_opts.session.image_store = image_store;
    return finish_obs(metrics_dump, trace_out,
                      daemon_main("serve", stdio_mode, [&serve_opts] {
                        return std::make_unique<serve::Server>(serve_opts);
                      }));
  }
  if (mode == kClient)
    return finish_obs(metrics_dump, trace_out,
                      client_main(client_host, client_port, client_op,
                                  config_path, json_path, jobs,
                                  connect_retries, no_cache));

  config.systems = {*system_kind_from_string(system)};
  if (!bypass.empty()) config.overrides.bypass = bypass == "on";
  std::vector<RunSpec> specs;
  try {
    if (config_mode) config = RunConfig::load(config_path);
    if (!baseline.empty())
      config.baseline =
          MechanismRegistry::instance().resolve(baseline).canonical;
    if (!json_path.empty()) config.json_output = json_path;
    if (!csv_path.empty()) config.csv_output = csv_path;
    specs = config.expand();
  } catch (const std::exception& e) {
    // Config parse/validation failures (malformed JSON with its line:col,
    // unknown mechanism/workload names) — a broken experiment description,
    // distinct from wrong flags (2) and from run-time failures (1).
    obs::log(obs::LogLevel::kError, "config.error").kv("error", e.what());
    return kExitConfig;
  }

  // A --baseline override (config files validate theirs at parse time) must
  // name a swept mechanism, and must fail here — before minutes of cells
  // run — not in the aggregation pass afterwards.
  if (!config.baseline.empty()) {
    bool swept = false;
    for (const RunSpec& s : specs)
      if (s.mechanism_label() == config.baseline) swept = true;
    if (!swept) {
      std::fprintf(stderr,
                   "--baseline '%s' is not one of the swept mechanisms\n",
                   config.baseline.c_str());
      return kExitConfig;
    }
  }

  SweepOptions opts;
  opts.jobs = jobs;
  opts.shard_index = shard_index;
  opts.shard_count = shard_count;
  opts.image_store = image_store.empty() ? config.image_store : image_store;
  if (specs.size() > 1) {
    // Progress through the logger (completion order, stderr by default):
    // stdout/file output stays byte-identical across job counts. Rate and
    // ETA come from the wall clock since the sweep started — coarse, but a
    // long grid answers "how much longer?" without a calculator.
    const auto sweep_start = std::chrono::steady_clock::now();
    opts.progress = [sweep_start](std::size_t done, std::size_t total,
                                  const RunSpec& spec) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        sweep_start)
              .count();
      const double rate = elapsed > 0 ? static_cast<double>(done) / elapsed
                                      : 0.0;
      obs::log(obs::LogLevel::kInfo, "sweep.progress")
          .kv("done", done)
          .kv("total", total)
          .kv("system", to_string(spec.system))
          .kv("cores", spec.cores)
          .kv("mechanism", spec.mechanism_label())
          .kv("workload", spec.workload_label())
          .kv("cells_per_sec", rate)
          .kv("eta_s", rate > 0 ? static_cast<double>(total - done) / rate
                                : 0.0);
    };
  }

  SweepResults results;
  try {
    results = run_sweep(specs, opts);
  } catch (const std::exception& e) {
    obs::log(obs::LogLevel::kError, "sweep.error").kv("error", e.what());
    return finish_obs(metrics_dump, trace_out, kExitRuntime);
  }
  results.name = config.name;
  results.baseline = config.baseline;
  results.include_host_profile = profile;

  if (results.cells.size() == 1) {
    const RunSpec& spec = results.cells[0].spec;
    std::printf("%s on %s, %u core(s), %s — %llu instructions/core\n\n",
                spec.mechanism_label().c_str(), to_string(spec.system).c_str(),
                spec.cores, spec.workload_label().c_str(),
                static_cast<unsigned long long>(
                    spec.instructions_per_core ? spec.instructions_per_core
                                               : default_instructions()));
    print_component_stats(results.cells[0].result);
    std::printf("\n");
  }
  if (dump_stats)
    for (const SweepCell& cell : results.cells) print_all_stats(cell.result);

  summary_table(results).print(std::cout);

  // A shard sees only its slice, so baseline cells (and hence speedups)
  // may be absent by construction; aggregation happens after sweep_merge.
  if (!results.baseline.empty() && !results.shard) {
    try {
      std::printf("\nspeedup over %s\n", results.baseline.c_str());
      speedup_table(results, results.baseline).print(std::cout);
    } catch (const std::exception& e) {
      obs::log(obs::LogLevel::kError, "aggregate.error").kv("error", e.what());
      return finish_obs(metrics_dump, trace_out, kExitRuntime);
    }
  }

  if (profile) print_host_profile(results);

  if (!config.json_output.empty()) {
    std::string payload;
    if (config_mode) {
      // The config envelope: name + results + aggregate.
      payload = to_json(results);
    } else if (results.cells.size() == 1) {
      // Legacy flag-mode formats: one object for a single run, a plain
      // array for a sweep.
      payload = to_json(results.cells[0].result, &results.cells[0].spec,
                        profile);
    } else {
      payload = "[";
      for (std::size_t i = 0; i < results.cells.size(); ++i) {
        if (i) payload += ',';
        payload += to_json(results.cells[i].result, &results.cells[i].spec,
                           profile);
      }
      payload += ']';
    }
    if (!write_output(config.json_output, payload, "JSON"))
      return finish_obs(metrics_dump, trace_out, kExitRuntime);
  }
  if (!config.csv_output.empty() &&
      !write_output(config.csv_output, to_csv(results), "CSV"))
    return finish_obs(metrics_dump, trace_out, kExitRuntime);
  return finish_obs(metrics_dump, trace_out, 0);
}
