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
// Exit codes: 0 success, 1 run-time failure, 2 bad flags/usage, 3 a broken
// experiment description (config parse/validation, unknown names).
// Diagnostics go to stderr; stdout carries only results.
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/json.h"
#include "common/strings.h"
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

// Exit-code policy (also documented in usage()): scripts — CI in
// particular — branch on whether a failure is retryable (runtime), a
// wrong invocation, or a broken checked-in experiment description.
constexpr int kExitRuntime = 1;
constexpr int kExitUsage = 2;
constexpr int kExitConfig = 3;

int usage(const char* argv0, int code) {
  std::printf(
      "usage: %s [options]\n"
      "\n"
      "config-driven runs:\n"
      "  --config=FILE            run a JSON experiment description\n"
      "                           (see experiments/; selection and run-\n"
      "                           parameter flags then belong in the file)\n"
      "  --jobs=N                 execute sweep cells across N host threads\n"
      "                           (0 = all cores; results are identical\n"
      "                           whatever N is; default 1)\n"
      "  --fresh-systems          build every cell's system from scratch\n"
      "                           instead of restoring the session-shared\n"
      "                           image (results are identical; this is the\n"
      "                           A/B opt-out, see README)\n"
      "  --image-store=DIR        persist post-boot and post-prefault\n"
      "                           snapshots in DIR so a warm re-run (batch\n"
      "                           or daemon restart) skips boot, install,\n"
      "                           and prefault; results are byte-identical\n"
      "                           cold, warm, or disabled (wins over a\n"
      "                           config's \"image_store\")\n"
      "  --shard=I/N              run only shard I of the config's grid\n"
      "                           split N ways (cell k belongs to shard\n"
      "                           k %% N); recombine the N JSON envelopes\n"
      "                           with sweep_merge for the byte-identical\n"
      "                           single-run document\n"
      "\n"
      "serving (see README \"Serving mode\"):\n"
      "  --serve                  run as a resident daemon answering\n"
      "                           JSON-lines requests (run/status/stats/\n"
      "                           cancel/shutdown) over one warm Session\n"
      "  --port=P                 daemon TCP port (0 = kernel-assigned,\n"
      "                           printed to stderr; default 0)\n"
      "  --stdio                  serve one connection on stdin/stdout\n"
      "                           instead of TCP\n"
      "  --max-conns=N            concurrent connection limit (default 16)\n"
      "  --idle-timeout=MS        close a connection idle this long\n"
      "  --request-timeout=MS     cancel a run running longer than this\n"
      "  --client=[HOST:]PORT     drive a daemon: submit --config as a run\n"
      "                           request and write the streamed envelope\n"
      "                           (byte-identical to a batch run) to --json\n"
      "  --op=run|stats|status|metrics|shutdown\n"
      "                           client request kind (default run; metrics\n"
      "                           prints the daemon's Prometheus exposition)\n"
      "  --connect-retries=N      retry a refused --client connect N times\n"
      "                           with exponential backoff (default 0)\n"
      "  --no-cache               ask a fleet coordinator to bypass its\n"
      "                           result cache for this run request\n"
      "\n"
      "fleet mode (see README \"Fleet mode\"):\n"
      "  --fleet                  run as a coordinator that shards each run\n"
      "                           request across worker daemons (--shard\n"
      "                           semantics on the wire), merges the shard\n"
      "                           envelopes byte-identically, fails shards\n"
      "                           over when a worker dies, and caches\n"
      "                           results by config digest\n"
      "  --worker=HOST:PORT,...   the worker daemons (each `ndpsim --serve`)\n"
      "  --fleet-config=FILE      JSON fleet description (workers, probe\n"
      "                           cadence, backoff, cache size; flags win)\n"
      "  --fleet-cache=on|off     coordinator result cache (default on)\n"
      "                           (--port/--max-conns/--idle-timeout/\n"
      "                           --request-timeout/--jobs apply here too)\n"
      "\n"
      "observability (see README \"Observability\"):\n"
      "  --log-level=LEVEL        trace|debug|info|warn|error|off (default\n"
      "                           info; the NDPSIM_LOG env variable sets the\n"
      "                           same, flags win)\n"
      "  --log-format=text|json   structured log line format (default text)\n"
      "  --metrics-dump=PATH      write the process metrics as Prometheus\n"
      "                           text exposition on exit ('-' = stdout)\n"
      "  --trace-out=FILE         record a Chrome trace-event JSON timeline\n"
      "                           (host phases, sweep cells, serve requests;\n"
      "                           open in Perfetto or chrome://tracing)\n"
      "\n"
      "selection (comma-separated values expand into a sweep):\n"
      "  --system=ndp|cpu         simulated system (default ndp)\n"
      "  --cores=N[,N...]         core counts (default 4)\n"
      "  --mechanism=SPEC[,...]   translation mechanisms (default ndpage;\n"
      "                           any registered name or alias, optionally\n"
      "                           parameterized: 'ech(ways=4,probes=2)';\n"
      "                           --list-mechanisms shows each schema)\n"
      "  --workload=NAME[,...]    workloads (default gups; any registered\n"
      "                           name or alias)\n"
      "\n"
      "run parameters:\n"
      "  --instructions=N         per-core instruction budget\n"
      "                           (default: NDPAGE_INSTRS env, else 150000)\n"
      "  --warmup=N               warmup refs/core (default instructions/15)\n"
      "  --scale=F                dataset scale fraction (default 0.75)\n"
      "  --seed=N                 RNG seed (default 42)\n"
      "\n"
      "ablation overrides:\n"
      "  --bypass=on|off          force metadata cache bypass\n"
      "  --pwc-levels=4,3|none    replace the mechanism's PWC level set\n"
      "\n"
      "output:\n"
      "  --json=PATH              write results as JSON ('-' = stdout)\n"
      "  --csv=PATH               write the summary table as CSV\n"
      "                           ('-' = stdout)\n"
      "  --baseline=NAME          aggregate speedups vs this mechanism\n"
      "  --stats                  dump every stat counter, not just the\n"
      "                           per-component summary\n"
      "  --profile                print host-side self-profiling (wall time\n"
      "                           per run phase, engine op counters,\n"
      "                           cells/sec) and include a host_profile\n"
      "                           block in JSON output\n"
      "  --list-systems           list simulated systems and exit\n"
      "  --list-mechanisms        list registered mechanisms and exit\n"
      "  --list-workloads         list registered workloads and exit\n"
      "  --help                   this text\n"
      "\n"
      "exit codes: 0 ok, 1 run-time failure, 2 bad flags/usage, 3 broken\n"
      "experiment description (config parse or validation errors)\n",
      argv0);
  return code;
}

/// Every flag ndpsim knows, used for the unknown-flag suggestion path. The
/// bool says whether the flag takes a value (space form without one is a
/// "requires a value" error, not an unknown flag).
struct KnownFlag {
  const char* name;
  bool takes_value;
};
constexpr KnownFlag kKnownFlags[] = {
    {"--config", true},        {"--jobs", true},
    {"--fresh-systems", false}, {"--shard", true},
    {"--image-store", true},
    {"--serve", false},        {"--port", true},
    {"--stdio", false},        {"--max-conns", true},
    {"--idle-timeout", true},  {"--request-timeout", true},
    {"--client", true},        {"--op", true},
    {"--connect-retries", true}, {"--no-cache", false},
    {"--fleet", false},        {"--worker", true},
    {"--fleet-config", true},  {"--fleet-cache", true},
    {"--log-level", true},     {"--log-format", true},
    {"--metrics-dump", true},  {"--trace-out", true},
    {"--system", true},
    {"--cores", true},         {"--mechanism", true},
    {"--workload", true},      {"--instructions", true},
    {"--warmup", true},        {"--scale", true},
    {"--seed", true},          {"--bypass", true},
    {"--pwc-levels", true},    {"--json", true},
    {"--csv", true},           {"--baseline", true},
    {"--stats", false},        {"--profile", false},
    {"--list-systems", false}, {"--list-mechanisms", false},
    {"--list-workloads", false}, {"--help", false},
};

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > start) out.push_back(s.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// Parse all of `text` as a T no less than `lo`. Empty input, a sign on an
/// unsigned T, leading blanks, trailing characters, a non-finite float and
/// anything out of T's range all fail.
template <typename T>
bool parse_number(std::string_view text, T& out,
                  T lo = std::numeric_limits<T>::lowest()) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end || v < lo) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) return false;
  }
  out = v;
  return true;
}

/// The diagnostic of every numeric flag; returns false (the caller exits
/// kExitUsage).
bool bad_number(const char* flag, const char* what, const char* value) {
  std::fprintf(stderr, "%s takes %s, got '%s'\n", flag, what, value);
  return false;
}

/// The one checked parser behind every numeric flag.
template <typename T>
bool numeric_flag(const char* flag, const char* what, const char* value,
                  T& out, T lo = std::numeric_limits<T>::lowest()) {
  return parse_number(value, out, lo) || bad_number(flag, what, value);
}

/// numeric_flag for a comma-separated list (--cores=1,4,8).
bool numeric_list_flag(const char* flag, const char* what, const char* value,
                       std::vector<unsigned>& out) {
  out.clear();
  for (const std::string& item : split_csv(value)) {
    unsigned n = 0;
    if (!parse_number(item, n)) return bad_number(flag, what, value);
    out.push_back(n);
  }
  return true;
}

/// Like split_csv, but commas inside parentheses don't split — so
/// --mechanism='ech(ways=4,probes=2),radix' yields two specs.
std::vector<std::string> split_specs(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  int depth = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i < s.size() && s[i] == '(') ++depth;
    if (i < s.size() && s[i] == ')' && depth > 0) --depth;
    if (i == s.size() || (s[i] == ',' && depth == 0)) {
      if (i > start) out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

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
      "  session: %llu image builds, %llu restores, %llu evictions; "
      "%llu material builds, %llu material hits; ~%.1f MB resident\n"
      "  prepared: %llu builds, %llu hits, %llu evictions; "
      "store: %llu hits, %llu misses, %llu writes, %llu errors\n",
      wall_s > 0 ? results.cells.size() / wall_s : 0.0,
      instrs ? static_cast<double>(merged.ns(ProfilePhase::kRun)) / instrs
             : 0.0,
      instrs ? static_cast<double>(results.host_wall_ns) / instrs : 0.0,
      static_cast<unsigned long long>(host.events),
      static_cast<unsigned long long>(host.heap_pushes),
      static_cast<unsigned long long>(host.heap_peak),
      static_cast<unsigned long long>(sess.image_builds),
      static_cast<unsigned long long>(sess.image_hits),
      static_cast<unsigned long long>(sess.image_evictions),
      static_cast<unsigned long long>(sess.material_builds),
      static_cast<unsigned long long>(sess.material_hits),
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

int client_main(const std::string& addr, const std::string& op,
                const std::string& config_path, const std::string& json_path,
                unsigned jobs, unsigned connect_retries, bool no_cache) {
  std::string host = "127.0.0.1";
  std::string port_str = addr;
  const std::size_t colon = addr.rfind(':');
  if (colon != std::string::npos) {
    if (colon > 0) host = addr.substr(0, colon);
    port_str = addr.substr(colon + 1);
  }
  std::uint16_t port = 0;
  if (!parse_number<std::uint16_t>(port_str, port, 1)) {
    std::fprintf(stderr, "--client takes [HOST:]PORT, got '%s'\n",
                 addr.c_str());
    return kExitUsage;
  }

  if (op == "run") {
    if (config_path.empty()) {
      std::fprintf(stderr, "--client needs --config=FILE for a run request\n");
      return kExitUsage;
    }
    RunConfig config;
    try {
      config = RunConfig::load(config_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return kExitConfig;
    }
    try {
      serve::ConnectRetry retry;
      retry.retries = connect_retries;
      serve::Client client = serve::Client::connect(host, port, retry);
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
      if (!write_output(out_path, envelope, "JSON")) return kExitRuntime;
      return 0;
    } catch (const std::exception& e) {
      obs::log(obs::LogLevel::kError, "client.error").kv("error", e.what());
      return kExitRuntime;
    }
  }

  if (op != "stats" && op != "status" && op != "metrics" &&
      op != "shutdown") {
    std::fprintf(stderr,
                 "--op takes run|stats|status|metrics|shutdown, got '%s'\n",
                 op.c_str());
    return kExitUsage;
  }
  try {
    serve::ConnectRetry retry;
    retry.retries = connect_retries;
    serve::Client client =
        serve::Client::connect(host, static_cast<std::uint16_t>(port), retry);
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
  std::string config_path;
  std::string system = "ndp";
  std::vector<std::string> mechanisms{"ndpage"};
  std::vector<std::string> workloads{"gups"};
  std::vector<unsigned> cores{4};
  std::uint64_t instructions = 0, warmup = 0, seed = 42;
  double scale = 0;
  Overrides overrides;
  std::string json_path, csv_path, baseline;
  unsigned jobs = 1;
  bool dump_stats = false;
  bool profile = false;
  bool fresh_systems = false;
  std::string image_store;
  unsigned shard_index = 0, shard_count = 1;
  bool serve_mode = false, stdio_mode = false;
  serve::ServeOptions serve_opts;
  std::string client_addr, client_op = "run";
  unsigned connect_retries = 0;
  bool no_cache = false;
  bool fleet_mode = false;
  std::string worker_list, fleet_config_path, fleet_cache;
  std::string metrics_dump, trace_out;
  bool jobs_given = false;
  // Selection/run-parameter flags conflict with --config (the file is the
  // experiment); remember whether any was given explicitly.
  bool selection_flags_used = false;

  // Environment first, flags on top (flags win).
  obs::init_log_from_env();

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Flags take values as --flag=value or --flag value.
    auto value_of = [&](const char* flag) -> const char* {
      const std::size_t n = std::strlen(flag);
      if (arg.compare(0, n, flag) == 0 && arg.size() > n && arg[n] == '=')
        return arg.c_str() + n + 1;
      if (arg == flag && i + 1 < argc) return argv[++i];
      return nullptr;
    };
    if (arg == "--help" || arg == "-h") return usage(argv[0], 0);
    if (arg == "--list-systems") {
      list_systems();
      return 0;
    }
    if (arg == "--list-mechanisms") {
      list_mechanisms();
      return 0;
    }
    if (arg == "--list-workloads") {
      list_workloads();
      return 0;
    }
    if (arg == "--stats") {
      dump_stats = true;
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg == "--fresh-systems") {
      fresh_systems = true;
    } else if (const char* v = value_of("--image-store")) {
      image_store = v;
    } else if (arg == "--serve") {
      serve_mode = true;
    } else if (arg == "--stdio") {
      stdio_mode = true;
    } else if (const char* v = value_of("--shard")) {
      const std::string_view text = v;
      const std::size_t slash = text.find('/');
      if (slash == std::string_view::npos ||
          !parse_number<unsigned>(text.substr(0, slash), shard_index) ||
          !parse_number<unsigned>(text.substr(slash + 1), shard_count, 1) ||
          shard_index >= shard_count) {
        std::fprintf(stderr,
                     "--shard takes I/N with 0 <= I < N, got '%s'\n", v);
        return kExitUsage;
      }
    } else if (const char* v = value_of("--port")) {
      if (!numeric_flag("--port", "a port number", v, serve_opts.port))
        return kExitUsage;
    } else if (const char* v = value_of("--max-conns")) {
      if (!numeric_flag("--max-conns", "a positive number", v,
                        serve_opts.max_connections, 1u))
        return kExitUsage;
    } else if (const char* v = value_of("--idle-timeout")) {
      if (!numeric_flag("--idle-timeout", "milliseconds", v,
                        serve_opts.idle_timeout_ms, 1))
        return kExitUsage;
    } else if (const char* v = value_of("--request-timeout")) {
      if (!numeric_flag("--request-timeout", "milliseconds", v,
                        serve_opts.request_timeout_ms, 1))
        return kExitUsage;
    } else if (const char* v = value_of("--client")) {
      client_addr = v;
    } else if (const char* v = value_of("--op")) {
      client_op = v;
    } else if (const char* v = value_of("--connect-retries")) {
      if (!numeric_flag("--connect-retries", "a number", v, connect_retries))
        return kExitUsage;
    } else if (arg == "--no-cache") {
      no_cache = true;
    } else if (arg == "--fleet") {
      fleet_mode = true;
    } else if (const char* v = value_of("--worker")) {
      worker_list = v;
    } else if (const char* v = value_of("--fleet-config")) {
      fleet_config_path = v;
    } else if (const char* v = value_of("--fleet-cache")) {
      fleet_cache = v;
      if (fleet_cache != "on" && fleet_cache != "off") {
        std::fprintf(stderr, "--fleet-cache takes on|off, got '%s'\n", v);
        return kExitUsage;
      }
    } else if (const char* v = value_of("--log-level")) {
      obs::LogLevel level;
      if (!obs::parse_log_level(v, level)) {
        std::fprintf(
            stderr,
            "--log-level takes trace|debug|info|warn|error|off, got '%s'\n",
            v);
        return kExitUsage;
      }
      obs::set_log_level(level);
    } else if (const char* v = value_of("--log-format")) {
      const std::string f = v;
      if (f != "text" && f != "json") {
        std::fprintf(stderr, "--log-format takes text|json, got '%s'\n", v);
        return kExitUsage;
      }
      obs::set_log_format(f == "json" ? obs::LogFormat::kJson
                                      : obs::LogFormat::kText);
    } else if (const char* v = value_of("--metrics-dump")) {
      metrics_dump = v;
    } else if (const char* v = value_of("--trace-out")) {
      trace_out = v;
    } else if (const char* v = value_of("--config")) {
      config_path = v;
    } else if (const char* v = value_of("--jobs")) {
      // 0 legitimately means "all host cores", so a parse failure must not
      // silently become 0.
      if (!numeric_flag("--jobs", "a number (0 = all cores)", v, jobs))
        return kExitUsage;
      jobs_given = true;
    } else if (const char* v = value_of("--system")) {
      system = v;
      selection_flags_used = true;
    } else if (const char* v = value_of("--mechanism")) {
      mechanisms = split_specs(v);
      selection_flags_used = true;
    } else if (const char* v = value_of("--workload")) {
      workloads = split_csv(v);
      selection_flags_used = true;
    } else if (const char* v = value_of("--cores")) {
      if (!numeric_list_flag("--cores", "a comma-separated list of core counts",
                             v, cores))
        return kExitUsage;
      selection_flags_used = true;
    } else if (const char* v = value_of("--instructions")) {
      if (!numeric_flag("--instructions", "a number", v, instructions))
        return kExitUsage;
      selection_flags_used = true;
    } else if (const char* v = value_of("--warmup")) {
      if (!numeric_flag("--warmup", "a number", v, warmup)) return kExitUsage;
      selection_flags_used = true;
    } else if (const char* v = value_of("--scale")) {
      if (!numeric_flag("--scale", "a number", v, scale)) return kExitUsage;
      selection_flags_used = true;
    } else if (const char* v = value_of("--seed")) {
      if (!numeric_flag("--seed", "a number", v, seed)) return kExitUsage;
      selection_flags_used = true;
    } else if (const char* v = value_of("--bypass")) {
      const std::string s = v;
      if (s != "on" && s != "off") {
        std::fprintf(stderr, "--bypass takes on|off, got '%s'\n", v);
        return kExitUsage;
      }
      overrides.bypass = s == "on";
      selection_flags_used = true;
    } else if (const char* v = value_of("--pwc-levels")) {
      std::vector<unsigned> levels;
      if (std::string(v) != "none" &&
          !numeric_list_flag("--pwc-levels",
                             "a comma-separated list of levels or 'none'", v,
                             levels))
        return kExitUsage;
      overrides.pwc_levels = std::move(levels);
      selection_flags_used = true;
    } else if (const char* v = value_of("--json")) {
      json_path = v;
    } else if (const char* v = value_of("--csv")) {
      csv_path = v;
    } else if (const char* v = value_of("--baseline")) {
      baseline = v;
    } else {
      // A known value-taking flag in space form with nothing after it fell
      // through value_of; say so instead of calling the flag unknown.
      for (const KnownFlag& flag : kKnownFlags) {
        if (flag.takes_value && arg == flag.name) {
          std::fprintf(stderr, "option '%s' requires a value\n", flag.name);
          return kExitUsage;
        }
      }
      // Unknown: suggest the closest known flag ("--list-system" is a typo
      // away from "--list-systems", not a reason to read the whole usage).
      std::vector<std::string> names;
      for (const KnownFlag& flag : kKnownFlags) names.push_back(flag.name);
      const std::string flag_part = arg.substr(0, arg.find('='));
      const std::string suggestion = closest_match(flag_part, names);
      if (!suggestion.empty()) {
        std::fprintf(stderr, "unknown option '%s'; did you mean '%s'?\n",
                     arg.c_str(), suggestion.c_str());
        return kExitUsage;
      }
      std::fprintf(stderr, "unknown option '%s'\n\n", arg.c_str());
      return usage(argv[0], kExitUsage);
    }
  }

  if (!trace_out.empty()) obs::TraceSink::instance().begin();

  const bool config_mode = !config_path.empty();
  if (config_mode && selection_flags_used) {
    std::fprintf(stderr,
                 "--config conflicts with selection/run-parameter flags; put "
                 "them in the config file\n");
    return kExitUsage;
  }

  // Serving / client / fleet modes branch off before any simulation setup.
  if ((serve_mode ? 1 : 0) + (client_addr.empty() ? 0 : 1) +
          (fleet_mode ? 1 : 0) >
      1) {
    std::fprintf(stderr,
                 "--serve, --client and --fleet are mutually exclusive\n");
    return kExitUsage;
  }
  if (!fleet_mode &&
      (!worker_list.empty() || !fleet_config_path.empty() ||
       !fleet_cache.empty())) {
    std::fprintf(stderr,
                 "--worker/--fleet-config/--fleet-cache require --fleet\n");
    return kExitUsage;
  }
  if (client_addr.empty() && (connect_retries != 0 || no_cache)) {
    std::fprintf(stderr, "--connect-retries/--no-cache require --client\n");
    return kExitUsage;
  }
  if (fleet_mode) {
    if (config_mode || selection_flags_used || shard_count > 1 || stdio_mode) {
      std::fprintf(stderr,
                   "--fleet conflicts with --config/--shard/--stdio/selection "
                   "flags; submit experiments as run requests instead\n");
      return kExitUsage;
    }
    fleet::FleetOptions fleet_opts;
    try {
      if (!fleet_config_path.empty())
        fleet_opts = fleet::FleetOptions::load(fleet_config_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return kExitConfig;
    }
    // --worker on the command line replaces the config's worker set. A
    // malformed endpoint is a flag error (exit 2), not a config error.
    if (!worker_list.empty()) {
      fleet_opts.workers.clear();
      try {
        for (const std::string& w : split_csv(worker_list))
          fleet_opts.workers.push_back(fleet::parse_worker_endpoint(w));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return kExitUsage;
      }
    }
    if (fleet_opts.workers.empty()) {
      std::fprintf(stderr,
                   "--fleet needs workers: --worker=HOST:PORT,... or a "
                   "--fleet-config file with a \"workers\" array\n");
      return kExitUsage;
    }
    // Shared daemon flags layer on top of the config file (flags win); an
    // untouched flag leaves the config (or FleetOptions default) in place.
    const serve::ServeOptions daemon_defaults;
    if (serve_opts.port != daemon_defaults.port)
      fleet_opts.port = serve_opts.port;
    if (serve_opts.max_connections != daemon_defaults.max_connections)
      fleet_opts.max_connections = serve_opts.max_connections;
    if (serve_opts.idle_timeout_ms != daemon_defaults.idle_timeout_ms)
      fleet_opts.idle_timeout_ms = serve_opts.idle_timeout_ms;
    if (serve_opts.request_timeout_ms != daemon_defaults.request_timeout_ms)
      fleet_opts.request_timeout_ms = serve_opts.request_timeout_ms;
    if (jobs_given) fleet_opts.jobs = jobs;
    if (!fleet_cache.empty()) fleet_opts.cache = fleet_cache == "on";
    return finish_obs(metrics_dump, trace_out,
                      daemon_main("fleet", false, [&fleet_opts] {
                        return std::make_unique<fleet::Coordinator>(
                            std::move(fleet_opts));
                      }));
  }
  if (serve_mode) {
    if (config_mode || selection_flags_used || shard_count > 1) {
      std::fprintf(stderr,
                   "--serve conflicts with --config/--shard/selection flags; "
                   "submit experiments as run requests instead\n");
      return kExitUsage;
    }
    serve_opts.jobs = jobs;
    // The daemon's warm Session persists through the store: a restarted
    // daemon restores snapshots the previous incarnation wrote.
    serve_opts.session.image_store = image_store;
    serve_opts.session.share_images = !fresh_systems;
    return finish_obs(metrics_dump, trace_out,
                      daemon_main("serve", stdio_mode, [&serve_opts] {
                        return std::make_unique<serve::Server>(serve_opts);
                      }));
  }
  if (stdio_mode) {
    std::fprintf(stderr, "--stdio requires --serve\n");
    return kExitUsage;
  }
  if (!client_addr.empty()) {
    if (selection_flags_used || shard_count > 1) {
      std::fprintf(stderr,
                   "--client conflicts with --shard/selection flags; the "
                   "daemon runs the --config grid as submitted\n");
      return kExitUsage;
    }
    return finish_obs(metrics_dump, trace_out,
                      client_main(client_addr, client_op, config_path,
                                  json_path, jobs, connect_retries, no_cache));
  }
  if (shard_count > 1 && !config_mode) {
    std::fprintf(stderr,
                 "--shard requires --config (the shards of a grid must agree "
                 "on its expansion)\n");
    return kExitUsage;
  }

  // An empty axis would silently fall back to RunSpec's defaults.
  if (mechanisms.empty() || workloads.empty() || cores.empty()) {
    std::fprintf(stderr,
                 "--mechanism/--workload/--cores need at least one value\n");
    return kExitUsage;
  }

  RunConfig config;
  std::vector<RunSpec> specs;
  try {
    if (config_mode) {
      config = RunConfig::load(config_path);
      if (!baseline.empty())
        config.baseline =
            MechanismRegistry::instance().resolve(baseline).canonical;
      if (!json_path.empty()) config.json_output = json_path;
      if (!csv_path.empty()) config.csv_output = csv_path;
      specs = config.expand();
    } else {
      RunSpec base = RunSpecBuilder()
                         .system(system)
                         .instructions(instructions)
                         .warmup(warmup)
                         .scale(scale)
                         .seed(seed)
                         .overrides(overrides)
                         .build();
      specs = sweep(base, mechanisms, workloads, cores);
      if (!baseline.empty())
        baseline = MechanismRegistry::instance().resolve(baseline).canonical;
    }
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
  const std::string& effective_baseline =
      config_mode ? config.baseline : baseline;
  if (!effective_baseline.empty()) {
    bool swept = false;
    for (const RunSpec& s : specs)
      if (s.mechanism_label() == effective_baseline) swept = true;
    if (!swept) {
      std::fprintf(stderr,
                   "--baseline '%s' is not one of the swept mechanisms\n",
                   effective_baseline.c_str());
      return kExitConfig;
    }
  }

  SweepOptions opts;
  opts.jobs = jobs;
  opts.share_images = !fresh_systems;
  opts.shard_index = shard_index;
  opts.shard_count = shard_count;
  opts.image_store = image_store;
  if (config_mode) {
    // The config's opt-out wins; its store directory fills in only when the
    // flag didn't name one.
    if (!config.share_images) opts.share_images = false;
    if (opts.image_store.empty()) opts.image_store = config.image_store;
  }
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
  if (config_mode) {
    results.name = config.name;
    results.baseline = config.baseline;
  } else {
    results.baseline = baseline;
  }
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

  const std::string out_json =
      config_mode ? config.json_output : json_path;
  const std::string out_csv = config_mode ? config.csv_output : csv_path;
  if (!out_json.empty()) {
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
    if (!write_output(out_json, payload, "JSON"))
      return finish_obs(metrics_dump, trace_out, kExitRuntime);
  }
  if (!out_csv.empty() &&
      !write_output(out_csv, to_csv(results), "CSV"))
    return finish_obs(metrics_dump, trace_out, kExitRuntime);
  return finish_obs(metrics_dump, trace_out, 0);
}
