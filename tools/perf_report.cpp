// perf_report — records the simulator's own performance trajectory.
//
// Runs an experiment grid (default: the CI smoke grid), measures host wall
// time, and emits BENCH_engine.json with the throughput numbers that matter
// for the "as fast as the hardware allows" north star:
//
//   * cells/sec            — end-to-end grid throughput (build + sim)
//   * host-ns/instruction  — host nanoseconds per simulated instruction
//   * per-phase breakdown  — where the wall time went (build/prefault/run/…)
//   * engine op counters   — events + heap ops (deterministic; budgeted by
//                            the perf smoke test in ctest)
//
//   perf_report --config experiments/ci_smoke.json --jobs 1
//               --out BENCH_engine.json
//
// `--check=bench/BENCH_engine.json` additionally gates on the checked-in
// snapshot: the run fails (exit 1) when cells/sec drops more than 3x below
// it — wide enough that runner variance never trips it, tight enough that a
// gross regression (per-cell substrate rebuilds, per-event allocation) does.
//
// CI runs this on the smoke grid with --check and uploads the artifact, so
// every commit leaves a perf datapoint. Simulated results are untouched —
// this tool only reports on the host side.
//
// `--serve-out=PATH` additionally benches the resident daemon: an
// in-process server on a loopback TCP port runs the grid twice (cold, then
// warm on the shared Session) and answers a burst of status pings; the
// emitted BENCH_serve.json carries p50/p95/p99 round-trip latency straight
// from the daemon's own request-latency histogram (obs/metrics.h) — the
// same numbers the `metrics` wire op exposes to a scraper.
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/json.h"
#include "fleet/coordinator.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/server.h"
#include "sim/run_config.h"
#include "sim/sweep_runner.h"

using namespace ndp;

namespace {

/// --check tolerance: fail only when throughput drops below baseline/3.
/// Wide on purpose — CI runners vary ~2x; a real regression (rebuilding
/// the substrate per cell, per-event allocation) costs far more than 3x.
constexpr double kCheckBudget = 3.0;

/// Resolve the daemon's request-latency histogram child for one op — the
/// handle the server populates in record_request (serve/server.cpp).
obs::Histogram& latency_of(const char* op_label) {
  return obs::Metrics::instance().histogram(
      "ndpsim_request_latency_seconds",
      "Wall seconds from request line to terminal envelope", op_label);
}

/// The daemon round-trip bench behind --serve-out. Returns 0 on success.
int serve_bench(const RunConfig& config, unsigned jobs, unsigned pings,
                const std::string& out_path) {
  double run_cold_s = 0.0, run_warm_s = 0.0;
  try {
    serve::ServeOptions sopts;
    sopts.jobs = jobs;
    serve::Server server(sopts);
    const std::uint16_t port = server.start();
    serve::Client client = serve::Client::connect("127.0.0.1", port);
    const auto timed_run = [&](const char* id) {
      const auto t0 = std::chrono::steady_clock::now();
      client.run(id, config, jobs);
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
          .count();
    };
    // Cold, then warm: the second drive rides the shared Session's image
    // and material caches — the latency a resident daemon actually serves.
    run_cold_s = timed_run("bench-cold");
    run_warm_s = timed_run("bench-warm");
    for (unsigned i = 0; i < pings; ++i)
      client.roundtrip(serve::simple_request_line("status", "ping"));
    client.roundtrip(serve::simple_request_line("shutdown", "bye"));
    server.wait();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve bench: %s\n", e.what());
    return 1;
  }

  // The server ran in-process, so its histogram children are readable
  // directly; a remote scraper gets the identical numbers via `metrics`.
  const obs::Histogram& status_h = latency_of("op=\"status\"");
  const obs::Histogram& run_h = latency_of("op=\"run\"");

  JsonWriter w;
  w.begin_object();
  w.key("bench").value("serve");
  w.key("config").value(config.name);
  w.key("jobs").value(jobs);
  w.key("status_pings").value(pings);
  w.key("status_p50_us").value(status_h.quantile(0.50) * 1e6);
  w.key("status_p95_us").value(status_h.quantile(0.95) * 1e6);
  w.key("status_p99_us").value(status_h.quantile(0.99) * 1e6);
  w.key("status_observations").value(status_h.count());
  w.key("run_requests").value(run_h.count());
  w.key("run_p50_seconds").value(run_h.quantile(0.50));
  w.key("run_cold_seconds").value(run_cold_s);
  w.key("run_warm_seconds").value(run_warm_s);
  w.end_object();

  std::printf(
      "serve: status p50=%.0f us p95=%.0f us p99=%.0f us over %llu pings; "
      "run cold %.3f s, warm %.3f s\n",
      status_h.quantile(0.50) * 1e6, status_h.quantile(0.95) * 1e6,
      status_h.quantile(0.99) * 1e6,
      static_cast<unsigned long long>(status_h.count()), run_cold_s,
      run_warm_s);

  if (out_path == "-") {
    std::printf("%s\n", w.str().c_str());
    return 0;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write '%s'\n", out_path.c_str());
    return 1;
  }
  out << w.str() << '\n';
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

/// The fleet round-trip bench behind --fleet-out: a coordinator over
/// `workers` in-process daemons runs the grid three ways — cold (shards
/// fan out to freshly-started workers), warm (cache bypassed, so the
/// shards ride the workers' warm Sessions), and cached (answered from the
/// coordinator's result cache without touching a worker). Returns 0 on
/// success.
int fleet_bench(const RunConfig& config, unsigned jobs, unsigned workers,
                const std::string& out_path) {
  double cold_s = 0.0, warm_s = 0.0, cached_s = 0.0;
  std::size_t cells = 0;
  bool cached_hit = false;
  try {
    std::vector<std::unique_ptr<serve::Server>> daemons;
    fleet::FleetOptions fopts;
    fopts.jobs = jobs;
    for (unsigned i = 0; i < workers; ++i) {
      serve::ServeOptions sopts;
      sopts.jobs = jobs;
      daemons.push_back(std::make_unique<serve::Server>(sopts));
      fleet::WorkerOptions w;
      w.port = daemons.back()->start();
      w.label = "bench-w" + std::to_string(i);
      fopts.workers.push_back(std::move(w));
    }
    fleet::Coordinator coordinator(std::move(fopts));
    const auto timed_run = [&](bool use_cache, bool* hit) {
      const auto t0 = std::chrono::steady_clock::now();
      const fleet::Coordinator::RunOutcome out =
          coordinator.run_grid(config, use_cache, jobs);
      cells = out.cells;
      if (hit) *hit = out.cache_hit;
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
          .count();
    };
    cold_s = timed_run(true, nullptr);
    warm_s = timed_run(false, nullptr);
    cached_s = timed_run(true, &cached_hit);
    for (auto& d : daemons) {
      d->request_shutdown();
      d->wait();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleet bench: %s\n", e.what());
    return 1;
  }

  JsonWriter w;
  w.begin_object();
  w.key("bench").value("fleet");
  w.key("config").value(config.name);
  w.key("jobs").value(jobs);
  w.key("workers").value(workers);
  w.key("cells").value(static_cast<std::uint64_t>(cells));
  w.key("run_cold_seconds").value(cold_s);
  w.key("run_warm_seconds").value(warm_s);
  w.key("run_cached_seconds").value(cached_s);
  w.key("cached_run_was_cache_hit").value(cached_hit);
  w.key("cells_per_sec_warm")
      .value(warm_s > 0 ? static_cast<double>(cells) / warm_s : 0.0);
  w.end_object();

  std::printf(
      "fleet: %zu cells over %u workers — cold %.3f s, warm %.3f s, cached "
      "%.3f s (hit=%s)\n",
      cells, workers, cold_s, warm_s, cached_s, cached_hit ? "yes" : "no");

  if (out_path == "-") {
    std::printf("%s\n", w.str().c_str());
    return 0;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write '%s'\n", out_path.c_str());
    return 1;
  }
  out << w.str() << '\n';
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path = "experiments/ci_smoke.json";
  std::string out_path = "BENCH_engine.json";
  std::string check_path, serve_out, fleet_out;
  unsigned jobs = 1, repeat = 1, pings = 200, fleet_workers = 2;

  Flags flags("[options]");
  flags.text("--config", Flags::kAll, "FILE", &config_path,
             "experiment grid to run (default experiments/ci_smoke.json)");
  flags.number("--jobs", Flags::kAll, "N", &jobs, 0,
               "a number (0 = all cores)",
               "host threads (default 1: single-thread engine throughput, "
               "the number the 2x hot-path budget tracks)");
  flags.number("--repeat", Flags::kAll, "N", &repeat, 1, "a positive number",
               "run the grid N times, report the fastest (default 1)");
  flags.text("--out", Flags::kAll, "PATH", &out_path,
             "output file (default BENCH_engine.json, '-' = stdout)");
  flags.text("--check", Flags::kAll, "PATH", &check_path,
             "compare cells/sec against a checked-in snapshot (e.g. "
             "bench/BENCH_engine.json) and fail (exit 1) when this run is "
             "more than " + std::to_string(static_cast<int>(kCheckBudget)) +
                 "x slower — a generous budget, so only gross regressions "
                 "fail CI, never runner noise");
  flags.text("--serve-out", Flags::kAll, "PATH", &serve_out,
             "also bench the resident daemon (warm drive-through + status "
             "pings over loopback TCP) and write BENCH_serve latency "
             "quantiles to PATH ('-' = stdout)");
  flags.number("--pings", Flags::kAll, "N", &pings, 1, "a positive number",
               "status requests for the serve bench (default 200)");
  flags.text("--fleet-out", Flags::kAll, "PATH", &fleet_out,
             "also bench fleet mode (a coordinator sharding the grid across "
             "in-process worker daemons) and write BENCH_fleet round-trip "
             "numbers to PATH ('-' = stdout)");
  flags.number("--fleet-workers", Flags::kAll, "N", &fleet_workers, 1,
               "a positive number",
               "worker daemons for the fleet bench (default 2)");
  if (const std::optional<int> code = flags.parse(argc, argv)) return *code;
  try {
    default_instructions();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  RunConfig config;
  SweepResults best;
  try {
    config = RunConfig::load(config_path);
    SweepOptions opts;
    opts.jobs = jobs;
    for (unsigned r = 0; r < repeat; ++r) {
      SweepResults run = run_sweep(config, opts);
      if (r == 0 || run.host_wall_ns < best.host_wall_ns)
        best = std::move(run);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  const HostProfile merged = best.merged_host_profile();
  const HostCounters host = best.merged_host_counters();
  const std::uint64_t instrs = best.total_instructions();
  const double wall_s = static_cast<double>(best.host_wall_ns) / 1e9;

  JsonWriter w;
  w.begin_object();
  w.key("bench").value("engine");
  w.key("config").value(config.name);
  w.key("jobs").value(best.jobs_used);
  w.key("repeat").value(repeat);
  w.key("cells").value(static_cast<std::uint64_t>(best.cells.size()));
  w.key("wall_seconds").value(wall_s);
  w.key("cells_per_sec")
      .value(wall_s > 0 ? static_cast<double>(best.cells.size()) / wall_s
                        : 0.0);
  w.key("simulated_instructions").value(instrs);
  // Run-phase (measured event loop) nanoseconds per simulated instruction:
  // the engine-speed metric. Whole-process wall per instruction would move
  // with prefault sizing and image-cache hits even when the engine itself
  // was untouched.
  const std::uint64_t run_ns = merged.ns(ProfilePhase::kRun);
  const double run_ns_per_instr =
      instrs ? static_cast<double>(run_ns) / static_cast<double>(instrs) : 0.0;
  w.key("run_ns_per_instruction").value(run_ns_per_instr);
  w.key("events_per_instruction")
      .value(instrs ? static_cast<double>(host.events) /
                          static_cast<double>(instrs)
                    : 0.0);
  // Same {"phases","total_ns","counters"} shape as the sweep JSON's
  // host_profile blocks — one schema for every consumer.
  w.key("host_profile");
  write_host_profile(w, merged, host);
  w.end_object();

  const double cells_per_sec =
      wall_s > 0 ? static_cast<double>(best.cells.size()) / wall_s : 0.0;
  std::printf(
      "%s: %zu cells in %.3f s (%.1f cells/sec, %.1f run-ns/instr, "
      "%llu events, %llu image builds / %llu restores, "
      "%llu prefault pages / %llu in runs)\n",
      config.name.c_str(), best.cells.size(), wall_s, cells_per_sec,
      run_ns_per_instr, static_cast<unsigned long long>(host.events),
      static_cast<unsigned long long>(host.image_builds),
      static_cast<unsigned long long>(host.image_hits),
      static_cast<unsigned long long>(host.prefault_pages),
      static_cast<unsigned long long>(host.prefault_run_pages));

  // Gross-regression gate: this run must reach at least 1/kCheckBudget of
  // the checked-in snapshot's throughput.
  int check_status = 0;
  if (!check_path.empty()) {
    std::ifstream in(check_path);
    if (!in) {
      std::fprintf(stderr, "--check: cannot read '%s'\n", check_path.c_str());
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    try {
      const JsonValue snap = JsonValue::parse(text.str());
      const std::string snap_config = snap.at("config").as_string();
      if (snap_config != config.name)
        std::fprintf(stderr,
                     "--check: warning: snapshot measures config '%s', this "
                     "run measures '%s'\n",
                     snap_config.c_str(), config.name.c_str());
      const double want = snap.at("cells_per_sec").as_double();
      if (cells_per_sec * kCheckBudget < want) {
        std::fprintf(stderr,
                     "--check FAILED: %.1f cells/sec is more than %gx slower "
                     "than the %s snapshot (%.1f cells/sec)\n",
                     cells_per_sec, kCheckBudget, check_path.c_str(), want);
        check_status = 1;
      } else {
        std::printf("--check ok: %.1f cells/sec vs snapshot %.1f (budget %gx)\n",
                    cells_per_sec, want, kCheckBudget);
      }
      // Run-phase gate, same budget: this is the engine-speed number, so a
      // hot-loop regression trips it even when cells/sec is masked by
      // image-cache hits.
      const double snap_run = snap.at("run_ns_per_instruction").as_double();
      if (snap_run > 0 && run_ns_per_instr > snap_run * kCheckBudget) {
        std::fprintf(stderr,
                     "--check FAILED: %.1f run-ns/instr is more than %gx "
                     "slower than the %s snapshot (%.1f run-ns/instr)\n",
                     run_ns_per_instr, kCheckBudget, check_path.c_str(),
                     snap_run);
        check_status = 1;
      } else {
        std::printf(
            "--check ok: %.1f run-ns/instr vs snapshot %.1f (budget %gx)\n",
            run_ns_per_instr, snap_run, kCheckBudget);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "--check: bad snapshot '%s': %s\n",
                   check_path.c_str(), e.what());
      return 1;
    }
  }

  if (out_path == "-") {
    std::printf("%s\n", w.str().c_str());
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot write '%s'\n", out_path.c_str());
      return 1;
    }
    out << w.str() << '\n';
    std::printf("wrote %s\n", out_path.c_str());
  }

  if (!serve_out.empty()) {
    const int serve_status = serve_bench(config, jobs, pings, serve_out);
    if (serve_status != 0) return serve_status;
  }
  if (!fleet_out.empty()) {
    const int fleet_status =
        fleet_bench(config, jobs, fleet_workers, fleet_out);
    if (fleet_status != 0) return fleet_status;
  }
  return check_status;
}
