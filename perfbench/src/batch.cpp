// Batch workloads (paper_scale_1core, contention_8core): the grid as a user
// runs it — RunConfig in, run_sweep, serialized result document out.
#include <algorithm>
#include <exception>
#include <string>
#include <vector>

#include "layers.h"
#include "tiers.h"
#include "workloads.h"

namespace perfbench {

namespace {

std::uint64_t grid_cycles(const ndp::SweepResults& r) {
  std::uint64_t sum = 0;
  for (const ndp::SweepCell& c : r.cells) sum += c.result.total_cycles;
  return sum;
}

/// Checks every grid run must pass: the reported sim_cycles is the
/// document's own total_cycles sum.
void check_grid(const PlainGrid& g, Report& report) {
  report.attempt(g.results.cells.size());
  report.check(document_cycles(g.document) == grid_cycles(g.results),
               "sim_cycles equals the document's total_cycles sum");
}

void run_untraced(const Inputs& in, unsigned jobs, Report& report) {
  const std::uint64_t min_repeats = in.u64("min_repeats");
  std::vector<double> walls, setups;
  std::vector<std::vector<double>> per_grid;  ///< cell latencies (ms) per grid
  std::string first_doc;
  std::uint64_t cycles = 0;
  double cells_per_grid = 0;
  const std::int64_t begin = now_ns();
  for (std::uint64_t rep = 0;; ++rep) {
    PlainGrid g;
    try {
      g = run_plain_grid(in.grid_texts, jobs);
    } catch (const std::exception& e) {
      report.attempt();
      report.fail(std::string("grid threw: ") + e.what());
      break;
    }
    check_grid(g, report);
    if (rep == 0) {
      first_doc = g.document;
      cycles = grid_cycles(g.results);
      cells_per_grid = static_cast<double>(g.results.cells.size());
    } else {
      report.check(g.document == first_doc,
                   "result document byte-identical across runs");
    }
    walls.push_back(g.wall_ms / 1e3);
    setups.push_back(g.setup_ms / 1e3);
    per_grid.push_back(g.cell_ms);
    // Another grid only if it should still end within --seconds, judging
    // by this one's wall; at least min_repeats grids in any case.
    if (rep + 1 >= min_repeats &&
        ms_between(begin, now_ns()) + g.wall_ms > in.seconds * 1e3)
      break;
  }
  if (walls.empty()) return;  // the first grid threw; nothing was measured
  // Every grid does the same work, and other load on a shared host only
  // ever adds time to it, in bursts of seconds: one grid's wall ranged
  // 2.4-3.5 s within a single contention run. So a host time is the best
  // of the run's repeats — the grid's, and each cell's, shortest — which
  // halved the run-to-run spread against the median of the same repeats.
  // A cell's latency is the best of its own repeats, not a pool of raw
  // repeats: cells of a grid differ by design (a GEN cell costs twice a PR
  // cell), and pooling would let the percentiles hop between clusters.
  std::vector<double> cell_ms;
  for (std::size_t i = 0; i < per_grid.front().size(); ++i) {
    double best = per_grid.front()[i];
    for (const std::vector<double>& g : per_grid) best = std::min(best, g[i]);
    cell_ms.push_back(best);
  }
  const double best_wall = *std::min_element(walls.begin(), walls.end());
  const std::string grids = std::to_string(walls.size()) + " grids";
  std::string each;
  for (double w : walls) each += " " + std::to_string(w).substr(0, 6);
  const std::string n =
      std::to_string(cell_ms.size()) + " cells, each the best of " + grids;
  report.set("grid_s", best_wall, "best of " + grids + ":" + each);
  report.set("setup_s", median(setups),
             "median of " + grids + ", setup phases summed over cells");
  report.set("peak_rss_mb", peak_rss_mb());
  report.set("sim_cycles", static_cast<double>(cycles),
             "unvalidated model: no reference measurements, no error figure");
  report.set("req_p50_ms", percentile(cell_ms, 0.5), n);
  report.set("req_p90_ms", percentile(cell_ms, 0.9), n);
  // The document's first cell is claimed at the grid start, so its latency
  // is the wait for the grid's first result. (Whichever cell happens to
  // finish first would flip between cells run to run.) Grids cut short
  // after it add repeats; their spread is wide and two-humped, so their
  // median hops between the humps from run to run.
  std::vector<double> first;
  for (const std::vector<double>& g : per_grid) first.push_back(g.front());
  for (std::uint64_t i = 0; i < in.u64("first_cell_probes"); ++i)
    first.push_back(first_cell_probe(in.grid_texts, jobs));
  report.set("first_cell_p50_ms", *std::min_element(first.begin(), first.end()),
             "best of " + std::to_string(first.size()) + " grids");
  report.set("req_per_s", ratio(cells_per_grid, best_wall),
             "cells per second, best grid");
}

void run_traced(const Inputs& in, unsigned jobs, const std::string& spans_path,
                Report& report) {
  // Untraced, traced, untraced: the traced grid's wall is compared with
  // the mean of its neighbours, so the process's first-grid warm-up cost
  // does not bias the overhead either way.
  const PlainGrid plain = run_plain_grid(in.grid_texts, jobs);
  check_grid(plain, report);
  Tracer tracer;
  const TracedGrid traced = run_traced_grid(in.grid_texts, jobs, tracer);
  const PlainGrid after = run_plain_grid(in.grid_texts, jobs);
  check_grid(after, report);
  report.check(after.document == plain.document,
               "result document byte-identical across runs");

  report.attempt(traced.results.cells.size());
  report.check(traced.document == plain.document,
               "traced grid document equals the untraced one");
  for (std::size_t i = 0; i < plain.results.cells.size(); ++i)
    report.check(cell_json(traced.results.cells[i]) ==
                     cell_json(plain.results.cells[i]),
                 "traced cell " + std::to_string(i) + " equals untraced");
  report_layers({&traced}, tracer, report);
  report.set("trace_overhead",
             ratio(traced.wall_ms, (plain.wall_ms + after.wall_ms) / 2),
             "traced grid wall / mean untraced grid wall");
  print_profile_gap(after);

  ndp::Session probe_session;
  report_component_costs(probe_session, plain.results.cells.front().spec,
                         cell_json(plain.results.cells.front()), report);

  // Tier probes serve each of the workload's RunConfigs through a local
  // fleet at this workload's job count (result cache off: every probe is
  // simulated).
  LocalFleet fleet(static_cast<unsigned>(in.u64("tier_workers")), jobs, 0);
  std::vector<TierSample> samples;
  for (const std::string& text : in.grid_texts) {
    const std::string expected =
        in.grid_texts.size() == 1 ? plain.document
                                  : run_plain_grid({text}, jobs).document;
    samples.push_back(probe_tiers(fleet, ndp::RunConfig::from_json(text),
                                  expected, 1, report));
  }
  report_tiers(samples, report);
  report_fleet_health(fleet, report);
  if (!spans_path.empty() && !tracer.write_chrome(spans_path))
    report.fail("cannot write " + spans_path);
}

}  // namespace

void run_batch(const Inputs& in, bool traced, const std::string& spans_path,
               Report& report) {
  const unsigned jobs = static_cast<unsigned>(in.u64("jobs"));
  if (traced)
    run_traced(in, jobs, spans_path, report);
  else
    run_untraced(in, jobs, report);
}

}  // namespace perfbench
