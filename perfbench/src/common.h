// Shared pieces of the benchmark binary: the metric catalogue, the result
// report, raw-sample statistics, and the pinned workload inputs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "sim/run_config.h"
#include "sim/sweep_runner.h"

namespace perfbench {

/// One metric the benchmark emits. `per_layer` false = end-to-end (printed
/// by the untraced run); true = per-layer (printed by the traced run).
struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  ///< "lower" | "higher"
  bool per_layer;
};

/// Every metric, in print order. BENCHMARK.json lists the same names, units
/// and directions; `run.py --self-test` checks the two agree.
const std::vector<MetricDef>& catalogue();

/// Counts every operation and check, collects metric values, and prints the
/// result: one human-readable line per metric, then the JSON line.
class Report {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// A thrown cell, an error/cancelled envelope, or a failed check.
  void fail(const std::string& what);
  /// attempt() + fail() unless `ok` — one output check.
  void check(bool ok, const std::string& what);
  void set(const std::string& name, double value, const std::string& note = "");
  /// Emit every catalogue metric of the requested kind; a metric that was
  /// never set is a failure (the run could not measure it).
  void print(bool per_layer);
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, std::pair<double, std::string>> values_;
};

double median(std::vector<double> xs);
/// Linear interpolation between closest ranks of the raw samples (q in
/// [0,1]); 0 on no samples. Never bucketed.
double percentile(std::vector<double> xs, double q);
double ms_between(std::int64_t start_ns, std::int64_t end_ns);
/// Peak resident set size of this process, MB.
double peak_rss_mb();
/// a / b, or 0 when b is 0 (ratios over grids where a layer did no work).
double ratio(double a, double b);

/// The pinned inputs of one workload (perfbench/workloads.json), with the
/// command line's seed (and, for the self-test, the tiny overrides) applied.
struct Inputs {
  std::string name;
  std::string kind;  ///< "batch" | "fleet"
  std::uint64_t seed = 0;
  double seconds = 10;
  bool tiny = false;
  ndp::JsonValue doc;  ///< the workload's object from workloads.json
  /// RunConfig documents (batch grids; the fleet's warm-up grid), seeded.
  std::vector<std::string> grid_texts;
  double tiny_scale = 0;
  std::uint64_t tiny_instructions = 0;

  std::uint64_t u64(const char* key) const { return doc.at(key).as_u64(); }
  /// Apply seed and tiny overrides to one RunConfig-shaped JSON object.
  std::string seeded(const ndp::JsonValue& grid) const;
};

Inputs load_inputs(const std::string& path, const std::string& workload,
                   std::uint64_t seed, double seconds, bool tiny);

/// Sum of total_cycles over the cells serialized in a result document —
/// read back from the document itself, not from the in-memory results.
std::uint64_t document_cycles(const std::string& document);

}  // namespace perfbench
