// perfbench: the simulator's benchmark binary (see perfbench/README.md).
//
//   perfbench --workloads perfbench/workloads.json --workload NAME
//             --seed N --seconds S --trace 0|1 [--tiny] [--spans-dir DIR]
//   perfbench --catalogue
//
// Untraced (--trace 0) runs print every end-to-end metric; traced runs
// (--trace 1) print every per-layer metric and write their spans to
// DIR/<workload>-seed<N>.json. The last stdout line is the JSON result.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.h"
#include "obs/log.h"
#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workloads FILE --workload NAME "
               "--seed N --seconds S --trace 0|1 [--tiny] [--spans-dir DIR]\n"
               "       perfbench --catalogue\n",
               why);
  return 2;
}

void print_catalogue() {
  ndp::JsonWriter w;
  w.begin_array();
  for (const perfbench::MetricDef& d : perfbench::catalogue()) {
    w.begin_object();
    w.key("name").value(d.name);
    w.key("unit").value(d.unit);
    w.key("better").value(d.better);
    w.key("kind").value(d.per_layer ? "per_layer" : "end_to_end");
    w.end_object();
  }
  w.end_array();
  std::printf("%s\n", w.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string workloads, workload, spans_dir;
  long long seed = -1;
  double seconds = -1;
  int trace = -1;
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--catalogue") {
      print_catalogue();
      return 0;
    } else if (a == "--tiny") {
      tiny = true;
    } else if (a == "--workloads" || a == "--workload" || a == "--seed" ||
               a == "--seconds" || a == "--trace" || a == "--spans-dir") {
      const char* v = value();
      if (!v) return usage(("missing value for " + a).c_str());
      char* end = nullptr;
      if (a == "--workloads") workloads = v;
      if (a == "--workload") workload = v;
      if (a == "--spans-dir") spans_dir = v;
      if (a == "--seed") seed = std::strtoll(v, &end, 10);
      if (a == "--seconds") seconds = std::strtod(v, &end);
      if (a == "--trace") trace = static_cast<int>(std::strtol(v, &end, 10));
      if (end && *end) return usage(("bad value for " + a).c_str());
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (workloads.empty() || workload.empty() || seed < 0 || seconds <= 0 ||
      (trace != 0 && trace != 1))
    return usage("missing or invalid arguments");

  // The daemons log every dispatch at info; keep stderr to warnings.
  ndp::obs::set_log_level(ndp::obs::LogLevel::kWarn);

  perfbench::Inputs in;
  try {
    in = perfbench::load_inputs(workloads, workload,
                                static_cast<std::uint64_t>(seed), seconds, tiny);
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  perfbench::Report report;
  try {
    const std::string spans =
        spans_dir.empty() ? "" : spans_dir + "/" + workload + "-seed" +
                                     std::to_string(seed) + ".json";
    if (in.kind == "batch")
      perfbench::run_batch(in, trace == 1, spans, report);
    else
      perfbench::run_fleet(in, trace == 1, spans, report);
  } catch (const std::exception& e) {
    report.attempt();
    report.fail(std::string("run aborted: ") + e.what());
  }
  report.print(trace == 1);
  return 0;
}
