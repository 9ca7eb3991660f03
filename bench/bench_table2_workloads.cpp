// Table II: evaluated workloads (suite, paper dataset size, and the scaled
// dataset this reproduction runs: WorkloadParams::scale, 3/4 of Table II by
// default, in place of the paper's full datasets).
#include <iostream>

#include "bench/bench_util.h"

using namespace ndp;

int main() {
  bench::header("Table II: evaluated workloads", "paper Table II");

  Table t({"suite", "workload", "paper dataset", "scaled dataset", "regions"});
  for (const WorkloadInfo& info : all_workload_info()) {
    WorkloadParams p;
    p.num_cores = 4;
    auto w = make_workload(info.kind, p);
    t.add_row({info.suite, info.name,
               Table::num(double(info.paper_bytes) / double(1 << 30), 1) + " GB",
               Table::num(double(w->dataset_bytes()) / double(1 << 30), 2) + " GB",
               std::to_string(w->regions().size())});
  }
  t.print(std::cout);
  return 0;
}
