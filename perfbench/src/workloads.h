// The two workload runners. Each runs one workload for in.seconds and sets
// its metrics on the report: end-to-end metrics when untraced, per-layer
// metrics (spans written to `spans_path`) when traced.
#pragma once

#include <string>

#include "common.h"

namespace perfbench {

/// paper_scale_1core, contention_8core (perfbench/batch.cpp).
void run_batch(const Inputs& in, bool traced, const std::string& spans_path,
               Report& report);

/// explore_fleet (perfbench/fleet.cpp).
void run_fleet(const Inputs& in, bool traced, const std::string& spans_path,
               Report& report);

}  // namespace perfbench
