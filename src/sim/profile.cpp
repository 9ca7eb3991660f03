#include "sim/profile.h"

namespace ndp {

const char* to_string(ProfilePhase p) {
  switch (p) {
    case ProfilePhase::kBuild: return "build";
    case ProfilePhase::kBuildCached: return "build_cached";
    case ProfilePhase::kInstall: return "install";
    case ProfilePhase::kPrefault: return "prefault";
    case ProfilePhase::kWarmup: return "warmup";
    case ProfilePhase::kRun: return "run";
    case ProfilePhase::kCollect: return "collect";
    case ProfilePhase::kSnapshot: return "snapshot";
    case ProfilePhase::kTeardown: return "teardown";
    case ProfilePhase::kCount_: break;
  }
  return "?";
}

std::uint64_t HostProfile::total_ns() const {
  std::uint64_t total = 0;
  for (unsigned i = 0; i < kNumProfilePhases; ++i) total += ns_[i];
  return total;
}

void HostProfile::merge(const HostProfile& o) {
  for (unsigned i = 0; i < kNumProfilePhases; ++i) ns_[i] += o.ns_[i];
}

}  // namespace ndp
