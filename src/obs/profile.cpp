#include "obs/profile.hpp"

#include <cstdio>
#include <sstream>

namespace heteroplace::obs {

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kControllerCycle:
      return "controller/cycle";
    case Phase::kPolicyConsumers:
      return "policy/consumers";
    case Phase::kPolicyEqualize:
      return "policy/equalize";
    case Phase::kEqualizeSnapshot:
      return "equalize/snapshot";
    case Phase::kEqualizeSearch:
      return "equalize/search";
    case Phase::kEqualizeFinal:
      return "equalize/final";
    case Phase::kPolicyBuildProblem:
      return "policy/build_problem";
    case Phase::kPolicySolve:
      return "policy/solve";
    case Phase::kSolvePin:
      return "solve/pin";
    case Phase::kSolveGrow:
      return "solve/grow";
    case Phase::kSolvePack:
      return "solve/pack";
    case Phase::kSolveFill:
      return "solve/fill";
    case Phase::kSolveEmit:
      return "solve/emit";
    case Phase::kExecutorApply:
      return "executor/apply";
    case Phase::kExecutorRelease:
      return "executor/release";
    case Phase::kExecutorResize:
      return "executor/resize";
    case Phase::kExecutorMigrate:
      return "executor/migrate";
    case Phase::kExecutorStart:
      return "executor/start";
    case Phase::kMigrationTick:
      return "migration/tick";
    case Phase::kPowerTick:
      return "power/tick";
    case Phase::kFaultEvent:
      return "faults/event";
    case Phase::kSampling:
      return "sampling";
    case Phase::kCount:
      break;
  }
  return "?";
}

ProfileReport Profiler::report() const {
  ProfileReport out;
  for (std::size_t i = 0; i < static_cast<std::size_t>(Phase::kCount); ++i) {
    const std::uint64_t calls = calls_[i].load(std::memory_order_relaxed);
    if (calls == 0) continue;
    out.push_back({phase_name(static_cast<Phase>(i)), calls,
                   ns_[i].load(std::memory_order_relaxed)});
  }
  return out;
}

std::string format_profile_report(const ProfileReport& report) {
  std::ostringstream os;
  os << "phase                        calls     total_ms   ns/call\n";
  for (const ProfileEntry& e : report) {
    char line[128];
    const double per_call = e.calls > 0 ? static_cast<double>(e.total_ns) / e.calls : 0.0;
    std::snprintf(line, sizeof(line), "%-26s %9llu %12.3f %9.0f\n", e.name.c_str(),
                  static_cast<unsigned long long>(e.calls), e.total_ns / 1e6, per_call);
    os << line;
  }
  return os.str();
}

}  // namespace heteroplace::obs
