#pragma once

// Wall-clock profiling hooks: per-subsystem-phase timers answering the
// ROADMAP's serial-spine Amdahl question (where does macro-scale wall time
// go — controller solve? migration manager? the merge barrier?).
//
// Wall-clock durations are machine-dependent, so like sim::EngineTiming and
// the EngineStats block they are kept strictly out of result_digest: the
// ProfileReport rides on ExperimentResult/FederatedResult as diagnostics
// only, and a null Profiler* makes every hook a no-op so unprofiled runs
// pay nothing.
//
// All counters are relaxed atomics: obs::Span (obs/context.hpp) feeds them
// from inside parallel batch items on worker threads (e.g. per-domain
// controller cycles).

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace heteroplace::obs {

enum class Phase : int {
  kControllerCycle = 0,  // whole control cycle (includes the phases below)
  kPolicyConsumers,      // phase 1: utility consumers for jobs and apps
  kPolicyEqualize,       // phase 2: utility equalization
  kPolicyBuildProblem,   // phase 3: placement-problem construction
  kPolicySolve,          // phase 4: placement solver (includes the solve/* rows)
  kSolvePin,             // solver phases 1-2: instance counts, pin current residents
  kSolveGrow,            // solver phase 3: grow instance clusters
  kSolvePack,            // solver phase 4: pack waiting jobs
  kSolveFill,            // solver phase 5: CPU fill, shortfall, spread, rescue
  kSolveEmit,            // solver: emit the plan in contract order
  kExecutorApply,        // action-plan application (includes its passes)
  kExecutorRelease,      // pass 1: suspends and instance stops
  kExecutorResize,       // pass 2: CPU-share shrinks, then grows
  kExecutorMigrate,      // pass 3: migration fixpoint
  kExecutorStart,        // pass 4: starts and resumes
  kMigrationTick,        // migration-manager tick
  kPowerTick,            // power-manager tick
  kFaultEvent,           // fault injection / recovery events
  kSampling,             // metrics sampling callbacks
  kCount
};
[[nodiscard]] const char* phase_name(Phase p);

struct ProfileEntry {
  std::string name;
  std::uint64_t calls{0};
  std::uint64_t total_ns{0};
};

/// Flat per-run profile: phases in a fixed order, engine rows appended by
/// the runners from sim::EngineTiming. Diagnostics only — digest-excluded.
using ProfileReport = std::vector<ProfileEntry>;

class Profiler {
 public:
  void add(Phase p, std::uint64_t ns, std::uint64_t calls = 1) {
    const auto i = static_cast<std::size_t>(p);
    ns_[i].fetch_add(ns, std::memory_order_relaxed);
    calls_[i].fetch_add(calls, std::memory_order_relaxed);
  }

  /// Phases with at least one call, in enum order.
  [[nodiscard]] ProfileReport report() const;

 private:
  std::array<std::atomic<std::uint64_t>, static_cast<std::size_t>(Phase::kCount)> ns_{};
  std::array<std::atomic<std::uint64_t>, static_cast<std::size_t>(Phase::kCount)> calls_{};
};

/// Render a report as an aligned text table (perf_macro, examples).
[[nodiscard]] std::string format_profile_report(const ProfileReport& report);

}  // namespace heteroplace::obs
