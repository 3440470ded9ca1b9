#pragma once

// Placement-policy interface.
//
// The paper's utility-driven controller and all baseline schedulers
// implement this interface, so experiments can swap policies while the
// surrounding machinery (simulator, executor, metrics) stays identical.

#include <cmath>
#include <string>
#include <vector>

#include "cluster/placement.hpp"
#include "core/placement_solver.hpp"
#include "core/world.hpp"
#include "obs/context.hpp"
#include "util/units.hpp"

namespace heteroplace::core {

/// Per-decision diagnostics: everything the metric recorder needs to
/// reproduce the paper's Figures 1 and 2 plus churn ablations.
struct PolicyDiagnostics {
  /// Equalized utility level (NaN for policies that don't equalize).
  double u_star{std::nan("")};
  bool contended{false};
  /// Equalizer bisection iterations (-1 for policies that don't equalize).
  int eq_iterations{-1};

  struct AppDiag {
    util::AppId id{};
    double lambda{0.0};
    util::CpuMhz demand{0.0};  // CPU for maximum utility (Fig. 2 "demand")
    util::CpuMhz target{0.0};  // CPU the policy intends to grant
  };
  std::vector<AppDiag> apps;

  /// Long-running workload aggregates over active jobs.
  util::CpuMhz jobs_demand{0.0};
  util::CpuMhz jobs_target{0.0};
  double jobs_avg_hyp_utility{0.0};  // mean hypothetical utility at target
  double jobs_min_hyp_utility{0.0};
  double jobs_max_hyp_utility{0.0};
  int active_jobs{0};

  SolverStats solver;
};

struct PolicyOutput {
  cluster::PlacementPlan plan;
  PolicyDiagnostics diag;
};

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  /// Produce the desired placement for the current world state. Called
  /// once per control cycle; must not mutate the world.
  [[nodiscard]] virtual PolicyOutput decide(const World& world, util::Seconds now) = 0;

  /// Attach observability (forwarded by PlacementController::set_obs).
  /// Policies that trace their solve phases override this; the default
  /// keeps baselines emission-free.
  virtual void set_obs(const obs::ObsContext& /*ctx*/) {}

  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace heteroplace::core
