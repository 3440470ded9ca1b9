#pragma once

// The paper's policy: hypothetical-utility equalization followed by
// utility-driven discrete placement.

#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "core/equalizer.hpp"
#include "core/policy.hpp"
#include "utility/job_utility.hpp"
#include "utility/tx_utility.hpp"

namespace heteroplace::core {

class UtilityDrivenPolicy final : public PlacementPolicy {
 public:
  UtilityDrivenPolicy(std::shared_ptr<const utility::JobUtilityModel> job_model,
                      std::shared_ptr<const utility::TxUtilityModel> tx_model,
                      SolverConfig solver_config = {})
      : job_model_(std::move(job_model)),
        tx_model_(std::move(tx_model)),
        solver_config_(solver_config) {}

  [[nodiscard]] PolicyOutput decide(const World& world, util::Seconds now) override;
  void set_obs(const obs::ObsContext& ctx) override { obs_ = ctx; }
  [[nodiscard]] std::string name() const override { return "utility-driven"; }

  [[nodiscard]] const utility::JobUtilityModel& job_model() const { return *job_model_; }
  [[nodiscard]] const utility::TxUtilityModel& tx_model() const { return *tx_model_; }

 private:
  std::shared_ptr<const utility::JobUtilityModel> job_model_;
  std::shared_ptr<const utility::TxUtilityModel> tx_model_;
  SolverConfig solver_config_;
  obs::ObsContext obs_;
  /// The last contended cycle's u*: where the next equalize() starts its
  /// search. Moves only the equalizer's pass count, never a result.
  double u_hint_{std::numeric_limits<double>::quiet_NaN()};
};

/// Build the solver's PlacementProblem from world state. Exposed for
/// baseline policies (they share the discrete machinery but provide
/// their own targets/urgencies) and for tests.
[[nodiscard]] PlacementProblem build_problem_skeleton(const World& world);

/// The same, over `jobs` = world.active_jobs() that the caller already
/// holds (one walk of the live jobs per cycle instead of two).
[[nodiscard]] PlacementProblem build_problem_skeleton(
    const World& world, const std::vector<const workload::Job*>& jobs);

}  // namespace heteroplace::core
