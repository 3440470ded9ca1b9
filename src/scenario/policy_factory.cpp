#include "scenario/policy_factory.hpp"

#include "baselines/proportional_share.hpp"
#include "baselines/static_partition.hpp"
#include "core/utility_policy.hpp"

namespace heteroplace::scenario {

std::unique_ptr<core::PlacementPolicy> make_experiment_policy(
    const ExperimentOptions& options, const core::SolverConfig& solver,
    std::shared_ptr<utility::JobUtilityModel> job_model,
    std::shared_ptr<utility::TxUtilityModel> tx_model) {
  switch (options.policy) {
    case PolicyKind::kUtilityDriven:
      return std::make_unique<core::UtilityDrivenPolicy>(job_model, tx_model, solver);
    case PolicyKind::kStaticPartition:
      // Default partition: 40% of the nodes for transactional apps.
      return std::make_unique<baselines::StaticPartitionPolicy>(
          baselines::StaticPartitionConfig{});
    case PolicyKind::kProportionalEqual:
    case PolicyKind::kProportionalDemand: {
      baselines::ProportionalShareConfig cfg;
      cfg.mode = options.policy == PolicyKind::kProportionalEqual
                     ? baselines::ShareMode::kEqualPerWorkload
                     : baselines::ShareMode::kDemandProportional;
      cfg.solver = solver;
      return std::make_unique<baselines::ProportionalSharePolicy>(job_model, tx_model, cfg);
    }
  }
  return nullptr;  // unreachable: all enum values handled above
}

}  // namespace heteroplace::scenario
