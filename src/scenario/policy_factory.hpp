#pragma once

// Policy construction for the experiment runner: one policy per domain.

#include <memory>

#include "core/policy.hpp"
#include "scenario/experiment.hpp"
#include "utility/job_utility.hpp"
#include "utility/tx_utility.hpp"

namespace heteroplace::scenario {

/// Build the policy selected by `options`. `solver` comes from the
/// scenario's controller spec.
[[nodiscard]] std::unique_ptr<core::PlacementPolicy> make_experiment_policy(
    const ExperimentOptions& options, const core::SolverConfig& solver,
    std::shared_ptr<utility::JobUtilityModel> job_model,
    std::shared_ptr<utility::TxUtilityModel> tx_model);

}  // namespace heteroplace::scenario
