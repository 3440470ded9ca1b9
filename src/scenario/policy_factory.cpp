#include "scenario/policy_factory.hpp"

#include <cmath>
#include <map>

#include "baselines/proportional_share.hpp"
#include "baselines/static_partition.hpp"
#include "core/utility_policy.hpp"
#include "perfmodel/rate_estimator.hpp"
#include "util/rng.hpp"

namespace heteroplace::scenario {

std::unique_ptr<core::PlacementPolicy> make_experiment_policy(
    const ExperimentOptions& options, const core::SolverConfig& solver,
    std::shared_ptr<utility::JobUtilityModel> job_model,
    std::shared_ptr<utility::TxUtilityModel> tx_model, std::uint64_t noise_seed) {
  switch (options.policy) {
    case PolicyKind::kUtilityDriven: {
      auto up = std::make_unique<core::UtilityDrivenPolicy>(job_model, tx_model, solver);
      if (options.lambda_noise_cv > 0.0) {
        // Noisy-monitoring state must outlive the policy: one estimator
        // and one noise stream per app (keyed by app id).
        auto estimators = std::make_shared<std::map<util::AppId, perfmodel::RateEstimator>>();
        auto noise_rng = std::make_shared<util::Rng>(noise_seed);
        const double cv = options.lambda_noise_cv;
        // LogNormal with mean 1 and the requested coefficient of variation.
        const double sigma2 = std::log(1.0 + cv * cv);
        const double mu = -0.5 * sigma2;
        const double sigma = std::sqrt(sigma2);
        up->set_lambda_provider(
            [estimators, noise_rng, mu, sigma](const workload::TxApp& app, util::Seconds now) {
              // Default estimator: 1200 s EWMA half-life.
              auto [it, inserted] = estimators->try_emplace(app.id(), perfmodel::RateEstimator{});
              const double observed = app.arrival_rate(now) * noise_rng->lognormal(mu, sigma);
              it->second.observe(now, observed);
              return it->second.estimate();
            });
      }
      return up;
    }
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
