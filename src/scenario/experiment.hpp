#pragma once

// Single-cluster experiments. run_experiment runs a one-domain Scenario
// through the one runner (scenario/federation_experiment.hpp) and
// projects the result onto one world's series + summary.

#include <functional>
#include <memory>
#include <string>

#include "obs/profile.hpp"
#include "scenario/metrics.hpp"
#include "scenario/scenario.hpp"

namespace heteroplace::scenario {

enum class PolicyKind {
  kUtilityDriven,      // the paper's controller
  kStaticPartition,    // fixed node split, FCFS jobs
  kProportionalEqual,  // CPU fair share, utility-blind
  kProportionalDemand  // CPU proportional to demand, utility-blind
};

[[nodiscard]] const char* to_string(PolicyKind p);
[[nodiscard]] PolicyKind policy_from_string(const std::string& name);

struct ExperimentOptions {
  PolicyKind policy{PolicyKind::kUtilityDriven};
  /// TX node fraction for the static-partition baseline.
  double static_tx_fraction{0.4};
  /// Run cluster invariant validation after every control cycle and
  /// count violations in the summary (tests assert zero).
  bool validate_invariants{false};
  /// Override the scenario horizon (0 = keep scenario setting).
  double horizon_override_s{0.0};
  /// Hard safety cap on simulated time when running to completion.
  double max_sim_time_s{5.0e6};
  /// Measurement noise on the controller's arrival-rate observations:
  /// each cycle the utility-driven policy sees λ_true × LogNormal(1, cv)
  /// smoothed by an EWMA estimator (0 = perfect observation). Only
  /// affects the utility-driven policy.
  double lambda_noise_cv{0.0};
  /// Half-life of the rate-estimator EWMA (see perfmodel::RateEstimator).
  double lambda_estimator_half_life_s{1200.0};
};

struct ExperimentResult {
  util::TimeSeriesSet series;
  ExperimentSummary summary;
  /// Wall-clock per-phase profile (scenario.obs.profile; empty otherwise).
  /// Machine-dependent diagnostics — excluded from result_digest, exactly
  /// like EngineStats.
  obs::ProfileReport profile;
};

/// Engine worker threads a runner should actually use for a scenario
/// configured with `configured` (>= 1 after clamping). The environment
/// variable HETEROPLACE_FORCE_THREADS, when set to an integer >= 1,
/// overrides every scenario: CI's ThreadSanitizer job sets it to push
/// the whole suite — whose scenarios default to engine.threads = 1 —
/// through the parallel batch path. Safe by the engine's contract:
/// threads = N is bit-identical to threads = 1, so forcing it cannot
/// change any expected output.
[[nodiscard]] int effective_engine_threads(int configured);

/// Run a one-domain `scenario` under `options` through
/// run_federated_experiment. The result is domain 0's series and summary,
/// plus the federation-level power and fault series under their
/// single-world names (fed_power_w -> power_w, fed_availability ->
/// availability, ...). Observability output is the 1-domain federation's:
/// the world is trace process "dc0" and its metrics carry domain="dc0".
/// Deterministic for a fixed (scenario.seed, options) pair. Throws
/// std::invalid_argument for a scenario with more than one domain.
[[nodiscard]] ExperimentResult run_experiment(const Scenario& scenario,
                                              const ExperimentOptions& options = {});

}  // namespace heteroplace::scenario
