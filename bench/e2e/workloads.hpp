#pragma once

// The repo benchmark's workloads: seeded scenarios that all go through
// scenario::run_federated_experiment. Each one stresses a different layer
// (see README.md for why each was chosen); the seed only sets
// FederatedScenario::seed, from which the runner derives the job stream
// and the fault processes.

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/federation_experiment.hpp"

namespace heteroplace::bench {

struct Workload {
  std::string name;
  scenario::FederatedScenario scenario;
};

/// Names in the order the benchmark runs them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Build workload `name` (one of workload_names(); throws
/// std::invalid_argument otherwise) with the given seed and engine
/// threads. `out_dir` receives the small metrics snapshot that
/// fed_aligned_obs writes on every run.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed,
                                     int engine_threads, const std::string& out_dir);

/// The job stream the runner generates for `scenario`: same phases, same
/// template, same seed. Used to time generation from outside and to count
/// the jobs a run must account for.
[[nodiscard]] std::vector<workload::JobSpec> generate_job_stream(
    const scenario::FederatedScenario& scenario);

}  // namespace heteroplace::bench
