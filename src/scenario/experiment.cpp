#include "scenario/experiment.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>

#include "scenario/federation_experiment.hpp"

namespace heteroplace::scenario {

const char* to_string(PolicyKind p) {
  switch (p) {
    case PolicyKind::kUtilityDriven:
      return "utility-driven";
    case PolicyKind::kStaticPartition:
      return "static-partition";
    case PolicyKind::kProportionalEqual:
      return "proportional-equal";
    case PolicyKind::kProportionalDemand:
      return "proportional-demand";
  }
  return "?";
}

PolicyKind policy_from_string(const std::string& name) {
  if (name == "utility-driven" || name == "utility") return PolicyKind::kUtilityDriven;
  if (name == "static-partition" || name == "static") return PolicyKind::kStaticPartition;
  if (name == "proportional-equal") return PolicyKind::kProportionalEqual;
  if (name == "proportional-demand") return PolicyKind::kProportionalDemand;
  throw std::invalid_argument("unknown policy: " + name);
}

int effective_engine_threads(int configured) {
  if (const char* env = std::getenv("HETEROPLACE_FORCE_THREADS")) {
    const std::string_view text(env);
    int forced = 0;
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), forced);
    if (ec != std::errc{} || end != text.data() + text.size() || forced < 1 ||
        forced > kMaxEngineThreads) {
      throw std::invalid_argument("HETEROPLACE_FORCE_THREADS=" + std::string(text) +
                                  ": must be an integer in [1, " +
                                  std::to_string(kMaxEngineThreads) + "]");
    }
    return forced;
  }
  return std::max(configured, 1);
}

ExperimentResult run_experiment(const Scenario& scenario, const ExperimentOptions& options) {
  if (scenario.domains.size() > 1) {
    throw std::invalid_argument("run_experiment: more than one domain; use "
                                "run_federated_experiment");
  }
  FederatedResult fed = run_federated_experiment(scenario, options);

  // Project the 1-domain federation onto the single-world result: the
  // domain's own series plus the federation-level series whose single
  // world name drops the fed_ prefix.
  ExperimentResult result = std::move(fed.domains.front().result);
  static constexpr std::pair<const char*, const char*> kRenamed[] = {
      {"fed_power_w", "power_w"},
      {"fed_energy_wh", "energy_wh"},
      {"fed_power_parked_nodes", "power_parked_nodes"},
      {"fed_availability", "availability"},
      {"fed_fault_failed_nodes", "fault_failed_nodes"},
      {"fed_fault_downtime_s", "fault_downtime_s"},
      {"fed_jobs_lost_progress_s", "jobs_lost_progress_s"},
  };
  for (const auto& [fed_name, name] : kRenamed) {
    if (const util::TimeSeries* series = fed.series.find(fed_name)) {
      for (const auto& p : series->points()) result.series.add(name, p.t, p.v);
    }
  }
  result.summary.scenario = scenario.name;
  result.summary.fault_mttr_s = fed.fault_mttr_s;
  result.profile = std::move(fed.profile);
  return result;
}

}  // namespace heteroplace::scenario
