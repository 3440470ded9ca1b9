// Ablation C: placement-policy comparison.
//
// Runs the Section-3 workload under the paper's utility-driven controller
// and under three utility-blind baselines:
//   static-partition    — fixed node split, FCFS jobs at full speed
//   proportional-equal  — every workload entity gets an equal CPU share
//   proportional-demand — CPU proportional to raw demand
// The comparison isolates the paper's contribution: only the
// utility-driven policy balances the *worst-off* class.

#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace heteroplace;
  const auto cfg = bench::parse_args(
      argc, argv, "ablation_policies [--scale=F] [--seed=N] [--out=DIR]");
  const double scale = cfg.get_double("scale", 0.2);

  const std::vector<scenario::PolicyKind> policies = {
      scenario::PolicyKind::kUtilityDriven, scenario::PolicyKind::kStaticPartition,
      scenario::PolicyKind::kProportionalEqual, scenario::PolicyKind::kProportionalDemand};

  std::cout << "=== Ablation: placement policies (section3 scaled x" << scale << ") ===\n";
  std::cout << scenario::summary_csv_header() << ",min_class_utility\n";

  std::vector<scenario::ExperimentResult> results(policies.size());
  for (std::size_t i = 0; i < policies.size(); ++i) {
    scenario::Scenario s = scenario::section3_scaled(scale);
    s.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 42));
    scenario::ExperimentOptions opt;
    opt.policy = policies[i];
    opt.max_sim_time_s = 2.0e6;
    results[i] = scenario::run_experiment(s, opt);
  }

  std::vector<double> min_class(policies.size());
  for (std::size_t i = 0; i < policies.size(); ++i) {
    const auto& sum = results[i].summary;
    min_class[i] = std::min(sum.tx_utility.mean(), sum.job_utility.mean());
    std::cout << scenario::summary_csv_row(sum) << "," << min_class[i] << "\n";
  }

  std::cout << "\nChecks:\n";
  bool all_ok = true;
  for (std::size_t i = 1; i < policies.size(); ++i) {
    all_ok &= bench::check(std::string("utility-driven min-class utility beats ") +
                               scenario::to_string(policies[i]),
                           min_class[0] > min_class[i]);
  }
  all_ok &= bench::check("utility-driven completes every job",
                         results[0].summary.jobs_completed ==
                             results[0].summary.jobs_submitted);
  return all_ok ? 0 : 1;
}
