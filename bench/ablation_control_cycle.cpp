// Ablation A: control-cycle sensitivity.
//
// The paper fixes the control cycle at 600 s. This ablation sweeps the
// cycle length and reports how reactivity trades off against churn:
// shorter cycles track load better (smaller equalization gap) at the cost
// of more placement actions; very long cycles leave jobs queued and
// utility unbalanced.

#include <iostream>
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace heteroplace;
  const auto cfg = bench::parse_args(
      argc, argv, "ablation_control_cycle [--scale=F] [--seed=N] [--out=DIR]");
  const double scale = cfg.get_double("scale", 0.2);

  const std::vector<double> cycles = {150.0, 300.0, 600.0, 1200.0, 2400.0};
  std::cout << "=== Ablation: control-cycle length (section3 scaled x" << scale << ") ===\n";
  std::cout << "cycle_s,tx_utility_mean,lr_utility_mean,equalization_gap,goal_met,"
               "completion_ratio_mean,disruptive_actions,instance_changes,cycles\n";

  std::vector<scenario::ExperimentResult> results(cycles.size());
  for (std::size_t i = 0; i < cycles.size(); ++i) {
    scenario::Scenario s = scenario::section3_scaled(scale);
    s.controller.cycle_s = cycles[i];
    s.sample_interval_s = cycles[i];
    s.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 42));
    results[i] = scenario::run_experiment(s, {});
  }

  bool all_ok = true;
  double gap_600 = 0.0;
  double gap_2400 = 0.0;
  for (std::size_t i = 0; i < cycles.size(); ++i) {
    const auto& sum = results[i].summary;
    std::cout << cycles[i] << "," << sum.tx_utility.mean() << "," << sum.lr_utility.mean()
              << "," << sum.equalization_gap.mean() << "," << sum.goal_met_fraction << ","
              << sum.completion_ratio.mean() << "," << sum.actions.total_disruptive() << ","
              << sum.actions.instance_starts + sum.actions.instance_stops << "," << sum.cycles
              << "\n";
    if (cycles[i] == 600.0) gap_600 = sum.equalization_gap.mean();
    if (cycles[i] == 2400.0) gap_2400 = sum.equalization_gap.mean();
    all_ok &= sum.jobs_completed == sum.jobs_submitted;
  }

  std::cout << "\nChecks:\n";
  all_ok &= bench::check("all runs complete every job", all_ok);
  all_ok &= bench::check("slower control (2400 s) tracks utility worse than 600 s",
                         gap_2400 > gap_600);
  return all_ok ? 0 : 1;
}
