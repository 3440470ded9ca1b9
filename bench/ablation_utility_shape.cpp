// Ablation D: utility-function shape.
//
// The paper uses monotonic continuous utility functions but does not
// prescribe a shape. This ablation swaps the job utility family
// (piecewise-linear / linear / sigmoid / exponential) and shows the
// controller equalizes under all of them — the mechanism is
// shape-agnostic, while absolute utility levels and the CPU split shift
// with the shape's steepness around the goal.

#include <iostream>
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace heteroplace;
  const auto cfg = bench::parse_args(
      argc, argv, "ablation_utility_shape [--scale=F] [--seed=N] [--out=DIR]");
  const double scale = cfg.get_double("scale", 0.2);

  const std::vector<std::string> shapes = {"piecewise", "linear", "sigmoid", "exponential"};
  std::cout << "=== Ablation: job utility-function shape (section3 scaled x" << scale
            << ") ===\n";
  std::cout << "shape,equalization_gap,tx_utility_mean,lr_utility_mean,goal_met,"
               "completion_ratio_mean,tx_alloc_mid_mhz\n";

  std::vector<scenario::ExperimentResult> results(shapes.size());
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    scenario::Scenario s = scenario::section3_scaled(scale);
    s.jobs.utility_shape = shapes[i];
    s.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 42));
    results[i] = scenario::run_experiment(s, {});
  }

  bool all_ok = true;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const auto& r = results[i];
    const auto* tx_alloc = r.series.find("tx_alloc_mhz");
    const double t_end = r.summary.sim_end_time_s;
    std::cout << shapes[i] << "," << r.summary.equalization_gap.mean() << ","
              << r.summary.tx_utility.mean() << "," << r.summary.lr_utility.mean() << ","
              << r.summary.goal_met_fraction << "," << r.summary.completion_ratio.mean()
              << "," << tx_alloc->mean_over(0.4 * t_end, 0.7 * t_end) << "\n";
    all_ok &= r.summary.jobs_completed == r.summary.jobs_submitted;
  }

  std::cout << "\nChecks:\n";
  all_ok &= bench::check("every shape completes all jobs", all_ok);
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    all_ok &= bench::check("equalization works under shape '" + shapes[i] + "'",
                           results[i].summary.equalization_gap.mean() < 0.2);
  }
  return all_ok ? 0 : 1;
}
