// Ablation B: job arrival-rate sweep.
//
// The paper's evaluation uses a mean inter-arrival of 260 s, which makes
// the system "increasingly crowded". This sweep shows the load crossover:
// at low rates every goal is met and the transactional tier keeps its
// demand; past the crossover, completion ratios and both utilities sag
// and the equalizer pushes the transactional allocation down.

#include <iostream>
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace heteroplace;
  const auto cfg = bench::parse_args(
      argc, argv, "ablation_arrival_rate [--scale=F] [--seed=N] [--out=DIR]");
  const double scale = cfg.get_double("scale", 0.2);

  const std::vector<double> inter_arrivals = {1040.0, 520.0, 390.0, 260.0, 195.0, 130.0};
  std::cout << "=== Ablation: mean job inter-arrival (section3 scaled x" << scale << ") ===\n";
  std::cout << "mean_interarrival_s,goal_met,completion_ratio_mean,tx_utility_mean,"
               "lr_utility_mean,tx_alloc_mid_frac,jobs_completed\n";

  std::vector<scenario::ExperimentResult> results(inter_arrivals.size());
  for (std::size_t i = 0; i < inter_arrivals.size(); ++i) {
    scenario::Scenario s = scenario::section3_scaled(scale);
    s.jobs.mean_interarrival_s = inter_arrivals[i];
    s.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 42));
    scenario::ExperimentOptions opt;
    opt.max_sim_time_s = 2.0e6;
    results[i] = scenario::run_experiment(s, opt);
  }

  std::vector<double> goal_met(inter_arrivals.size());
  for (std::size_t i = 0; i < inter_arrivals.size(); ++i) {
    const auto& r = results[i];
    const auto* tx_alloc = r.series.find("tx_alloc_mhz");
    const auto* tx_demand = r.series.find("tx_demand_mhz");
    const double t_end = r.summary.sim_end_time_s;
    const double tx_frac = tx_demand->mean_over(0.3 * t_end, 0.7 * t_end) > 0
                               ? tx_alloc->mean_over(0.3 * t_end, 0.7 * t_end) /
                                     tx_demand->mean_over(0.3 * t_end, 0.7 * t_end)
                               : 1.0;
    goal_met[i] = r.summary.goal_met_fraction;
    std::cout << inter_arrivals[i] << "," << r.summary.goal_met_fraction << ","
              << r.summary.completion_ratio.mean() << "," << r.summary.tx_utility.mean()
              << "," << r.summary.lr_utility.mean() << "," << tx_frac << ","
              << r.summary.jobs_completed << "\n";
  }

  std::cout << "\nChecks:\n";
  bool all_ok = true;
  all_ok &= bench::check("lightly loaded system meets nearly all goals",
                         goal_met.front() > 0.9);
  all_ok &= bench::check("goal attainment degrades with arrival rate",
                         goal_met.back() < goal_met.front());
  return all_ok ? 0 : 1;
}
