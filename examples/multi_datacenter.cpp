// Multi-datacenter federation: three controller domains of different
// sizes share one workload stream — a diurnal transactional load plus a
// batch-job stream — under a pluggable cross-domain router. Midway
// through the run the largest domain browns out (loses most of its
// effective capacity), the router re-splits demand toward the healthy
// domains, and the domain recovers later.
//
// Build & run:   ./build/multi_datacenter
// Options:       --router=least-loaded|capacity-weighted|sticky
//                --jobs=N --horizon=SECONDS --seed=N

#include <iostream>

#include "scenario/federation_experiment.hpp"
#include "scenario/report.hpp"
#include "util/config.hpp"

int main(int argc, char** argv) {
  using namespace heteroplace;

  util::Config cfg;
  try {
    cfg = util::Config::from_args(argc, argv);
  } catch (const util::ConfigError& e) {
    std::cerr << "usage: multi_datacenter [--router=NAME] [--jobs=N] [--horizon=S] [--seed=N]\n"
              << e.what() << "\n";
    return 1;
  }

  // Start from the scaled Section-3 workload, then shard it into three
  // unequal datacenters: a large primary and two smaller satellites.
  scenario::Scenario base = scenario::section3_scaled(0.4);  // 10 nodes total
  base.name = "multi-datacenter";
  base.jobs.count = cfg.get_int("jobs", 120);
  base.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 11));

  // Skewed diurnal transactional load: overnight trough, morning ramp,
  // midday peak, evening decay. (Rates are req/s for the whole
  // federation; the router splits them across domains.)
  workload::DemandTrace diurnal;
  diurnal.add(util::Seconds{0.0}, 3.0);       // night
  diurnal.add(util::Seconds{10000.0}, 8.0);   // morning ramp
  diurnal.add(util::Seconds{25000.0}, 12.0);  // midday peak
  diurnal.add(util::Seconds{45000.0}, 6.0);   // evening
  diurnal.add(util::Seconds{60000.0}, 3.0);   // night again
  base.apps[0].trace = diurnal;

  scenario::Scenario fs =
      scenario::federate(base, 3, cfg.get_string("router", "least-loaded"));
  fs.domains[0].name = "dc-primary";
  fs.domains[0].cluster.nodes = 5;
  fs.domains[1].name = "dc-east";
  fs.domains[1].cluster.nodes = 3;
  fs.domains[2].name = "dc-west";
  fs.domains[2].cluster.nodes = 2;

  // Brownout: the primary datacenter loses 70% of its effective capacity
  // during the midday peak, then recovers.
  fs.weight_events.push_back({0, 20000.0, 0.3});
  fs.weight_events.push_back({0, 40000.0, 1.0});

  fs.horizon_s = cfg.get_double("horizon", 80000.0);

  scenario::ExperimentOptions options;
  options.validate_invariants = true;

  std::cout << "Federation '" << fs.name << "': " << fs.domains.size()
            << " domains under router '" << fs.router << "', " << base.jobs.count
            << " jobs, diurnal transactional load, dc-primary brownout at t=20000s\n\n";

  const scenario::FederatedResult result = scenario::run_federated_experiment(fs, options);

  for (const auto& d : result.domains) {
    std::cout << "=== " << d.name << " (" << d.jobs_routed << " jobs routed) ===\n";
    scenario::print_summary(std::cout, d.result.summary);
    std::cout << "\n";
  }

  std::cout << "=== federation (merged) ===\n";
  scenario::print_summary(std::cout, result.summary);

  std::cout << "\nFederation allocation over time (MHz) and domain weights:\n";
  scenario::print_series_csv(std::cout, result.series,
                             {"fed_tx_alloc_mhz", "fed_lr_alloc_mhz", "weight_dc-primary"},
                             /*every_nth=*/4);
  return 0;
}
