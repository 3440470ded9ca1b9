// Drain a datacenter live: three controller domains share one workload
// stream; midway through the run the primary domain is drained (weight
// 0) for maintenance. The migration manager checkpoints its running
// jobs, ships the VM images over the inter-domain links, and resumes
// them in the healthy domains — no work is lost beyond the modeled
// suspend and transfer dead time. The drained domain recovers later and
// the router starts sending it work again.
//
// Build & run:   ./build/drain_datacenter
// Options:       --router=least-loaded|capacity-weighted|sticky
//                --jobs=N --horizon=SECONDS --seed=N
//                --policy=drain|rebalance|drain+rebalance
//                --link_mode=p2p|uplink --selection=fifo|cost

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
    std::cerr << "usage: drain_datacenter [--router=NAME] [--policy=NAME] [--jobs=N]"
                 " [--horizon=S] [--seed=N]\n"
              << e.what() << "\n";
    return 1;
  }

  scenario::Scenario base = scenario::section3_scaled(0.4);  // 10 nodes total
  base.name = "drain-datacenter";
  base.jobs.count = cfg.get_int("jobs", 90);
  base.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 7));

  scenario::FederatedScenario fs =
      scenario::federate(base, 3, cfg.get_string("router", "least-loaded"));
  fs.domains[0].name = "dc-primary";
  fs.domains[0].cluster.nodes = 4;
  fs.domains[1].name = "dc-east";
  fs.domains[1].cluster.nodes = 3;
  fs.domains[2].name = "dc-west";
  fs.domains[2].cluster.nodes = 3;

  // Maintenance window: the primary drains at t=15000s and recovers at
  // t=45000s. Between those, the migration manager evacuates every job
  // it hosts.
  fs.weight_events.push_back({0, 15000.0, 0.0});
  fs.weight_events.push_back({0, 45000.0, 1.0});

  fs.migration.enabled = true;
  fs.migration.policy = cfg.get_string("policy", "drain");
  fs.migration.link_mode = cfg.get_string("link_mode", "p2p");
  fs.migration.selection = cfg.get_string("selection", "fifo");
  try {
    scenario::validate_migration_spec(fs.migration, fs.domains.size());
  } catch (const util::ConfigError& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
  fs.migration.check_interval_s = 120.0;
  fs.migration.max_moves_per_tick = 6;
  // Asymmetric links: east is close (fat pipe), west is far. In uplink
  // mode per-pair bandwidth is meaningless (one shared pool leaves the
  // primary), so only the propagation latencies carry over and the pool
  // gets the mean of the two pipes.
  if (fs.migration.link_mode == "uplink") {
    fs.migration.links.push_back({0, 1, -1.0, 1.0});
    fs.migration.links.push_back({0, 2, -1.0, 6.0});
    fs.migration.uplinks.push_back({0, 240.0});
  } else {
    fs.migration.links.push_back({0, 1, 400.0, 1.0});
    fs.migration.links.push_back({0, 2, 80.0, 6.0});
  }

  fs.horizon_s = cfg.get_double("horizon", 80000.0);

  scenario::ExperimentOptions options;
  options.validate_invariants = true;

  std::cout << "Federation '" << fs.name << "': 3 domains, router '" << fs.router
            << "', migration policy '" << fs.migration.policy << "', " << base.jobs.count
            << " jobs; dc-primary drains at t=15000s, recovers at t=45000s\n\n";

  const scenario::FederatedResult result = scenario::run_federated_experiment(fs, options);

  for (const auto& d : result.domains) {
    std::cout << "=== " << d.name << " (" << d.jobs_routed << " jobs owned at end) ===\n";
    scenario::print_summary(std::cout, d.result.summary);
    std::cout << "\n";
  }

  std::cout << "=== federation (merged) ===\n";
  scenario::print_summary(std::cout, result.summary);

  const auto& mig = result.migration;
  std::cout << "\nMigrations: " << mig.started << " started, " << mig.completed
            << " completed, " << mig.in_flight << " in flight at horizon\n"
            << "  images moved:     " << mig.bytes_moved_mb << " MB\n"
            << "  time on the wire: " << mig.transfer_seconds << " s\n"
            << "  work lost:        " << mig.work_lost_mhz_s << " MHz*s (exact checkpoints)\n";

  std::cout << "\nEvacuation over time (jobs running per domain, drained-domain weight):\n";
  scenario::print_series_csv(std::cout, result.series,
                             {"fed_jobs_running", "mig_started", "mig_completed",
                              "weight_dc-primary"},
                             /*every_nth=*/4);
  return 0;
}
