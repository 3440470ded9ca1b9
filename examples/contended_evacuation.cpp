// Evacuate a datacenter through a narrow, shared uplink.
//
// Three controller domains share one workload stream. At t=15000s the
// primary domain is drained for maintenance and every job it hosts must
// leave — but unlike drain_datacenter's independent point-to-point
// links, this scenario runs the LinkScheduler in `uplink` mode: every
// checkpoint image leaving dc-primary contends for one FIFO bandwidth
// pool, so a mass evacuation queues and drains at wire speed instead of
// finishing instantaneously in parallel. Cost-aware selection
// (migration.selection=cost) ships free pending moves and cheap images
// first, cutting the time jobs spend parked behind the bottleneck.
//
// Build & run:   ./build/contended_evacuation
// Options:       --link_mode=uplink|p2p --selection=cost|fifo
//                --uplink=MB_PER_S --jobs=N --horizon=S --seed=N

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
    std::cerr << "usage: contended_evacuation [--link_mode=NAME] [--selection=NAME]"
                 " [--uplink=MB_PER_S] [--jobs=N] [--horizon=S] [--seed=N]\n"
              << e.what() << "\n";
    return 1;
  }

  scenario::Scenario base = scenario::section3_scaled(0.4);  // 10 nodes total
  base.name = "contended-evacuation";
  base.jobs.count = cfg.get_int("jobs", 90);
  base.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 11));

  scenario::Scenario fs = scenario::federate(base, 3);
  fs.domains[0].name = "dc-primary";
  fs.domains[0].cluster.nodes = 4;
  fs.domains[1].name = "dc-east";
  fs.domains[1].cluster.nodes = 3;
  fs.domains[2].name = "dc-west";
  fs.domains[2].cluster.nodes = 3;

  // Maintenance window on the primary.
  fs.weight_events.push_back({0, 15000.0, 0.0});
  fs.weight_events.push_back({0, 45000.0, 1.0});

  fs.migration.enabled = true;
  fs.migration.policy = "drain";
  fs.migration.check_interval_s = 120.0;
  fs.migration.max_moves_per_tick = 8;
  fs.migration.link_mode = cfg.get_string("link_mode", "uplink");
  fs.migration.selection = cfg.get_string("selection", "cost");
  try {
    scenario::validate_migration_spec(fs.migration, fs.domains.size());
  } catch (const util::ConfigError& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
  // The bottleneck: dc-primary's entire evacuation squeezes through one
  // thin uplink pool (default links would be 125 MB/s per pair). Under
  // --link_mode=p2p the same figure applies per destination pair
  // instead, so the two modes compare pooled vs. parallel bottlenecks.
  const double uplink_mb_per_s = cfg.get_double("uplink", 20.0);
  if (uplink_mb_per_s <= 0.0) {
    std::cerr << "--uplink must be positive (MB/s), got " << uplink_mb_per_s << "\n";
    return 1;
  }
  if (fs.migration.link_mode == "uplink") {
    fs.migration.uplinks.push_back({0, uplink_mb_per_s});
  } else {
    fs.migration.links.push_back({0, 1, uplink_mb_per_s, -1.0});
    fs.migration.links.push_back({0, 2, uplink_mb_per_s, -1.0});
  }

  fs.horizon_s = cfg.get_double("horizon", 80000.0);

  scenario::ExperimentOptions options;
  options.validate_invariants = true;

  std::cout << "Federation '" << fs.name << "': 3 domains, link mode '"
            << fs.migration.link_mode << "', selection '" << fs.migration.selection
            << "', dc-primary uplink " << uplink_mb_per_s << " MB/s, " << base.jobs.count
            << " jobs; dc-primary drains at t=15000s, recovers at t=45000s\n\n";

  const scenario::FederatedResult result = scenario::run_federated_experiment(fs, options);

  for (const auto& d : result.domains) {
    std::cout << "=== " << d.name << " (" << d.jobs_routed << " jobs owned at end) ===\n";
    scenario::print_summary(std::cout, d.result.summary);
    std::cout << "\n";
  }

  const auto& mig = result.migration;
  std::cout << "=== federation (merged) ===\n";
  scenario::print_summary(std::cout, result.summary);
  std::cout << "\nMigrations: " << mig.started << " started, " << mig.completed
            << " completed, " << mig.in_flight << " in flight at horizon\n"
            << "  images moved:       " << mig.bytes_moved_mb << " MB\n"
            << "  time on the wire:   " << mig.transfer_seconds << " s (uncontended model)\n"
            << "  queued behind link: " << mig.queue_wait_seconds << " s cumulative\n"
            << "  work lost:          " << mig.work_lost_mhz_s << " MHz*s (exact checkpoints)\n";

  std::cout << "\nEvacuation vs. the uplink queue over time:\n";
  scenario::print_series_csv(std::cout, result.series,
                             {"mig_started", "mig_completed", "mig_queue_depth",
                              "mig_queue_wait_s", "weight_dc-primary"},
                             /*every_nth=*/4);
  return 0;
}
