#pragma once

// Config-driven scenario construction: build a full Scenario from
// key=value configuration (file or command line), so experiments can be
// defined and swept without recompiling.
//
// Recognized keys (defaults = the paper's Section-3 experiment):
//
//   name, seed, horizon_s, sample_interval_s
//   nodes, cpu_per_node_mhz, mem_per_node_mb
//   classes                    — machine-class names (comma list; mutually
//                                 exclusive with the scalar nodes/cpu/mem keys)
//   class.<name>.arch, class.<name>.cores, class.<name>.core_mhz,
//   class.<name>.mem_mb, class.<name>.speed_factor, class.<name>.accel,
//   class.<name>.count
//   jobs.constraint.arch, jobs.constraint.accel, jobs.constraint.min_core_mhz
//   app.<i>.constraint.arch, app.<i>.constraint.accel,
//   app.<i>.constraint.min_core_mhz
//   cycle_s
//   latency.start_job, latency.suspend, latency.resume, latency.migrate,
//   latency.start_instance
//   solver.allow_migration, solver.work_conserving,
//   solver.protect_completion_horizon_s, solver.instance_capacity_factor
//   jobs.count, jobs.mean_interarrival_s, jobs.tail_count,
//   jobs.tail_mean_interarrival_s, jobs.work_mhz_s, jobs.work_cv,
//   jobs.max_speed_mhz, jobs.memory_mb, jobs.goal_stretch,
//   jobs.utility_shape, jobs.importance
//   apps                       — number of transactional apps (default 1)
//   app.<i>.name, app.<i>.lambda, app.<i>.rt_goal_s,
//   app.<i>.service_demand_mhz_s, app.<i>.importance,
//   app.<i>.instance_memory_mb, app.<i>.min_instances,
//   app.<i>.max_instances, app.<i>.utility_cap, app.<i>.max_utilization,
//   app.<i>.throughput_exponent
//
// Federated (multi-domain) scenarios additionally recognize:
//
//   domains                    — number of controller domains (default 1,
//                                 at most 4096)
//   router                     — least-loaded | capacity-weighted | sticky
//   domain.<i>.name, domain.<i>.nodes, domain.<i>.cpu_per_node_mhz,
//   domain.<i>.mem_per_node_mb, domain.<i>.first_cycle_at_s
//   domain.<i>.class.<name>.count — per-domain machine-class pool override
//                                 (0 allowed: the class lives elsewhere)
//
// Per-domain keys default to an even split of the global `nodes` pool (or
// of each class pool) and auto-staggered control cycles
// (first_cycle_at_s = -1).
//
// Live-migration keys (all under migration.*, disabled by default):
//
//   migration.enabled          — turn the MigrationManager on (default false)
//   migration.policy           — drain | rebalance | drain+rebalance
//   migration.check_interval_s, migration.max_moves_per_tick
//   migration.high_watermark, migration.low_watermark
//   migration.link_mode        — p2p | uplink (link contention pools)
//   migration.selection        — fifo | cost (movable-job ordering)
//   migration.default_bandwidth_mb_per_s, migration.default_latency_s
//   migration.align_attach     — defer each destination attach to just
//                                 before the destination controller's next
//                                 cycle so that cycle plans the arriving
//                                 job (default false)
//   bandwidth.<i>.<j>          — directed link bandwidth override (MB/s;
//                                 p2p mode only — rejected under uplink)
//   link_latency.<i>.<j>       — directed link latency override (s)
//   uplink_bandwidth.<i>       — shared uplink pool capacity (MB/s;
//                                 uplink mode only — rejected under p2p)
//
// Unknown keys raise util::ConfigError so typos fail loudly.

#include "scenario/federation_experiment.hpp"
#include "scenario/scenario.hpp"
#include "util/config.hpp"

namespace heteroplace::scenario {

/// Build a scenario from configuration; unspecified keys fall back to the
/// paper's Section-3 values. Throws util::ConfigError on malformed values
/// or unknown keys.
[[nodiscard]] Scenario scenario_from_config(const util::Config& cfg);

/// Render a scenario back into config text (round-trips through
/// scenario_from_config); handy for archiving exactly what a bench ran.
[[nodiscard]] std::string scenario_to_config(const Scenario& scenario);

/// Build a federated (multi-domain) scenario: the shared keys define the
/// workload and controller, `domains`/`router`/`domain.<i>.*` shard the
/// cluster into controller domains. `domains = 1` (the default) yields
/// the single-cluster scenario's exact federated equivalent.
[[nodiscard]] FederatedScenario federated_scenario_from_config(const util::Config& cfg);

}  // namespace heteroplace::scenario
