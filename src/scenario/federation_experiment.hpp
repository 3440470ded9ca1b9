#pragma once

// The experiment runner: N controller domains on one engine, one shared
// workload stream routed across them. It is the only runner —
// run_experiment (scenario/experiment.hpp) runs a single-cluster
// Scenario as the 1-domain federation federate(scenario, 1).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "faults/injector.hpp"
#include "migration/manager.hpp"
#include "obs/profile.hpp"
#include "scenario/experiment.hpp"
#include "scenario/scenario.hpp"

namespace heteroplace::scenario {

/// One controller domain's shard of the federation.
struct DomainSpec {
  std::string name{"domain"};
  ClusterSpec cluster;
  /// First control evaluation for this domain's controller; < 0 means
  /// auto-stagger (index × cycle / domain_count, domain 0 at phase 0).
  double first_cycle_at_s{-1.0};
  /// Per-domain power-cap override in watts; < 0 inherits the federation
  /// spec's power.cap_w (0 there = uncapped).
  double power_cap_w{-1.0};
};

/// Scheduled health change: at `at_s`, set the domain's router weight
/// (brownout < 1, drain = 0, recovery = 1). The router re-splits every
/// app's demand under the new weights immediately.
struct WeightEvent {
  std::size_t domain{0};
  double at_s{0.0};
  double weight{1.0};
};

/// One directed inter-domain link override for the TransferModel. A
/// component left at exactly -1.0 (the "unset" default) keeps the model
/// default; any other negative value is rejected by
/// validate_migration_spec. Bandwidths are MB/s.
struct LinkSpec {
  std::size_t from{0};
  std::size_t to{0};
  double bandwidth_mb_per_s{-1.0};
  double latency_s{-1.0};
};

/// Shared-uplink capacity override for one domain (uplink link mode).
struct UplinkSpec {
  std::size_t domain{0};
  double bandwidth_mb_per_s{0.0};
};

/// Live-migration subsystem configuration. Disabled by default: a
/// migration-disabled run takes exactly the pre-migration code path and
/// reproduces its output bit for bit (pinned by tests/migration_test.cpp).
struct MigrationSpec {
  bool enabled{false};
  /// "drain", "rebalance", or "drain+rebalance".
  std::string policy{"drain"};
  double check_interval_s{60.0};
  int max_moves_per_tick{8};
  double high_watermark{1.1};
  double low_watermark{0.8};
  /// Link contention granularity: "p2p" (per ordered domain pair) or
  /// "uplink" (one shared pool per source domain).
  std::string link_mode{"p2p"};
  /// Movable-job ordering: "fifo" (list order, the pre-cost-aware
  /// behavior) or "cost" (image/remaining-work/SLA-slack ranking).
  std::string selection{"fifo"};
  /// Rebalance congestion guard: skip sources with this many outbound
  /// transfers already queued (0 = no guard; see PolicyConfig).
  int max_queued_transfers{0};
  /// Link-fault resilience (see MigrationOptions): retry budget and the
  /// capped exponential backoff for transfers killed by a link fault.
  int max_transfer_retries{3};
  double retry_backoff_s{30.0};
  double retry_backoff_max_s{480.0};
  /// Re-rank queued transfers cheapest-image-first when a link pool backs
  /// up. Off by default (FIFO order is part of the pinned behavior).
  bool rescore_queued_transfers{false};
  /// Defer destination attaches to just before the destination
  /// controller's next cycle so that cycle plans the job (see
  /// MigrationOptions::align_attach). Off by default (immediate attach
  /// is part of the pinned behavior).
  bool align_attach{false};
  double default_bandwidth_mb_per_s{125.0};
  double default_latency_s{2.0};
  std::vector<LinkSpec> links;
  std::vector<UplinkSpec> uplinks;
};

struct FederatedScenario {
  std::string name{"federated"};
  std::vector<DomainSpec> domains;
  std::vector<TxAppScenario> apps;
  JobStreamSpec jobs;
  ControllerSpec controller;
  /// Router choice: "least-loaded", "capacity-weighted", or "sticky".
  std::string router{"least-loaded"};
  std::vector<WeightEvent> weight_events;
  MigrationSpec migration;
  PowerSpec power;
  FaultSpec faults;
  ObsSpec obs;
  /// SLO burn-rate alert specs (see Scenario::slos); evaluated on the
  /// shared sampling clock against the per-domain ledgers merged in
  /// domain order.
  std::vector<obs::SloSpec> slos;
  double horizon_s{0.0};
  double sample_interval_s{600.0};
  std::uint64_t seed{42};
  /// Engine worker threads (see Scenario::engine_threads). Federated
  /// runs are where N > 1 pays off: same-timestamp control cycles,
  /// executor passes, and power ticks of distinct domains run
  /// concurrently between deterministic merge barriers.
  int engine_threads{1};
};

/// Throw util::ConfigError naming the offending config key (e.g.
/// `bandwidth.0.1: must be positive`) if `spec` is invalid for a
/// federation of `n_domains`: unknown policy / link_mode / selection
/// strings, out-of-range scalars, link or uplink overrides naming a
/// missing domain, bandwidth/latency values that are neither valid nor
/// the -1.0 "unset" sentinel, or overrides the selected link mode never
/// reads. The config loader and the runner (when migration is enabled)
/// both call this; CLI front-ends that fill the spec from flags call it
/// early for a clean usage-style failure instead of an exception mid-run.
void validate_migration_spec(const MigrationSpec& spec, std::size_t n_domains);

/// A FederatedScenario with every field it shares with Scenario (name,
/// apps, jobs, controller, power, faults, obs, slos, horizon, sample
/// interval, seed, engine threads) copied from `single`, and no domains.
/// federate() and the config loader both start from this.
[[nodiscard]] FederatedScenario federated_shell(const Scenario& single);

/// Shard a single-cluster scenario into `n_domains` equal domains (nodes
/// split as evenly as possible, remainder to the earliest domains); every
/// shared field carries over unchanged (see federated_shell). n_domains = 1
/// yields the scenario's exact single-cluster equivalent.
[[nodiscard]] FederatedScenario federate(const Scenario& single, int n_domains,
                                         const std::string& router = "least-loaded");

/// Per-domain outcome: the domain's series + summary (the shape
/// run_experiment returns), plus how many jobs the router sent here.
struct DomainResult {
  std::string name;
  ExperimentResult result;
  long jobs_routed{0};
};

/// Engine-level execution counters for one run. Diagnostic only — the
/// result digest (scenario/result_digest) deliberately excludes them,
/// because parallel_batches/batched_events legitimately differ between
/// engine.threads = 1 (always zero) and N > 1 while the simulation
/// output stays bit-identical.
struct EngineStats {
  std::uint64_t events_executed{0};
  std::uint64_t parallel_batches{0};
  std::uint64_t batched_events{0};
  /// Wall-clock dispatch attribution (obs.profile only; zeros otherwise).
  std::uint64_t serial_spine_ns{0};
  std::uint64_t batch_exec_ns{0};
  std::uint64_t merge_barrier_ns{0};
};

struct FederatedResult {
  std::vector<DomainResult> domains;
  /// Federation-aggregated samples (fed_* series: summed allocations,
  /// job counts; mig_* series when migration is enabled) on the shared
  /// sampling clock.
  util::TimeSeriesSet series;
  /// merge_summaries over the per-domain summaries.
  ExperimentSummary summary;
  /// End-of-run migration counters (all zero when migration is disabled).
  migration::MigrationStats migration;
  /// End-of-run fault counters, summed across domains (all zero when
  /// fault injection is disabled).
  faults::DomainFaultStats faults;
  /// Mean time to repair over completed repairs (0 without faults).
  double fault_mttr_s{0.0};
  /// Execution counters (excluded from the digest; see EngineStats).
  EngineStats engine;
  /// Wall-clock per-phase profile (obs.profile; empty otherwise). Like
  /// EngineStats this is machine-dependent and digest-excluded.
  obs::ProfileReport profile;
};

/// Run a federated scenario. Deterministic for a fixed (scenario, options)
/// pair. options.policy selects every domain's local policy. Domains with
/// explicit machine classes also record class_<name>_placeable_mhz series
/// and, with metrics on, a cluster_class_placeable_mhz gauge per class.
[[nodiscard]] FederatedResult run_federated_experiment(const FederatedScenario& scenario,
                                                       const ExperimentOptions& options = {});

}  // namespace heteroplace::scenario
