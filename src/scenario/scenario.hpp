#pragma once

// Scenario descriptions: everything needed to run an experiment —
// cluster topology, workloads, controller configuration — plus builders
// for the paper's Section 3 evaluation (and scaled-down variants used in
// tests and fast ablations).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/actions.hpp"
#include "core/placement_problem.hpp"
#include "obs/alerts.hpp"
#include "workload/job_factory.hpp"
#include "workload/transactional.hpp"

namespace heteroplace::scenario {

/// One named machine-class pool: the class definition plus how many
/// nodes of it the cluster hosts (config `class.<name>.*`).
struct ClassPoolSpec {
  cluster::MachineClass klass;
  int count{0};
};

struct ClusterSpec {
  int nodes{25};
  double cpu_per_node_mhz{12000.0};  // 4 processors × 3000 MHz
  double mem_per_node_mb{4096.0};
  /// Explicit machine-class pools (config `classes` + `class.<name>.*`).
  /// Empty = a scalar cluster of `nodes` identical default-class nodes,
  /// the legacy layout, bit-identical to before classes existed. When
  /// non-empty the scalar fields above are unused (the loader rejects
  /// mixing the two spellings).
  std::vector<ClassPoolSpec> classes;

  [[nodiscard]] bool heterogeneous() const { return !classes.empty(); }
  /// Pool counts summed; `nodes` for a scalar spec.
  [[nodiscard]] int total_nodes() const;
  /// Largest delivered per-node capacity across pools (scalar:
  /// cpu_per_node_mhz) — the loader's per-instance CPU ceiling.
  [[nodiscard]] double max_node_cpu_mhz() const;
};

/// Job-stream specification: a phased Poisson arrival process over a job
/// template. The paper uses one phase (800 jobs, mean gap 260 s); a
/// second phase lets experiments model the end-of-run rate decrease
/// explicitly.
struct JobStreamSpec {
  long count{800};
  double mean_interarrival_s{260.0};
  long tail_count{0};               // optional slower second phase
  double tail_mean_interarrival_s{0.0};
  workload::JobTemplate tmpl;
  std::string utility_shape{"piecewise"};
};

struct TxAppScenario {
  workload::TxAppSpec spec;
  workload::DemandTrace trace;
};

struct ControllerSpec {
  double cycle_s{600.0};
  cluster::ActionLatencies latencies;
  core::SolverConfig solver;
};

/// Power & energy subsystem configuration. Disabled by default: a
/// power-disabled run takes exactly the pre-power code path and
/// reproduces its output bit for bit (pinned by tests/power_test.cpp).
struct PowerSpec {
  bool enabled{false};
  /// Consolidation policy: "none" (meter only) or "idle-park".
  std::string policy{"idle-park"};
  /// Policy evaluation period; 0 = use the control cycle.
  double check_interval_s{0.0};
  double idle_timeout_s{1800.0};
  double headroom_factor{1.25};
  int min_active_nodes{1};
  /// Per-domain draw cap in watts (0 = uncapped); enforced by P-state
  /// throttling.
  double cap_w{0.0};
  /// Sleep depth for parked nodes: "standby" or "off".
  std::string park_state{"standby"};
  // Node power table (see power::PowerModel::ladder).
  double active_w{220.0};
  double standby_w{15.0};
  double off_w{0.0};
  double park_latency_s{10.0};
  double wake_latency_s{60.0};
  /// DVFS ladder depth in [1, 4] (1 = no throttling available).
  int pstates{4};
};

/// One explicit fault event (see faults::FaultSchedule). Targets are
/// validated against the scenario by validate_fault_spec.
struct FaultEventSpec {
  /// "node-crash", "link-down", or "blackout".
  std::string kind{"node-crash"};
  /// node-crash / blackout: the target domain (0 in single-world runs);
  /// link-down: source domain.
  std::size_t domain{0};
  /// node-crash: node index within the domain.
  std::size_t node{0};
  /// link-down: destination domain.
  std::size_t to{0};
  double at_s{-1.0};
  double duration_s{-1.0};
  /// link-down only: fraction of bandwidth lost, in (0, 1]. 1 (the
  /// default) is a hard outage that kills in-flight transfers.
  double severity{1.0};
};

/// Fault-injection subsystem configuration. Disabled by default: a
/// faults-disabled run takes exactly the pre-fault code path and
/// reproduces its output bit for bit (pinned by tests/fault_test.cpp).
struct FaultSpec {
  bool enabled{false};
  /// Seed for the stochastic fault processes; 0 = derive from the
  /// scenario seed (so reseeding the workload reseeds the faults too).
  std::uint64_t seed{0};
  /// Horizon for stochastic window generation; 0 = the scenario horizon.
  double until_s{0.0};
  /// Periodic batch-job checkpoint interval; a crash reverts each lost
  /// job to its last checkpoint. 0 = continuous (lossless) checkpointing.
  double checkpoint_interval_s{0.0};
  /// Repair-crew capacity for node crashes: at most this many node
  /// repairs in progress at once, excess crashes queued in failure
  /// order. 0 = unlimited (the pinned pre-crew behavior).
  int max_concurrent_repairs{0};
  // Stochastic renewal processes (0 MTTF disables each; an enabled
  // process needs both MTTF and MTTR positive).
  double node_mttf_s{0.0};
  double node_mttr_s{0.0};
  double link_mttf_s{0.0};
  double link_mttr_s{0.0};
  double domain_mttf_s{0.0};
  double domain_mttr_s{0.0};
  std::vector<FaultEventSpec> events;
};

/// Observability configuration (config keys obs.*; validated by
/// scenario/obs_factory). Disabled by default: with everything off the
/// runner constructs no recorder/registry/profiler at all and the run is
/// bit for bit the same as before the obs layer existed.
struct ObsSpec {
  /// Trace recorder mode: "off", "ring" (bounded in-memory buffer,
  /// optionally dumped to trace_path at end of run) or "stream"
  /// (incremental write to trace_path during the run).
  std::string trace{"off"};
  std::string trace_path;
  long trace_ring_capacity{1L << 18};
  /// Also trace the engine's own dispatch/batch/merge-barrier events.
  /// These depend on engine.threads (batches do not exist at threads=1),
  /// so they are excluded from the thread-count-invariance contract —
  /// leave off when comparing traces across thread counts.
  bool trace_engine{false};
  /// End-of-run metrics snapshot paths (Prometheus text / JSON); empty =
  /// don't write. Either one enables the metrics registry.
  std::string metrics_path;
  std::string metrics_json_path;
  /// Wall-clock per-phase profiling (ExperimentResult/FederatedResult
  /// `profile`, digest-excluded like EngineStats).
  bool profile{false};
  /// Placement decision audit log (obs/audit.hpp): "off" or "ring"
  /// (bounded per-domain ring, dumped to audit_path at end of run).
  std::string audit{"off"};
  std::string audit_path;
  long audit_ring_capacity{1L << 16};
  /// End-of-run SLA attribution report paths (obs/sla.hpp): JSON
  /// (machine-readable, byte-identical across engine thread counts) and
  /// CSV (human summary). Either one enables the SLA ledger; so does a
  /// non-empty Scenario::slos.
  std::string sla_report_path;
  std::string sla_report_csv_path;

  [[nodiscard]] bool trace_enabled() const { return trace != "off"; }
  [[nodiscard]] bool metrics_enabled() const {
    return !metrics_path.empty() || !metrics_json_path.empty();
  }
  [[nodiscard]] bool audit_enabled() const { return audit != "off"; }
  [[nodiscard]] bool sla_enabled() const {
    return !sla_report_path.empty() || !sla_report_csv_path.empty();
  }
  [[nodiscard]] bool any() const {
    return trace_enabled() || metrics_enabled() || profile || audit_enabled() || sla_enabled();
  }
};

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
  /// Link-fault resilience (see MigrationOptions): retry budget and the
  /// capped exponential backoff for transfers killed by a link fault.
  int max_transfer_retries{3};
  double retry_backoff_s{30.0};
  double retry_backoff_max_s{480.0};
  /// Re-rank queued transfers cheapest-image-first when a link pool backs
  /// up. Off by default (FIFO order is part of the pinned behavior).
  bool rescore_queued_transfers{false};
  double default_bandwidth_mb_per_s{125.0};
  double default_latency_s{2.0};
  std::vector<LinkSpec> links;
  std::vector<UplinkSpec> uplinks;
};

/// Upper bound on engine worker threads, for engine.threads and
/// HETEROPLACE_FORCE_THREADS alike. A batch splits into at most one shard
/// group per domain, and the widest federation any workload builds has
/// 100 domains: more threads would have nothing to run.
inline constexpr int kMaxEngineThreads = 256;

/// Everything one run needs. `cluster` is the fleet as written;
/// `domains` is its split into controller domains. An empty `domains`
/// means one domain, dc0, holding `cluster` (the builders below leave it
/// empty, so a test may edit `cluster` after building); federate() and
/// the config loader fill it.
struct Scenario {
  std::string name{"scenario"};
  ClusterSpec cluster;
  std::vector<TxAppScenario> apps;
  JobStreamSpec jobs;
  ControllerSpec controller;
  PowerSpec power;
  FaultSpec faults;
  ObsSpec obs;
  /// SLO burn-rate alert specs (config keys `slos` + `slo.<app>.*`);
  /// `app` names a tx app or "jobs". Any entry enables the SLA ledger.
  std::vector<obs::SloSpec> slos;
  /// Simulated horizon; 0 = run until every submitted job completes.
  double horizon_s{0.0};
  /// Sampling period for the time-series recorder.
  double sample_interval_s{600.0};
  std::uint64_t seed{42};
  /// Engine worker threads (config key engine.threads), 1 to
  /// kMaxEngineThreads. 1 = the pinned serial reference; N > 1 runs
  /// same-timestamp per-domain event batches on a worker pool,
  /// bit-identical to 1 by construction.
  int engine_threads{1};
  std::vector<DomainSpec> domains;
  /// Router choice: "least-loaded", "capacity-weighted", or "sticky".
  std::string router{"least-loaded"};
  /// Scheduled router-weight changes. No config key expresses them, so
  /// scenario_to_config rejects a scenario that has any.
  std::vector<WeightEvent> weight_events;
  MigrationSpec migration;
};

/// Domain `index` of the even split of `fleet` into `n_domains`: named
/// dc<index>, with the node count (or each class pool) divided evenly and
/// the remainder going to the earliest domains. A share may hold zero
/// nodes; callers decide whether that is an error.
[[nodiscard]] DomainSpec domain_share(const ClusterSpec& fleet, int index, int n_domains);

/// The paper's Section 3 experiment: 25 nodes × 4 × 3000 MHz, 800
/// identical jobs (exponential inter-arrival, mean 260 s), 3 job VMs max
/// per node by memory, one constant transactional workload, 600 s control
/// cycle. Parameters not stated in the paper (job length, service demand,
/// SLA goals) are chosen so the documented qualitative phases emerge; see
/// EXPERIMENTS.md.
[[nodiscard]] Scenario section3_scenario();

/// Scaled-down Section 3 (fewer nodes/jobs, shorter jobs) for tests and
/// fast ablation sweeps. `scale` ∈ (0, 1]; 1 returns the full scenario.
[[nodiscard]] Scenario section3_scaled(double scale);

/// Two transactional classes (gold/silver, different RT goals and
/// importance) plus a job stream: the service-differentiation scenario.
[[nodiscard]] Scenario service_differentiation_scenario();

}  // namespace heteroplace::scenario
