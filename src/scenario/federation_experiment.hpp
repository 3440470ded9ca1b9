#pragma once

// The experiment runner: N controller domains on one engine, one shared
// workload stream routed across them. It is the only runner —
// run_experiment (scenario/experiment.hpp) runs a one-domain Scenario
// through it and projects the result onto one world.

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

/// The struct's former name. Its only remaining user is the repo
/// benchmark under bench/e2e/, which changes only together with its
/// pinned baselines; new code says Scenario.
using FederatedScenario = Scenario;

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

/// Throw util::ConfigError naming the second key of a repeated
/// `domain.<i>.name` or `app.<i>.name`, or of an app named `jobs` (the
/// batch stream's SLO name). Per-domain and per-app series are keyed by
/// name, so a repeat would silently merge two series into one. The
/// config loader and the runner both call this.
void validate_names(const Scenario& s);

/// A copy of `single` with `domains` filled by the even split into
/// `n_domains` (see domain_share), the router set and, for more than one
/// domain, "-federated" appended to the name. n_domains = 1 yields the
/// scenario's exact single-domain equivalent. Throws
/// std::invalid_argument when a domain would get no nodes.
[[nodiscard]] Scenario federate(const Scenario& single, int n_domains,
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

/// Run a scenario over its domains (one domain, dc0, holding the whole
/// cluster when `domains` is empty). Deterministic for a fixed (scenario,
/// options) pair. options.policy selects every domain's local policy. Domains with
/// explicit machine classes also record class_<name>_placeable_mhz series
/// and, with metrics on, a cluster_class_placeable_mhz gauge per class.
[[nodiscard]] FederatedResult run_federated_experiment(const Scenario& scenario,
                                                       const ExperimentOptions& options = {});

}  // namespace heteroplace::scenario
