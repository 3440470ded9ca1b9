#pragma once

// Federation: N controller domains on one shared deterministic engine.
//
// The federation owns the global registries a multi-datacenter deployment
// needs — which domain hosts each job, and how each transactional app's
// demand is split — while each Domain keeps the full single-cluster
// control stack (World, controller, executor) unchanged. Incoming work is
// assigned by a pluggable DomainRouter; controller cycles are staggered
// across domains by default so N control loops do not fire in lockstep on
// the shared clock.
//
// A 1-domain federation is behaviorally identical to the plain
// single-World path (pinned by tests/federation_test.cpp): the router has
// one choice, the demand split is the identity, and the stagger offset of
// domain 0 is zero.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "federation/domain.hpp"
#include "federation/router.hpp"
#include "obs/context.hpp"

namespace heteroplace::federation {

class Federation {
 public:
  /// Observer of every domain's control cycles (metrics aggregation).
  using CycleObserver = std::function<void(const Domain&, const core::CycleReport&)>;

  Federation(sim::Engine& engine, std::unique_ptr<DomainRouter> router);

  /// Create a domain (before add_app/submit_job/start). The returned
  /// reference is stable for the federation's lifetime; populate its
  /// cluster through domain.world().cluster(). Pass auto_stagger = false
  /// to pin the controller phase to config.first_cycle_at exactly
  /// (including an explicit zero); otherwise start() may stagger it.
  Domain& add_domain(std::string name, std::unique_ptr<core::PlacementPolicy> policy,
                     cluster::ActionLatencies latencies = {}, core::ControllerConfig config = {},
                     bool auto_stagger = true);

  [[nodiscard]] std::size_t domain_count() const { return domains_.size(); }
  [[nodiscard]] Domain& domain(std::size_t i) { return *domains_.at(i); }
  [[nodiscard]] const Domain& domain(std::size_t i) const { return *domains_.at(i); }

  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] const DomainRouter& router() const { return *router_; }

  /// Register a transactional app federation-wide: the router's demand
  /// shares split its offered load into one scaled trace per domain.
  /// Every domain receives the app (possibly with a zero-rate trace) so
  /// local controllers and metrics see a consistent app registry.
  void add_app(workload::TxAppSpec spec, workload::DemandTrace trace);

  /// Route `spec` to exactly one domain's world; returns that domain.
  /// Throws if the job id was already submitted anywhere in the federation.
  Domain& submit_job(workload::JobSpec spec);

  [[nodiscard]] bool job_routed(util::JobId id) const { return job_domain_.count(id) > 0; }
  /// Domain index owning a previously submitted job.
  [[nodiscard]] std::size_t job_domain(util::JobId id) const;
  /// Jobs routed to each domain so far.
  [[nodiscard]] std::vector<long> jobs_per_domain() const;

  // --- cross-domain job handoff (migration subsystem) -----------------------
  //
  // detach_job removes a job from its owner domain's world and updates
  // that domain's load aggregates; the job stays in the global registry
  // (pointing at the source) until attach_job lands it elsewhere. The
  // caller (migration::MigrationManager) is responsible for the VM-level
  // bookkeeping — retiring the source VM image and cancelling executor
  // events — before detaching.

  /// Remove a routed job from its current domain and return its state.
  [[nodiscard]] workload::Job detach_job(util::JobId id);

  /// Insert a job (typically restored from a checkpoint) into domain `to`
  /// and repoint the global registry at it.
  void attach_job(std::size_t to, workload::Job job);

  /// Update a domain's health weight (brownout/drain/recovery) and
  /// re-split every app's demand under the new weights. Safe mid-run:
  /// traces are piecewise by absolute time, and consumers only query
  /// rates at or after the current time.
  void set_domain_weight(std::size_t i, double weight);

  /// Re-split every app's demand under the current weights and capacity
  /// — without changing any weight. The fault injector calls this when a
  /// node crash (or recovery) moves a domain's placeable capacity, so
  /// transactional demand drains away from (or returns to) the domain.
  void resplit_demand();

  /// Start every domain's control loop. Domains added with
  /// auto_stagger = false (or with a nonzero first_cycle_at) keep their
  /// configured phase; the rest are staggered at index × cycle /
  /// domain_count (domain 0 keeps phase 0).
  void start();

  void set_cycle_observer(CycleObserver observer) { observer_ = std::move(observer); }

  /// Attach observability to the federation's own (serial, cross-domain)
  /// decision points: job routing, weight changes, demand re-splits. The
  /// context's pid should be the global lane (0); per-domain controller
  /// contexts are attached separately by the experiment runner, and a
  /// routed job is admitted to the SLA ledger of its domain's context.
  void set_obs(const obs::ObsContext& ctx) { obs_ = ctx; }

  /// Observer of domain weight changes (old weight, new weight), invoked
  /// after the weight is applied and demand re-split. The migration
  /// manager uses it to cancel queued evacuation transfers when a
  /// drained domain recovers.
  using WeightObserver = std::function<void(std::size_t domain, double old_w, double new_w)>;
  void set_weight_observer(WeightObserver observer) { weight_observer_ = std::move(observer); }

  // --- federation-wide aggregates -------------------------------------------

  [[nodiscard]] std::size_t total_submitted() const;
  [[nodiscard]] std::size_t total_completed() const;
  [[nodiscard]] util::CpuMhz total_capacity() const;

  /// The routing table: one DomainStatus per domain, current at `now`.
  /// Job routing, demand splits and the migration manager all read it.
  ///
  /// Cost model: O(domains that changed), plus a scan of D counters. The
  /// table persists across calls. Each domain bumps its own change
  /// counter wherever a status input changes: weight, job aggregates,
  /// app registry, cluster capacity (nodes, classes, power state, speed).
  /// An entry is refilled only when its counter moved or `now` left the
  /// open interval its tx loads hold for (Domain::tx_window). A refill
  /// reads cached aggregates, plus O(classes) for explicit machine
  /// classes; it visits no job or trace breakpoint, and nodes only in the
  /// cluster's one re-fold after a capacity change. Counters are written by each
  /// domain's own events or by serial ones, and read here only between
  /// batches, so they need no atomics. Every field equals a fresh
  /// fill_status bit for bit. The reference stays valid until the next
  /// add_domain; its contents change on the next call.
  [[nodiscard]] const std::vector<DomainStatus>& status(util::Seconds now);

  /// Rewrite every field of `out` (resized to one entry per domain) with
  /// the status at `now`: O(domains) refills. The oracle the routing
  /// table is checked against, in tests and in debug builds.
  void fill_status(util::Seconds now, std::vector<DomainStatus>& out) const;

 private:
  /// Normalized demand shares for `spec` given a status snapshot.
  [[nodiscard]] std::vector<double> normalized_shares(const workload::TxAppSpec& spec,
                                                      const std::vector<DomainStatus>& st);

  struct FederatedApp {
    workload::TxAppSpec spec;
    workload::DemandTrace trace;  // the global, unsplit offered load
    std::vector<double> shares;   // current per-domain split (sums to 1)
  };

  sim::Engine& engine_;
  std::unique_ptr<DomainRouter> router_;
  std::vector<std::unique_ptr<Domain>> domains_;
  std::vector<FederatedApp> apps_;
  std::unordered_map<util::JobId, std::size_t> job_domain_;  // global job registry
  CycleObserver observer_;
  obs::ObsContext obs_;
  // The routing table (see status()). changes_[i] is domain i's change
  // counter and seen_[i] its value at entry i's last refill, both
  // contiguous so a read scans D integers. tx_[i] is the tx window entry
  // i was filled for, and tx_all_ the intersection of every tx_[i], so
  // one check covers all windows until a breakpoint is crossed.
  std::vector<DomainStatus> status_;
  std::vector<std::uint64_t> changes_;
  std::vector<std::uint64_t> seen_;
  std::vector<Domain::TxWindow> tx_;
  Domain::TxWindow tx_all_{0.0, 0.0};  // empty: the first read refills
  WeightObserver weight_observer_;
  bool started_{false};
};

}  // namespace heteroplace::federation
