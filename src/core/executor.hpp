#pragma once

// Action executor: converges cluster reality toward a PlacementPlan.
//
// Diffs the desired placement against the current cluster state and
// performs the control mechanisms of the paper — start, stop, suspend,
// resume, migrate, resize — with realistic latencies on the simulation
// clock. During a transition the affected VM makes no progress, which is
// what makes placement churn costly.
//
// Apply order matters and is chosen to avoid transient over-commitment:
//   1. suspends and instance stops (release capacity),
//   2. CPU-share shrinks, then grows,
//   3. migrations (with fallback to suspension when memory is not yet free),
//   4. starts and resumes (with a short retry when blocked on memory that
//      a concurrent suspension is still draining).
// Job actions within a pass follow World::active_jobs() order; instance
// actions follow (app, node) order.
//
// Cost per apply(): O(live jobs · log planned jobs + web instances ·
// log web instances + plan size), with no map lookup per job and no index
// kept between calls. It relies on the plan-order contract
// (cluster/placement.hpp): each live job finds its plan entry with one
// binary search, and the live web instances, sorted by (app, node), are
// merged against plan.instances in one walk. Debug builds assert the
// order.

#include <functional>
#include <map>
#include <utility>

#include "cluster/actions.hpp"
#include "cluster/placement.hpp"
#include "core/world.hpp"
#include "obs/context.hpp"
#include "sim/engine.hpp"

namespace heteroplace::core {

class ActionExecutor {
 public:
  using JobCompletionCallback = std::function<void(const workload::Job&)>;

  ActionExecutor(sim::Engine& engine, World& world, cluster::ActionLatencies latencies = {})
      : engine_(engine), world_(world), latencies_(latencies) {}

  ActionExecutor(const ActionExecutor&) = delete;
  ActionExecutor& operator=(const ActionExecutor&) = delete;

  /// Invoked (synchronously, on the simulation clock) whenever a job
  /// finishes its work.
  void set_completion_callback(JobCompletionCallback cb) { on_completion_ = std::move(cb); }

  /// Parallel-batch shard tag for every event this executor schedules
  /// (transitions, completions, retries). Set by the owning controller;
  /// all these events touch only this executor's World.
  void set_shard(sim::ShardId shard) { shard_ = shard; }

  /// Attach observability (apply-pass spans, per-action instants).
  /// Forwarded by PlacementController::set_obs.
  void set_obs(const obs::ObsContext& ctx) { obs_ = ctx; }

  /// Converge toward `plan`. Called once per control cycle.
  void apply(const cluster::PlacementPlan& plan);

  /// Begin suspending a running job outside the plan-convergence path —
  /// the migration manager's checkpoint step. No-op unless the job is
  /// currently running. Costs the normal suspend latency and counts as a
  /// suspend action.
  void suspend_job_for_migration(util::JobId id);

  /// Drop all runtime bookkeeping (pending completion / transition
  /// events) for a job leaving this world via cross-domain handoff.
  void forget_job(util::JobId id);

  /// Drop runtime bookkeeping (pending start event / share grant) for a
  /// web-app instance VM destroyed out-of-band — a node crash tears the
  /// VM down without the stop path that normally cancels these.
  void forget_instance(util::VmId vm);

  [[nodiscard]] const cluster::ActionLatencies& latencies() const { return latencies_; }

  [[nodiscard]] const cluster::ActionCounts& counts() const { return counts_; }

  /// Actions executed since the last call (per-cycle deltas for metrics).
  [[nodiscard]] cluster::ActionCounts take_counts_delta();

 private:
  // The map-based reference apply() in tests/executor_test.cpp drives the
  // same mechanics as apply() to check it action for action.
  friend struct ExecutorOracle;

  struct JobRuntime {
    sim::EventHandle completion;   // pending completion event
    sim::EventHandle transition;   // pending start/resume/migrate/suspend end
    double pending_share{0.0};     // CPU share to grant when transition ends
  };
  struct InstanceRuntime {
    sim::EventHandle start;        // pending end of the start latency
    double pending_share{0.0};     // CPU share to grant when it ends
  };

  /// Start a pending job or resume a suspended one on `node`; when its
  /// memory does not fit yet, retry once after the suspend latency.
  void launch_job(workload::Job& job, util::NodeId node, util::CpuMhz cpu, bool is_retry);
  /// Returns false when the destination cannot take the job yet.
  bool migrate_job(workload::Job& job, util::NodeId node, util::CpuMhz cpu);
  void suspend_job(workload::Job& job);
  void finish_transition_to_running(util::JobId job_id);
  void schedule_completion(workload::Job& job);
  void on_job_finished(util::JobId job_id);

  /// Grant as much of `want` as the node can take right now.
  util::CpuMhz clamped_share(util::VmId vm, util::CpuMhz want) const;

  sim::Engine& engine_;
  World& world_;
  cluster::ActionLatencies latencies_;
  sim::ShardId shard_{sim::kNoShard};
  obs::ObsContext obs_;
  JobCompletionCallback on_completion_;
  cluster::ActionCounts counts_;
  cluster::ActionCounts counts_at_last_delta_;
  std::map<util::JobId, JobRuntime> job_rt_;
  std::map<util::VmId, InstanceRuntime> instance_rt_;
};

}  // namespace heteroplace::core
