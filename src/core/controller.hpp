#pragma once

// The placement controller: the paper's periodic control loop.
//
// Every `cycle` seconds (600 s in the paper's evaluation) the controller
// snapshots the world, asks its policy for a desired placement, and has
// the executor converge toward it. An observer receives a CycleReport
// after each cycle — the metric recorder uses it to reproduce Figures 1
// and 2.

#include <functional>
#include <memory>

#include "cluster/actions.hpp"
#include "core/executor.hpp"
#include "core/policy.hpp"
#include "core/world.hpp"
#include "obs/context.hpp"
#include "sim/engine.hpp"

namespace heteroplace::core {

struct ControllerConfig {
  util::Seconds cycle{600.0};
  /// Time of the first control evaluation (clamped up to now() at
  /// start()). Federated deployments stagger their domains through this
  /// hook so controllers do not fire in lockstep.
  util::Seconds first_cycle_at{0.0};
  /// Parallel-batch shard for this controller's events (and its
  /// executor's). The federation sets this to the domain index: all
  /// effects of a cycle are confined to the domain's world, so
  /// same-timestamp cycles of distinct domains may run concurrently
  /// when engine.threads>1. kNoShard keeps everything serial.
  sim::ShardId shard{sim::kNoShard};
};

struct CycleReport {
  util::Seconds t{0.0};
  PolicyDiagnostics diag;
  cluster::ActionCounts actions;  // actions initiated this cycle
};

class PlacementController {
 public:
  using CycleObserver = std::function<void(const CycleReport&)>;

  PlacementController(sim::Engine& engine, World& world,
                      std::unique_ptr<PlacementPolicy> policy,
                      cluster::ActionLatencies latencies = {}, ControllerConfig config = {})
      : engine_(engine),
        world_(world),
        policy_(std::move(policy)),
        executor_(engine, world, latencies),
        config_(config) {
    executor_.set_shard(config_.shard);
  }

  void set_observer(CycleObserver observer) { observer_ = std::move(observer); }

  /// Attach this domain's observability context (cycle spans, skipped
  /// cycles); forwards to the policy and the executor. Call before
  /// start(); the default (no call) keeps every event a null test.
  void set_obs(const obs::ObsContext& ctx);
  [[nodiscard]] const obs::ObsContext& obs() const { return obs_; }

  [[nodiscard]] const ControllerConfig& config() const { return config_; }

  /// Adjust the first-evaluation time (phase offset). Must be called
  /// before start(); the federation layer uses it to stagger domains.
  void set_first_cycle_at(util::Seconds t) { config_.first_cycle_at = t; }

  /// Assign the parallel-batch shard (see ControllerConfig::shard).
  /// Must be called before start(); propagates to the executor.
  void set_shard(sim::ShardId shard) {
    config_.shard = shard;
    executor_.set_shard(shard);
  }

  /// Schedule the periodic control loop on the engine. Call once, before
  /// Engine::run(). Throws std::invalid_argument on a nonpositive cycle
  /// or a negative first_cycle_at.
  void start();

  /// Run one control evaluation immediately (tests / manual stepping).
  void run_cycle();

  [[nodiscard]] ActionExecutor& executor() { return executor_; }
  [[nodiscard]] PlacementPolicy& policy() { return *policy_; }
  [[nodiscard]] long cycles_run() const { return cycles_; }

  // --- fault tolerance -------------------------------------------------------

  /// Domain blackout support: while offline the periodic loop keeps its
  /// schedule but every evaluation is skipped (counted in
  /// missed_cycles). Going back online runs one extra control cycle at
  /// the recovery timestamp, deciding from live cluster state like every
  /// other cycle.
  void set_online(bool online);
  [[nodiscard]] bool online() const { return online_; }
  [[nodiscard]] long missed_cycles() const { return missed_cycles_; }

 private:
  void schedule_next();

  sim::Engine& engine_;
  World& world_;
  std::unique_ptr<PlacementPolicy> policy_;
  ActionExecutor executor_;
  ControllerConfig config_;
  CycleObserver observer_;
  obs::ObsContext obs_;
  long cycles_{0};
  long missed_cycles_{0};
  bool online_{true};
};

}  // namespace heteroplace::core
