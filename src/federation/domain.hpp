#pragma once

// A controller domain: one shard of a federated cluster.
//
// A domain is a datacenter / availability zone with its own World (node
// pool, locally-routed jobs, locally-split transactional demand) and its
// own PlacementController + executor, all sharing the federation's single
// deterministic engine. The per-domain control path — equalizer, solver,
// executor — is exactly the single-cluster code, unchanged; the federation
// only decides which domain each unit of work lands in.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/controller.hpp"
#include "core/world.hpp"
#include "sim/engine.hpp"

namespace heteroplace::federation {

class Domain {
 public:
  Domain(std::size_t index, std::string name, sim::Engine& engine,
         std::unique_ptr<core::PlacementPolicy> policy, cluster::ActionLatencies latencies = {},
         core::ControllerConfig config = {}, bool auto_stagger = true)
      : index_(index),
        name_(std::move(name)),
        auto_stagger_(auto_stagger),
        controller_(std::make_unique<core::PlacementController>(engine, world_, std::move(policy),
                                                                latencies, config)) {}

  Domain(const Domain&) = delete;
  Domain& operator=(const Domain&) = delete;

  [[nodiscard]] std::size_t index() const { return index_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  [[nodiscard]] core::World& world() { return world_; }
  [[nodiscard]] const core::World& world() const { return world_; }
  [[nodiscard]] core::PlacementController& controller() { return *controller_; }
  [[nodiscard]] const core::PlacementController& controller() const { return *controller_; }

  /// Router health multiplier in [0, 1]: 1 = healthy, 0 = drained.
  /// Brownouts are modeled by lowering it (see Federation::set_domain_weight).
  [[nodiscard]] double weight() const { return weight_; }
  void set_weight(double w) {
    weight_ = w;
    note_change();
  }

  /// Raw cluster CPU capacity (parked nodes included).
  [[nodiscard]] util::CpuMhz total_cpu() const { return world_.cluster().total_capacity().cpu; }
  /// CPU placement can actually use right now: active nodes only,
  /// P-state-scaled. Bit-identical to total_cpu() while the power
  /// subsystem is idle or disabled.
  [[nodiscard]] util::CpuMhz placeable_cpu() const {
    return world_.cluster().placeable_capacity().cpu;
  }
  /// Weight-scaled placeable capacity — what routers treat as available.
  /// Parked capacity is excluded: a mostly-asleep domain must not look
  /// like headroom to the router or the rebalance policy (its wake
  /// latency is the consolidation policy's business, not theirs).
  [[nodiscard]] util::CpuMhz effective_cpu() const { return placeable_cpu() * weight_; }

  /// CPU the domain's current workload could consume: active jobs at
  /// their speed caps plus the transactional offered load λ(t)·d.
  ///
  /// Cost model: O(distinct job speed caps) plus O(apps) to sum, and no
  /// job or trace is visited. The job part comes from aggregates kept by
  /// account_job_added / account_job_removed. The per-app tx loads are
  /// cached for query times in the open interval tx_window() while the
  /// app registry is unchanged; the first read outside it searches each
  /// app's trace once. Summation order (jobs first, then apps in
  /// registry order) matches the recomputed reference bit for bit.
  [[nodiscard]] util::CpuMhz offered_cpu_load(util::Seconds now) const;

  /// Open interval (lo, hi) of query times the cached tx loads answer,
  /// as left by the last offered_cpu_load call: the trace breakpoints of
  /// every app bracket it.
  struct TxWindow {
    double lo;
    double hi;
  };
  [[nodiscard]] TxWindow tx_window() const { return {tx_lo_, tx_hi_}; }

  /// Same quantity recomputed from scratch over the job population —
  /// the reference the incremental aggregates are pinned against in
  /// tests (and nothing else should call; it is O(jobs)).
  [[nodiscard]] util::CpuMhz offered_cpu_load_recomputed(util::Seconds now) const;

  [[nodiscard]] std::size_t active_job_count() const {
    return static_cast<std::size_t>(active_jobs_);
  }

  /// Completion hook for experiment drivers. The executor's raw callback
  /// slot is owned by the federation (it maintains the load aggregates);
  /// user callbacks register here and are forwarded synchronously.
  void set_completion_callback(core::ActionExecutor::JobCompletionCallback cb) {
    user_completion_ = std::move(cb);
  }

  // --- incremental load accounting (maintained by Federation) ---------------

  /// A job entered this domain's world (routed arrival or migration attach).
  void account_job_added(util::CpuMhz max_speed);
  /// A job left this domain's world (completion or migration detach).
  void account_job_removed(util::CpuMhz max_speed);

  /// Whether Federation::start may assign this domain its default phase
  /// offset. False when the caller fixed first_cycle_at explicitly
  /// (including an explicit zero).
  [[nodiscard]] bool auto_stagger() const { return auto_stagger_; }

 private:
  friend class Federation;  // wires the executor completion slot and the change counter

  /// Count every change to this domain's routing status (weight, job
  /// aggregates, apps, cluster capacity) in `*counter`.
  void set_change_counter(std::uint64_t* counter) {
    change_counter_ = counter;
    world_.set_change_counter(counter);
  }
  void note_change() {
    if (change_counter_ != nullptr) ++*change_counter_;
  }

  std::size_t index_;
  std::string name_;
  double weight_{1.0};
  bool auto_stagger_;
  core::World world_;  // must outlive controller_ (which holds a reference)
  std::unique_ptr<core::PlacementController> controller_;
  core::ActionExecutor::JobCompletionCallback user_completion_;
  std::uint64_t* change_counter_{nullptr};

  // Incrementally maintained job-load aggregates. The speed histogram
  // (distinct max_speed → active count) makes the offered-load sum exact
  // — removing a job cannot perturb the low-order bits of the remaining
  // sum the way running subtraction on a double accumulator would.
  long active_jobs_{0};
  std::map<double, long> speed_hist_;

  // Per-app offered tx loads (registry order), valid for query times in
  // the open interval (tx_lo_, tx_hi_) while world_.apps_epoch() equals
  // tx_epoch_. Starts empty-windowed, so the first read fills it. Only
  // serial (unsharded) events read it — routing, demand re-splits and
  // migration ticks — so the lazy refill needs no lock.
  void refresh_tx_loads(util::Seconds now) const;
  mutable std::vector<util::CpuMhz> tx_loads_;
  mutable double tx_lo_{0.0};
  mutable double tx_hi_{0.0};
  mutable std::uint64_t tx_epoch_{0};
};

}  // namespace heteroplace::federation
