#pragma once

// FaultInjector: plays a FaultSchedule against the live system.
//
// Every fault and every repair fires at EventPriority::kFault — after
// same-instant workload arrivals, before any controller, migration, power
// or sampling pass reacts — so the whole control stack observes a
// consistent post-fault world within the same timestamp.
//
// What each fault does:
//   node crash      every VM resident on the node is destroyed. Batch jobs
//                   fall back to their last periodic checkpoint (or to zero
//                   if none was taken) and re-enter kPending; web instances
//                   simply vanish (the controller re-provisions them next
//                   cycle). The node enters PowerState::kFailed: zero
//                   placeable capacity, zero power draw, placement refused
//                   until the timed repair flips it back to kActive. In a
//                   federation the transactional demand split is re-run so
//                   load drains away from the shrunken domain.
//   link fault      the LinkScheduler pool loses bandwidth (severity < 1)
//                   or goes down (severity == 1, killing in-flight
//                   transfers); the MigrationManager owns the retry/backoff
//                   machinery that follows.
//   blackout        the domain's health weight is forced to 0 (router
//                   failover + demand re-split) and its controller is taken
//                   offline — cycles are missed, not queued. Running work
//                   keeps running; only the control plane is dark. On
//                   repair the weight is restored and the controller
//                   resyncs from live cluster state (policy warm-state
//                   dropped, immediate catch-up cycle).
//
// The injector also integrates per-domain availability: unavailability is
// 1 during a blackout, else the failed fraction of the domain's CPU
// capacity. Downtime, MTTR and lost-progress counters feed the fault_*
// metric series and the experiment summary.

#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "faults/fault_schedule.hpp"
#include "obs/context.hpp"
#include "util/ids.hpp"
#include "util/units.hpp"

namespace heteroplace::sim {
class Engine;
}
namespace heteroplace::core {
class World;
class PlacementController;
}
namespace heteroplace::power {
class PowerManager;
}
namespace heteroplace::federation {
class Federation;
}
namespace heteroplace::migration {
class MigrationManager;
}

namespace heteroplace::faults {

/// Per-domain control-stack endpoints the injector drives. `power` is
/// null when the power subsystem is disabled.
struct DomainHooks {
  core::World* world{nullptr};
  core::PlacementController* controller{nullptr};
  power::PowerManager* power{nullptr};
};

struct FaultOptions {
  /// Periodic batch-job checkpoint interval. A crash reverts each lost
  /// job to its most recent checkpoint; 0 means continuous (lossless)
  /// checkpointing — crashed jobs restart pending but keep all progress.
  double checkpoint_interval_s{0.0};
  /// Repair-crew capacity for node crashes. 0 (default) = unlimited:
  /// every repair runs concurrently and each node recovers at its
  /// window's end_s, exactly the pre-crew behavior. A positive limit
  /// models a finite crew: at most this many node repairs run at once;
  /// excess crashes queue in failure order (FIFO) and each queued repair
  /// recovers at crew_pickup + (end_s − start_s). Link faults and
  /// blackouts are never gated — different crews fix them.
  int max_concurrent_repairs{0};
};

/// Cumulative per-domain fault accounting (also aggregated by totals()).
struct DomainFaultStats {
  /// Fault windows that fired, whether or not they found anything to
  /// break (a blackout of a blacked-out domain still counts).
  long windows_fired{0};
  long node_crashes{0};
  long node_recoveries{0};
  long link_faults{0};
  long link_recoveries{0};
  long blackouts{0};
  long blackout_recoveries{0};
  /// Jobs torn down by node crashes (each re-enters kPending).
  long jobs_reverted{0};
  /// Work destroyed by crashes, in seconds at each job's max speed:
  /// (progress at crash − progress restored) / max_speed, summed.
  double jobs_lost_progress_s{0.0};
  /// Integrated unavailability: ∫ unavail(t) dt (seconds of equivalent
  /// full-domain outage).
  double downtime_s{0.0};
  /// Completed repairs: count and summed repair-window durations (MTTR =
  /// repair_time_s / repairs).
  long repairs{0};
  double repair_time_s{0.0};
};

class FaultInjector {
 public:
  /// One hooks entry per domain (a single-world run passes exactly one).
  /// The schedule must target only domains/nodes that exist; start()
  /// validates and throws std::invalid_argument otherwise.
  FaultInjector(sim::Engine& engine, std::vector<DomainHooks> hooks, FaultSchedule schedule,
                FaultOptions options = {});

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Federated runs: lets crashes/blackouts re-split demand and flip
  /// domain weights. Set before start().
  void set_federation(federation::Federation* fed) { fed_ = fed; }
  /// Required when the schedule contains link faults. Set before start().
  void set_migration(migration::MigrationManager* migration) { migration_ = migration; }

  /// Attach observability: one fault/recovery event per window edge and
  /// per-event timing.
  void set_obs(const obs::ObsContext& ctx) { obs_ = ctx; }

  /// Schedule every fault window (and the periodic checkpoint tick) on
  /// the engine. Call once, after the worlds are populated.
  void start();

  [[nodiscard]] std::size_t domain_count() const { return hooks_.size(); }

  /// Instantaneous availability of domain `d` in [0, 1].
  [[nodiscard]] double availability(std::size_t d) const;
  /// Integrated downtime of domain `d` up to `now`.
  [[nodiscard]] double downtime_s(std::size_t d, util::Seconds now) const;
  /// Nodes of domain `d` currently failed.
  [[nodiscard]] std::size_t failed_node_count(std::size_t d) const;

  /// Per-domain counters with downtime folded up to `now`.
  [[nodiscard]] DomainFaultStats stats(std::size_t d, util::Seconds now) const;
  /// Sum of stats() across domains.
  [[nodiscard]] DomainFaultStats totals(util::Seconds now) const;
  /// Mean time to repair over every completed repair, 0 if none completed.
  [[nodiscard]] double mttr_s() const;

 private:
  struct DomainState {
    double total_cpu{0.0};            // captured at start()
    std::set<std::size_t> failed_nodes;
    bool blackout{false};
    double saved_weight{1.0};         // weight to restore after a blackout
    double unavail{0.0};              // current instantaneous unavailability
    double last_fold{0.0};            // availability integration frontier
    DomainFaultStats stats;
  };

  void fire_fault(const FaultWindow& w);
  void fire_recovery(const FaultWindow& w);
  void crash_node(const FaultWindow& w);
  void recover_node(const FaultWindow& w);
  void fail_link(const FaultWindow& w);
  void restore_link(const FaultWindow& w);
  void blackout_domain(const FaultWindow& w);
  void restore_domain(const FaultWindow& w);
  void checkpoint_tick();

  /// Crew-limited node repairs (max_concurrent_repairs > 0): claim a
  /// crew slot or join the FIFO queue; a finishing repair hands its slot
  /// to the oldest waiting crash.
  void request_repair(const FaultWindow& w);
  void start_repair(const FaultWindow& w);

  /// Fold the availability integral up to `now_s` and refresh `unavail`.
  void refold(DomainState& st, double now_s);
  void credit_repair(DomainState& st, const FaultWindow& w);

  sim::Engine& engine_;
  std::vector<DomainHooks> hooks_;
  FaultSchedule schedule_;
  FaultOptions options_;
  federation::Federation* fed_{nullptr};
  migration::MigrationManager* migration_{nullptr};
  obs::ObsContext obs_;
  std::vector<DomainState> state_;
  /// Last periodic checkpoint per job (MHz·s of completed work).
  std::map<util::JobId, double> checkpoints_;
  /// Crew-limited repair state (unused when max_concurrent_repairs == 0).
  int active_repairs_{0};
  std::deque<FaultWindow> repair_queue_;
  std::function<void()> checkpoint_loop_;
  bool started_{false};
};

}  // namespace heteroplace::faults
