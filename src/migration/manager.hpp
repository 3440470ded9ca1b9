#pragma once

// MigrationManager: executes cross-domain job moves on the shared engine.
//
// Per-job lifecycle of a move (the checkpoint/suspend/resume machine):
//
//   running ──suspend (source executor, suspend latency)──▶ suspending
//   suspending ──image parked on disk──▶ checkpointed (detached from the
//       source World; the source controller no longer sees the job)
//   checkpointed ──LinkScheduler grant (FIFO bandwidth pool)──▶ transferring
//   transferring ──attach: restored kSuspended in the destination──▶
//       resuming (the destination controller resumes it in its next
//       cycle through the ordinary executor path) ──▶ running
//
// Pending (never-started) jobs short-circuit: no image, no wire time —
// they are simply re-routed. All scheduling runs at EventPriority::
// kMigration, so at a shared timestamp the manager observes completed
// state transitions and finished controller cycles, and samplers observe
// the manager's effects.

#include <cstddef>
#include <functional>
#include <map>
#include <memory>

#include "migration/checkpoint.hpp"
#include "migration/link_scheduler.hpp"
#include "migration/policy.hpp"
#include "migration/transfer_model.hpp"
#include "obs/context.hpp"

namespace heteroplace::migration {

struct MigrationOptions {
  /// Policy evaluation period.
  util::Seconds check_interval{60.0};
  /// Max moves initiated per evaluation (bounds churn per tick).
  int max_moves_per_tick{8};
  /// Link contention granularity (see LinkScheduler): per ordered domain
  /// pair (p2p) or one shared uplink pool per source domain.
  LinkMode link_mode{LinkMode::kP2p};
  /// Transfers killed by a link fault are retried with capped exponential
  /// backoff: attempt k waits min(retry_backoff_s * 2^k,
  /// retry_backoff_max_s). After max_transfer_retries failed attempts the
  /// job lands back at its source (restore-at-source failback).
  int max_transfer_retries{3};
  double retry_backoff_s{30.0};
  double retry_backoff_max_s{480.0};
  /// Re-rank queued transfers by checkpoint image size (cheapest first)
  /// whenever a link pool backs up — the congestion counterpart of the
  /// kCost selection rule. Off by default: FIFO order is part of the
  /// pinned pre-fault behavior.
  bool rescore_queued_transfers{false};
  /// Defer each destination attach to just before the destination
  /// controller's next periodic cycle (kWorkloadArrival beats
  /// kController at the shared timestamp), so that very cycle plans the
  /// arriving job instead of it waiting suspended for most of a cycle.
  /// Off by default: immediate attach is part of the pinned behavior.
  bool align_attach{false};
};

/// Cumulative counters, sampled into the mig_* metric series.
struct MigrationStats {
  long started{0};     // moves initiated (including instant pending moves)
  long completed{0};   // moves attached at their destination
  /// Moves aborted because their drained source recovered before the
  /// image reached the wire: the job stays put (suspended in the source,
  /// resumed by its local controller) instead of shipping pointlessly.
  long cancelled{0};
  long in_flight{0};   // started − completed − cancelled
  double bytes_moved_mb{0.0};     // checkpoint images shipped
  double transfer_seconds{0.0};   // cumulative modeled uncontended wire time
  /// Cumulative seconds transfers spent waiting for a contended link
  /// pool before reaching the wire (0 when links are never contended).
  /// The LinkScheduler owns this count; stats() copies it in so the two
  /// can never diverge.
  double queue_wait_seconds{0.0};
  /// Progress lost across handoffs: work done at suspend time minus work
  /// restored at the destination. Exact checkpointing keeps this at zero
  /// — the only SLA cost is the modeled suspend + transfer dead time.
  double work_lost_mhz_s{0.0};
  /// Transfers resubmitted after a link fault killed them.
  long transfer_retries{0};
  /// Jobs restored at their source after exhausting their retry budget
  /// (also counted in `cancelled`).
  long transfer_failbacks{0};
  /// Queued transfers moved to a cheaper slot by congestion re-scoring.
  long transfers_rescored{0};
};

/// Per-move stage, exposed for tests and diagnostics.
enum class MigrationStage {
  kSuspending,    // waiting for the source executor's suspend to land
  kCheckpointed,  // detached, image about to ship
  kTransferring,  // queued for or on the wire
  kRetryWait,     // killed by a link fault; backoff timer running
};

class MigrationManager {
 public:
  MigrationManager(federation::Federation& fed, TransferModel model,
                   std::unique_ptr<MigrationPolicy> policy, MigrationOptions options = {});
  ~MigrationManager();

  MigrationManager(const MigrationManager&) = delete;
  MigrationManager& operator=(const MigrationManager&) = delete;

  /// Schedule the periodic policy evaluation. Call once, after
  /// Federation::start().
  void start();

  /// One policy evaluation right now (tests / manual stepping).
  void tick();

  /// Attach observability: one async trace span per move (suspend →
  /// checkpoint → transfer → attach arc, keyed by job id on the global
  /// pid's migration lane), instants for retries/failbacks, tick timing,
  /// and started/completed counters.
  void set_obs(const obs::ObsContext& ctx);

  [[nodiscard]] MigrationStats stats() const {
    MigrationStats out = stats_;
    out.queue_wait_seconds = scheduler_.total_queue_wait_s();
    return out;
  }
  [[nodiscard]] const MigrationPolicy& policy() const { return *policy_; }
  [[nodiscard]] const TransferModel& transfer_model() const { return scheduler_.model(); }
  [[nodiscard]] const LinkScheduler& link_scheduler() const { return scheduler_; }
  [[nodiscard]] bool job_in_flight(util::JobId id) const { return flights_.count(id) > 0; }

  /// Fault-injection entry points (see faults::FaultInjector). Forwards
  /// to LinkScheduler::fail_link and moves every killed transfer into
  /// retry-wait with capped exponential backoff. Returns how many
  /// transfers the fault killed.
  std::size_t apply_link_fault(std::size_t from, std::size_t to, double bandwidth_factor);
  void clear_link_fault(std::size_t from, std::size_t to);

 private:
  struct Flight {
    std::size_t from{0};
    std::size_t to{0};
    MigrationStage stage{MigrationStage::kSuspending};
    JobCheckpoint ckpt;
    /// Link grant handle while kTransferring (0 for free pending moves).
    LinkScheduler::TransferId transfer_id{0};
    /// Modeled uncontended transfer time credited to stats at submission
    /// (rolled back if the transfer is cancelled before the wire).
    double transfer_s{0.0};
    /// Source recovered while the suspend was still landing: abort at
    /// the checkpoint step instead of detaching.
    bool abort_requested{false};
    /// Link-fault retry bookkeeping: resubmissions performed so far and
    /// the pending backoff event while kRetryWait.
    int attempts{0};
    sim::EventHandle retry{};
  };

  void execute(const MigrationRequest& req);
  /// Suspend landed (or should have): checkpoint, detach, ship.
  void begin_transfer(util::JobId id);
  /// Hand the (detached) flight's image to the link pool.
  void submit_flight(util::JobId id);
  /// Image arrived: restore into the destination world.
  void complete_transfer(util::JobId id);
  /// A drained source recovered: cancel every queued (not-yet-on-wire)
  /// outbound grant and land those jobs back in the source; transfers
  /// already on the wire complete normally.
  void on_domain_recovered(std::size_t domain);
  /// Undo a detach whose transfer never crossed the wire: restore the
  /// checkpoint into the source world (the job "stays put").
  /// `roll_back_stats` undoes the shipment accounting credited at
  /// submission — false when a link-fault kill already rolled it back.
  void land_back_at_source(util::JobId id, bool roll_back_stats);
  /// Park a killed (or link-down) flight in retry-wait, or fail it back
  /// to the source once its retry budget is spent.
  void schedule_retry(util::JobId id);
  void retry_transfer(util::JobId id);

  /// Close a flight's async trace span ("migration", keyed by job id).
  void trace_flight_end(util::JobId id, const char* outcome);

  federation::Federation& fed_;
  LinkScheduler scheduler_;
  obs::ObsContext obs_;
  obs::Counter* started_metric_{nullptr};
  obs::Counter* completed_metric_{nullptr};
  std::unique_ptr<MigrationPolicy> policy_;
  MigrationOptions options_;
  MigrationStats stats_;
  std::map<util::JobId, Flight> flights_;
  /// Live link grants → the jobs riding them (kill → retry routing).
  std::map<LinkScheduler::TransferId, util::JobId> transfer_jobs_;
  std::function<void()> tick_loop_;  // self-rescheduling periodic evaluation
  bool started_{false};
};

}  // namespace heteroplace::migration
