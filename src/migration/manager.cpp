#include "migration/manager.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/log.hpp"

namespace heteroplace::migration {

namespace {
using workload::JobPhase;
}  // namespace

MigrationManager::MigrationManager(federation::Federation& fed, TransferModel model,
                                   std::unique_ptr<MigrationPolicy> policy,
                                   MigrationOptions options)
    : fed_(fed),
      scheduler_(fed.engine(), std::move(model), options.link_mode),
      policy_(std::move(policy)),
      options_(options) {
  if (!policy_) throw std::invalid_argument("MigrationManager: policy must not be null");
  if (options_.check_interval.get() <= 0.0) {
    throw std::invalid_argument("MigrationManager: check_interval must be positive");
  }
  if (options_.max_moves_per_tick < 1) {
    throw std::invalid_argument("MigrationManager: max_moves_per_tick must be >= 1");
  }
  if (options_.max_transfer_retries < 0) {
    throw std::invalid_argument("MigrationManager: max_transfer_retries must be nonnegative");
  }
  if (options_.retry_backoff_s <= 0.0) {
    throw std::invalid_argument("MigrationManager: retry_backoff_s must be positive");
  }
  if (options_.retry_backoff_max_s < options_.retry_backoff_s) {
    throw std::invalid_argument("MigrationManager: retry_backoff_max_s must be >= retry_backoff_s");
  }
  // A drained domain that recovers keeps its not-yet-shipped jobs: every
  // queued outbound grant is cancelled and those jobs stay put.
  fed_.set_weight_observer([this](std::size_t domain, double old_w, double new_w) {
    if (old_w <= 0.0 && new_w > 0.0) on_domain_recovered(domain);
  });
}

MigrationManager::~MigrationManager() {
  fed_.set_weight_observer(nullptr);
}

void MigrationManager::start() {
  if (started_) throw std::logic_error("MigrationManager::start: already started");
  started_ = true;
  // Perpetual evaluation loop, running after the controllers at each
  // shared timestamp (kMigration > kController).
  tick_loop_ = [this] {
    tick();
    fed_.engine().schedule_in(options_.check_interval, sim::EventPriority::kMigration,
                              tick_loop_);
  };
  fed_.engine().schedule_in(options_.check_interval, sim::EventPriority::kMigration, tick_loop_);
}

void MigrationManager::tick() {
  const util::Seconds now = fed_.engine().now();
  const obs::Span tick_span(obs_, obs::SpanKind::kMigrationTick, now.get());
  // Congestion re-scoring (opt-in): when a pool has a backlog, let cheap
  // images overtake expensive ones — the queue analog of kCost selection.
  if (options_.rescore_queued_transfers) {
    stats_.transfers_rescored += static_cast<long>(
        scheduler_.rescore_queued(2, [this](LinkScheduler::TransferId tid) {
          auto it = transfer_jobs_.find(tid);
          if (it == transfer_jobs_.end()) return std::numeric_limits<double>::infinity();
          return flights_.at(it->second).ckpt.image_size.get();
        }));
  }
  const int budget = options_.max_moves_per_tick - static_cast<int>(flights_.size());
  if (budget <= 0) return;
  const auto& status = fed_.status(now);
  for (const MigrationRequest& req : policy_->propose(fed_, status, now, budget)) {
    execute(req);
  }
}

void MigrationManager::execute(const MigrationRequest& req) {
  // Re-validate everything: the policy proposed against a snapshot, and
  // eligibility is the manager's responsibility.
  if (flights_.count(req.job) > 0) return;
  if (req.from == req.to || req.to >= fed_.domain_count()) return;
  if (!fed_.job_routed(req.job) || fed_.job_domain(req.job) != req.from) return;
  if (fed_.domain(req.to).weight() <= 0.0) return;  // never move into a drained domain
  if (!scheduler_.link_up(req.from, req.to)) return;  // link down: re-propose once it heals

  core::World& world = fed_.domain(req.from).world();
  if (!world.job_exists(req.job)) return;
  workload::Job& job = world.job(req.job);
  if (job.held()) return;

  // Mid-transition jobs wait: a later tick re-proposes them once stable.
  const JobPhase phase = job.phase();
  if (phase != JobPhase::kPending && phase != JobPhase::kRunning &&
      phase != JobPhase::kSuspended) {
    return;
  }
  const util::Seconds now = fed_.engine().now();
  ++stats_.started;
  ++stats_.in_flight;
  obs_.migration_begin(req.job, req.from, req.to, now.get());
  // Hold first so no controller pass resumes or replans the job.
  job.set_held(true);
  if (phase == JobPhase::kRunning) {
    // Suspend through the source executor (normal latency and action
    // accounting — the modeled checkpoint cost).
    core::ActionExecutor& exec = fed_.domain(req.from).controller().executor();
    exec.suspend_job_for_migration(req.job);
    flights_.emplace(req.job, Flight{req.from, req.to, MigrationStage::kSuspending, {}});
    const util::JobId id = req.job;
    fed_.engine().schedule_in(exec.latencies().suspend_job, sim::EventPriority::kMigration,
                              [this, id] { begin_transfer(id); });
    return;
  }
  // Pending (never started: nothing to checkpoint, re-routed instantly)
  // or suspended: checkpoint now.
  flights_.emplace(req.job, Flight{req.from, req.to, MigrationStage::kCheckpointed,
                                   checkpoint_job(job, req.from, now)});
  begin_transfer(req.job);
}

void MigrationManager::begin_transfer(util::JobId id) {
  auto it = flights_.find(id);
  if (it == flights_.end()) return;
  Flight& flight = it->second;
  core::World& world = fed_.domain(flight.from).world();
  if (!world.job_exists(id)) {
    flights_.erase(it);
    obs_.migration_end(id, "move_orphaned", fed_.engine().now().get());
    return;
  }
  workload::Job& job = world.job(id);

  if (flight.stage == MigrationStage::kSuspending) {
    if (flight.abort_requested) {
      // The drained source recovered while the suspend was landing:
      // nothing has been detached, so the job simply stays — suspended in
      // its (healthy again) home world, resumed by the local controller's
      // next cycle.
      job.set_held(false);
      ++stats_.cancelled;
      --stats_.in_flight;
      flights_.erase(it);
      obs_.migration_end(id, "move_aborted", fed_.engine().now().get());
      return;
    }
    if (job.phase() != JobPhase::kSuspended) {
      // A node crash tore the job down mid-suspend (it is back in
      // kPending awaiting a restart) — a normal abort, not a bug. Any
      // other phase means a suspend silently failed, which cannot happen.
      if (job.phase() == JobPhase::kPending) {
        ++stats_.cancelled;
      } else {
        util::log_warn() << "migration: job " << id
                         << " not suspended at checkpoint time, abort";
      }
      job.set_held(false);
      --stats_.in_flight;
      flights_.erase(it);
      obs_.migration_end(id, "move_aborted", fed_.engine().now().get());
      return;
    }
    flight.ckpt = checkpoint_job(job, flight.from, fed_.engine().now());
  }
  flight.stage = MigrationStage::kTransferring;

  // Progress-fidelity accounting: exact checkpointing loses nothing, but
  // the metric keeps the claim honest.
  stats_.work_lost_mhz_s += job.done().get() - flight.ckpt.done.get();

  // Retire the source-side VM image and executor bookkeeping, then
  // detach the job from the source world.
  if (job.vm().valid()) {
    world.cluster().set_vm_state(job.vm(), cluster::VmState::kStopped);
  }
  fed_.domain(flight.from).controller().executor().forget_job(id);
  (void)fed_.detach_job(id);  // state travels via the checkpoint

  if (flight.ckpt.image_size.get() <= 0.0) {
    // Never-started jobs ship no image: re-routed synchronously, exactly
    // as the closed-form model priced them (transfer time zero).
    complete_transfer(id);
  } else if (!scheduler_.link_up(flight.from, flight.to)) {
    // The link went down while the suspend landed: the checkpoint is
    // taken and the job detached, so park the flight in retry-wait like
    // any killed transfer (nothing was credited to ship yet).
    schedule_retry(id);
  } else {
    submit_flight(id);
  }
}

void MigrationManager::submit_flight(util::JobId id) {
  Flight& flight = flights_.at(id);
  flight.stage = MigrationStage::kTransferring;
  const LinkScheduler::Grant grant = scheduler_.submit(
      flight.from, flight.to, flight.ckpt.image_size, [this, id] { complete_transfer(id); });
  stats_.bytes_moved_mb += flight.ckpt.image_size.get();
  stats_.transfer_seconds += grant.transfer_s;
  flight.transfer_id = grant.id;
  flight.transfer_s = grant.transfer_s;
  transfer_jobs_.emplace(grant.id, id);
  obs_.transfer_submit(id, flight.ckpt.image_size.get(), grant.transfer_s,
                       fed_.engine().now().get());
}

void MigrationManager::on_domain_recovered(std::size_t domain) {
  // Collect first: land_back_at_source mutates flights_.
  std::vector<std::pair<util::JobId, bool>> recalls;  // (job, roll_back_stats)
  for (auto& [id, flight] : flights_) {
    if (flight.from != domain) continue;
    switch (flight.stage) {
      case MigrationStage::kSuspending:
        // Abort at the checkpoint step (begin_transfer), where the job
        // is still attached to the source world.
        flight.abort_requested = true;
        break;
      case MigrationStage::kTransferring:
        // Only grants that never reached the wire can be recalled; an
        // image already moving completes at its destination as planned.
        if (flight.transfer_id != 0 && scheduler_.cancel_queued(flight.transfer_id)) {
          recalls.emplace_back(id, true);
        }
        break;
      case MigrationStage::kRetryWait:
        // The healthy-again source is a better home than another backoff
        // round: drop the retry and keep the job (stats were rolled back
        // when the link fault killed the transfer).
        flight.retry.cancel();
        recalls.emplace_back(id, false);
        break;
      case MigrationStage::kCheckpointed:
        break;  // transient within execute(); never observable here
    }
  }
  for (const auto& [id, roll_back] : recalls) land_back_at_source(id, roll_back);
}

void MigrationManager::land_back_at_source(util::JobId id, bool roll_back_stats) {
  auto it = flights_.find(id);
  const Flight flight = it->second;
  flights_.erase(it);
  transfer_jobs_.erase(flight.transfer_id);

  // The image never shipped: roll the shipment accounting back so the
  // stats report what actually crossed the wire.
  if (roll_back_stats) {
    stats_.bytes_moved_mb -= flight.ckpt.image_size.get();
    stats_.transfer_seconds -= flight.transfer_s;
  }

  // Land the checkpoint back on the source's disk — the same restore path
  // a completed transfer takes at its destination, minus the migration
  // count (the job never left home).
  const util::Seconds now = fed_.engine().now();
  workload::Job job = restore_job(flight.ckpt, now);
  core::World& world = fed_.domain(flight.from).world();
  const util::VmId vm = world.cluster().create_job_vm(id, flight.ckpt.spec.memory);
  world.cluster().set_vm_state(vm, cluster::VmState::kSuspended);
  job.bind_vm(vm);
  fed_.attach_job(flight.from, std::move(job));
  ++stats_.cancelled;
  --stats_.in_flight;
  obs_.migration_end(id, "move_landed_back", fed_.engine().now().get());
}

void MigrationManager::schedule_retry(util::JobId id) {
  Flight& flight = flights_.at(id);
  if (flight.attempts >= options_.max_transfer_retries) {
    ++stats_.transfer_failbacks;
    land_back_at_source(id, /*roll_back_stats=*/false);
    return;
  }
  flight.stage = MigrationStage::kRetryWait;
  flight.transfer_id = 0;
  flight.transfer_s = 0.0;
  const double backoff = std::min(
      options_.retry_backoff_s * std::pow(2.0, static_cast<double>(flight.attempts)),
      options_.retry_backoff_max_s);
  ++flight.attempts;
  obs_.transfer_retry_wait(id, flight.attempts, backoff, fed_.engine().now().get());
  flight.retry = fed_.engine().schedule_in(util::Seconds{backoff}, sim::EventPriority::kMigration,
                                           [this, id] { retry_transfer(id); });
}

void MigrationManager::retry_transfer(util::JobId id) {
  auto it = flights_.find(id);
  if (it == flights_.end()) return;
  Flight& flight = it->second;
  if (fed_.domain(flight.to).weight() <= 0.0) {
    // Destination went dark while we backed off: the source keeps the job.
    land_back_at_source(id, /*roll_back_stats=*/false);
    return;
  }
  if (!scheduler_.link_up(flight.from, flight.to)) {
    schedule_retry(id);  // still down: next backoff step, or failback
    return;
  }
  ++stats_.transfer_retries;
  submit_flight(id);
}

std::size_t MigrationManager::apply_link_fault(std::size_t from, std::size_t to,
                                               double bandwidth_factor) {
  const std::vector<LinkScheduler::TransferId> killed =
      scheduler_.fail_link(from, to, bandwidth_factor);
  for (LinkScheduler::TransferId tid : killed) {
    auto jt = transfer_jobs_.find(tid);
    if (jt == transfer_jobs_.end()) continue;
    const util::JobId id = jt->second;
    transfer_jobs_.erase(jt);
    Flight& flight = flights_.at(id);
    // Nothing (fully) crossed the wire: undo the shipment accounting
    // credited at submission, then back off and retry.
    stats_.bytes_moved_mb -= flight.ckpt.image_size.get();
    stats_.transfer_seconds -= flight.transfer_s;
    schedule_retry(id);
  }
  return killed.size();
}

void MigrationManager::clear_link_fault(std::size_t from, std::size_t to) {
  scheduler_.restore_link(from, to);
}

void MigrationManager::complete_transfer(util::JobId id) {
  auto it = flights_.find(id);
  if (it == flights_.end()) return;
  const Flight flight = it->second;
  flights_.erase(it);
  transfer_jobs_.erase(flight.transfer_id);

  const util::Seconds now = fed_.engine().now();
  workload::Job job = restore_job(flight.ckpt, now);
  if (flight.ckpt.has_image) {
    // Land the image on the destination's disk: a suspended VM record
    // the destination controller resumes through its ordinary path.
    core::World& world = fed_.domain(flight.to).world();
    const util::VmId vm = world.cluster().create_job_vm(id, flight.ckpt.spec.memory);
    world.cluster().set_vm_state(vm, cluster::VmState::kSuspended);
    job.bind_vm(vm);
    job.count_migrate();
  }
  fed_.attach_job(flight.to, std::move(job));
  ++stats_.completed;
  --stats_.in_flight;
  obs_.migration_end(id, "move_completed", fed_.engine().now().get());
}

}  // namespace heteroplace::migration
