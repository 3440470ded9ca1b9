#include "faults/injector.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/controller.hpp"
#include "core/world.hpp"
#include "federation/federation.hpp"
#include "migration/manager.hpp"
#include "power/manager.hpp"
#include "sim/engine.hpp"

namespace heteroplace::faults {

FaultInjector::FaultInjector(sim::Engine& engine, std::vector<DomainHooks> hooks,
                             FaultSchedule schedule, FaultOptions options)
    : engine_(engine),
      hooks_(std::move(hooks)),
      schedule_(std::move(schedule)),
      options_(options) {
  if (hooks_.empty()) throw std::invalid_argument("FaultInjector: no domains");
  for (const DomainHooks& h : hooks_) {
    if (h.world == nullptr || h.controller == nullptr) {
      throw std::invalid_argument("FaultInjector: every domain needs a world and a controller");
    }
  }
  if (options_.checkpoint_interval_s < 0.0) {
    throw std::invalid_argument("FaultInjector: checkpoint_interval_s must be nonnegative");
  }
  if (options_.max_concurrent_repairs < 0) {
    throw std::invalid_argument(
        "FaultInjector: max_concurrent_repairs must be nonnegative (0 = unlimited)");
  }
  state_.resize(hooks_.size());
}

void FaultInjector::start() {
  if (started_) throw std::logic_error("FaultInjector::start: already started");
  started_ = true;

  const double t0 = engine_.now().get();
  for (std::size_t d = 0; d < hooks_.size(); ++d) {
    state_[d].total_cpu = hooks_[d].world->cluster().total_capacity().cpu.get();
    state_[d].last_fold = t0;
  }

  const std::vector<FaultWindow> windows = schedule_.finalized();
  for (const FaultWindow& w : windows) {
    if (w.domain >= hooks_.size()) {
      throw std::invalid_argument("FaultInjector: fault targets domain " +
                                  std::to_string(w.domain) + " but only " +
                                  std::to_string(hooks_.size()) + " exist");
    }
    switch (w.kind) {
      case FaultKind::kNodeCrash:
        if (w.node >= hooks_[w.domain].world->cluster().node_count()) {
          throw std::invalid_argument("FaultInjector: crash targets node " +
                                      std::to_string(w.node) + " of domain " +
                                      std::to_string(w.domain) + ", which has only " +
                                      std::to_string(hooks_[w.domain].world->cluster().node_count()) +
                                      " nodes");
        }
        break;
      case FaultKind::kLinkFault:
        if (migration_ == nullptr) {
          throw std::invalid_argument(
              "FaultInjector: link faults need a MigrationManager (set_migration)");
        }
        if (w.to >= hooks_.size() || w.to == w.domain) {
          throw std::invalid_argument("FaultInjector: bad link fault target " +
                                      std::to_string(w.domain) + " -> " + std::to_string(w.to));
        }
        break;
      case FaultKind::kDomainBlackout:
        break;
    }
    if (w.start_s < t0) {
      throw std::invalid_argument("FaultInjector: fault window starts in the past");
    }
    // One-shot events, scheduled in finalized() order — the FIFO tiebreak
    // at equal (time, priority) is therefore deterministic.
    engine_.schedule_at(util::Seconds{w.start_s}, sim::EventPriority::kFault,
                        [this, w] { fire_fault(w); });
    // Crew-limited node repairs are scheduled from crash_node (when the
    // crash actually lands), so a queued repair can slip past end_s.
    // Everything else — and the unlimited default — keeps the upfront
    // recovery schedule, bit for bit.
    const bool crew_gated =
        w.kind == FaultKind::kNodeCrash && options_.max_concurrent_repairs > 0;
    if (!crew_gated) {
      engine_.schedule_at(util::Seconds{w.end_s}, sim::EventPriority::kFault,
                          [this, w] { fire_recovery(w); });
    }
  }

  if (options_.checkpoint_interval_s > 0.0) {
    checkpoint_loop_ = [this] {
      checkpoint_tick();
      engine_.schedule_in(util::Seconds{options_.checkpoint_interval_s},
                          sim::EventPriority::kFault, checkpoint_loop_);
    };
    engine_.schedule_in(util::Seconds{options_.checkpoint_interval_s},
                        sim::EventPriority::kFault, checkpoint_loop_);
  }
}

void FaultInjector::fire_fault(const FaultWindow& w) {
  const obs::Span span(obs_, obs::SpanKind::kFaultEvent, engine_.now().get());
  ++state_[w.domain].stats.windows_fired;
  obs_.fault(to_string(w.kind), w.domain, w.node, w.severity, engine_.now().get());
  switch (w.kind) {
    case FaultKind::kNodeCrash: crash_node(w); break;
    case FaultKind::kLinkFault: fail_link(w); break;
    case FaultKind::kDomainBlackout: blackout_domain(w); break;
  }
}

void FaultInjector::fire_recovery(const FaultWindow& w) {
  const obs::Span span(obs_, obs::SpanKind::kFaultEvent, engine_.now().get());
  obs_.recovery(w.domain, w.node, static_cast<int>(w.kind), engine_.now().get());
  switch (w.kind) {
    case FaultKind::kNodeCrash: recover_node(w); break;
    case FaultKind::kLinkFault: restore_link(w); break;
    case FaultKind::kDomainBlackout: restore_domain(w); break;
  }
}

void FaultInjector::checkpoint_tick() {
  const util::Seconds now = engine_.now();
  for (DomainHooks& h : hooks_) {
    for (workload::Job* job : h.world->active_jobs()) {
      // Fold progress up to the checkpoint instant; the stored value is
      // exactly what a crash in the next interval will revert to.
      job->advance_to(now);
      checkpoints_[job->id()] = job->done().get();
    }
  }
}

void FaultInjector::crash_node(const FaultWindow& w) {
  DomainHooks& h = hooks_[w.domain];
  DomainState& st = state_[w.domain];
  core::World& world = *h.world;
  cluster::Cluster& cl = world.cluster();
  const util::NodeId nid = cl.nodes()[w.node].id();
  const cluster::Node& node = cl.node(nid);
  if (node.power_state() == cluster::PowerState::kFailed) return;
  const util::Seconds now = engine_.now();

  // Destroy every resident VM. Copy the id list first — teardown mutates
  // the resident set.
  std::vector<util::VmId> residents;
  residents.reserve(node.resident_count());
  for (const auto& [vm_id, r] : node.residents()) residents.push_back(vm_id);
  for (util::VmId vm_id : residents) {
    const cluster::Vm& vm = cl.vm(vm_id);
    if (vm.kind == cluster::VmKind::kJobContainer) {
      const util::JobId jid = vm.job;
      // Drop every pending executor event for the job (start/suspend/
      // resume completions, the completion timer) before touching state.
      h.controller->executor().forget_job(jid);
      cl.set_vm_state(vm_id, cluster::VmState::kStopped);
      cl.unplace_vm(vm_id);
      workload::Job& job = world.job(jid);
      job.set_phase(now, workload::JobPhase::kPending);  // folds progress first
      const double at_crash = job.done().get();
      double restored = at_crash;  // continuous checkpointing: lossless
      if (options_.checkpoint_interval_s > 0.0) {
        auto it = checkpoints_.find(jid);
        restored = it != checkpoints_.end() ? std::min(it->second, at_crash) : 0.0;
      }
      job.restore_progress(util::MhzSeconds{restored}, job.suspend_count(), job.migrate_count(),
                           now);
      job.bind_vm(util::VmId{});
      job.set_node(util::NodeId{});
      st.stats.jobs_lost_progress_s += (at_crash - restored) / job.spec().max_speed.get();
      ++st.stats.jobs_reverted;
    } else {
      h.controller->executor().forget_instance(vm_id);
      cl.set_vm_state(vm_id, cluster::VmState::kStopped);
      cl.unplace_vm(vm_id);
    }
  }

  cl.set_power_state(nid, cluster::PowerState::kFailed);
  if (h.power != nullptr) h.power->on_node_failed(nid);

  st.failed_nodes.insert(w.node);
  refold(st, now.get());
  ++st.stats.node_crashes;

  // Shift transactional demand away from the shrunken domain.
  if (fed_ != nullptr) fed_->resplit_demand();

  // Finite repair crew: the recovery was not pre-scheduled, so claim a
  // crew slot (or queue for one) now that the crash actually landed.
  if (options_.max_concurrent_repairs > 0) request_repair(w);
}

void FaultInjector::request_repair(const FaultWindow& w) {
  if (active_repairs_ < options_.max_concurrent_repairs) {
    start_repair(w);
  } else {
    repair_queue_.push_back(w);  // failure order — crews work FIFO
  }
}

void FaultInjector::start_repair(const FaultWindow& w) {
  ++active_repairs_;
  // The window encodes the repair's hands-on duration; queue wait (if
  // any) already elapsed before this pickup.
  engine_.schedule_in(util::Seconds{w.end_s - w.start_s}, sim::EventPriority::kFault, [this, w] {
    fire_recovery(w);
    --active_repairs_;
    if (!repair_queue_.empty()) {
      const FaultWindow next = repair_queue_.front();
      repair_queue_.pop_front();
      start_repair(next);
    }
  });
}

void FaultInjector::recover_node(const FaultWindow& w) {
  DomainHooks& h = hooks_[w.domain];
  DomainState& st = state_[w.domain];
  cluster::Cluster& cl = h.world->cluster();
  const util::NodeId nid = cl.nodes()[w.node].id();
  if (cl.node(nid).power_state() != cluster::PowerState::kFailed) return;

  cl.set_power_state(nid, cluster::PowerState::kActive);
  if (h.power != nullptr) h.power->on_node_recovered(nid);

  st.failed_nodes.erase(w.node);
  refold(st, engine_.now().get());
  ++st.stats.node_recoveries;
  credit_repair(st, w);

  if (fed_ != nullptr) fed_->resplit_demand();
}

void FaultInjector::fail_link(const FaultWindow& w) {
  // severity = fraction of bandwidth lost; the scheduler takes the
  // surviving fraction (0 = hard outage, kills in-flight transfers —
  // MigrationManager turns the kills into retry-wait flights).
  (void)migration_->apply_link_fault(w.domain, w.to, 1.0 - w.severity);
  ++state_[w.domain].stats.link_faults;
}

void FaultInjector::restore_link(const FaultWindow& w) {
  migration_->clear_link_fault(w.domain, w.to);
  DomainState& st = state_[w.domain];
  ++st.stats.link_recoveries;
  credit_repair(st, w);
}

void FaultInjector::blackout_domain(const FaultWindow& w) {
  DomainState& st = state_[w.domain];
  if (st.blackout) return;
  if (fed_ != nullptr) {
    st.saved_weight = fed_->domain(w.domain).weight();
    fed_->set_domain_weight(w.domain, 0.0);
  }
  hooks_[w.domain].controller->set_online(false);

  st.blackout = true;
  refold(st, engine_.now().get());
  ++st.stats.blackouts;
}

void FaultInjector::restore_domain(const FaultWindow& w) {
  DomainState& st = state_[w.domain];
  if (!st.blackout) return;
  // Weight first, so the controller's resync cycle (scheduled by
  // set_online at kController priority, later this same timestamp) sees
  // the restored demand split.
  if (fed_ != nullptr) fed_->set_domain_weight(w.domain, st.saved_weight);
  hooks_[w.domain].controller->set_online(true);

  st.blackout = false;
  refold(st, engine_.now().get());
  ++st.stats.blackout_recoveries;
  credit_repair(st, w);
}

void FaultInjector::refold(DomainState& st, double now_s) {
  st.stats.downtime_s += st.unavail * (now_s - st.last_fold);
  st.last_fold = now_s;
  if (st.blackout) {
    st.unavail = 1.0;
    return;
  }
  double failed_cpu = 0.0;
  // Recomputed from the set (not +=/-= deltas) so the fraction is exact
  // whatever the crash/recovery interleaving.
  const cluster::Cluster& cl = hooks_[&st - state_.data()].world->cluster();
  for (std::size_t n : st.failed_nodes) failed_cpu += cl.nodes()[n].capacity().cpu.get();
  st.unavail = st.total_cpu > 0.0 ? failed_cpu / st.total_cpu : 0.0;
}

void FaultInjector::credit_repair(DomainState& st, const FaultWindow& w) {
  ++st.stats.repairs;
  st.stats.repair_time_s += w.end_s - w.start_s;
}

double FaultInjector::availability(std::size_t d) const { return 1.0 - state_.at(d).unavail; }

double FaultInjector::downtime_s(std::size_t d, util::Seconds now) const {
  const DomainState& st = state_.at(d);
  return st.stats.downtime_s + st.unavail * (now.get() - st.last_fold);
}

std::size_t FaultInjector::failed_node_count(std::size_t d) const {
  return state_.at(d).failed_nodes.size();
}

DomainFaultStats FaultInjector::stats(std::size_t d, util::Seconds now) const {
  DomainFaultStats out = state_.at(d).stats;
  out.downtime_s = downtime_s(d, now);
  return out;
}

DomainFaultStats FaultInjector::totals(util::Seconds now) const {
  DomainFaultStats out;
  for (std::size_t d = 0; d < state_.size(); ++d) {
    const DomainFaultStats s = stats(d, now);
    out.windows_fired += s.windows_fired;
    out.node_crashes += s.node_crashes;
    out.node_recoveries += s.node_recoveries;
    out.link_faults += s.link_faults;
    out.link_recoveries += s.link_recoveries;
    out.blackouts += s.blackouts;
    out.blackout_recoveries += s.blackout_recoveries;
    out.jobs_reverted += s.jobs_reverted;
    out.jobs_lost_progress_s += s.jobs_lost_progress_s;
    out.downtime_s += s.downtime_s;
    out.repairs += s.repairs;
    out.repair_time_s += s.repair_time_s;
  }
  return out;
}

double FaultInjector::mttr_s() const {
  long repairs = 0;
  double repair_time = 0.0;
  for (const DomainState& st : state_) {
    repairs += st.stats.repairs;
    repair_time += st.stats.repair_time_s;
  }
  return repairs > 0 ? repair_time / static_cast<double>(repairs) : 0.0;
}

}  // namespace heteroplace::faults
