#include "core/executor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/log.hpp"

namespace heteroplace::core {

namespace {
using cluster::ActionType;
using cluster::VmState;
using workload::JobPhase;
}  // namespace

cluster::ActionCounts ActionExecutor::take_counts_delta() {
  cluster::ActionCounts d;
  d.starts = counts_.starts - counts_at_last_delta_.starts;
  d.suspends = counts_.suspends - counts_at_last_delta_.suspends;
  d.resumes = counts_.resumes - counts_at_last_delta_.resumes;
  d.migrations = counts_.migrations - counts_at_last_delta_.migrations;
  d.instance_starts = counts_.instance_starts - counts_at_last_delta_.instance_starts;
  d.instance_stops = counts_.instance_stops - counts_at_last_delta_.instance_stops;
  d.resizes = counts_.resizes - counts_at_last_delta_.resizes;
  counts_at_last_delta_ = counts_;
  return d;
}

util::CpuMhz ActionExecutor::clamped_share(util::VmId vm_id, util::CpuMhz want) const {
  const auto& vm = world_.cluster().vm(vm_id);
  if (!vm.placed()) return util::CpuMhz{0.0};
  const auto& node = world_.cluster().node(vm.node);
  const double free = node.cpu_free().get() + vm.cpu_share.get();
  return util::CpuMhz{std::clamp(want.get(), 0.0, free)};
}

void ActionExecutor::schedule_completion(workload::Job& job) {
  JobRuntime& rt = job_rt_[job.id()];
  rt.completion.cancel();
  if (job.phase() != JobPhase::kRunning || job.speed().get() <= 0.0 || job.finished()) return;
  util::Seconds when = job.predicted_completion(engine_.now(), job.speed());
  // A tiny remaining/speed quotient can underflow the addition so that
  // when == now; nudge to the next representable instant. Completions
  // must stay strictly in the future: a same-timestamp lower-priority
  // event scheduled from inside a control cycle cannot be replayed
  // deterministically by the parallel batch mode.
  if (when.get() <= engine_.now().get()) {
    when = util::Seconds{std::nextafter(engine_.now().get(), std::numeric_limits<double>::infinity())};
  }
  const util::JobId id = job.id();
  rt.completion = engine_.schedule_at(when, sim::EventPriority::kStateTransition, shard_,
                                      [this, id] { on_job_finished(id); });
}

void ActionExecutor::on_job_finished(util::JobId job_id) {
  workload::Job& job = world_.complete_job(job_id, engine_.now());
  if (job.vm().valid()) {
    world_.cluster().set_vm_state(job.vm(), VmState::kStopped);
    world_.cluster().unplace_vm(job.vm());
  }
  job.set_node(util::NodeId{});
  job_rt_.erase(job_id);
  obs_.job_completed(job, engine_.now().get());
  if (on_completion_) on_completion_(job);
}

void ActionExecutor::finish_transition_to_running(util::JobId job_id) {
  workload::Job& job = world_.job(job_id);
  JobRuntime& rt = job_rt_[job_id];
  world_.cluster().set_vm_state(job.vm(), VmState::kRunning);
  job.set_phase(engine_.now(), JobPhase::kRunning);
  const util::CpuMhz share = clamped_share(job.vm(), util::CpuMhz{rt.pending_share});
  if (!world_.cluster().set_cpu_share(job.vm(), share)) {
    util::log_warn() << "executor: failed to grant share to job " << job_id;
  }
  job.set_speed(engine_.now(), share);
  schedule_completion(job);
}

void ActionExecutor::start_job(workload::Job& job, util::NodeId node, util::CpuMhz cpu,
                               bool is_retry) {
  if (!job.vm().valid()) {
    job.bind_vm(world_.cluster().create_job_vm(job.id(), job.spec().memory));
  }
  if (!world_.cluster().place_vm(job.vm(), node)) {
    if (!is_retry) {
      // Memory may still be draining from a concurrent suspension; retry
      // shortly after the suspension latency has elapsed.
      const util::JobId id = job.id();
      const util::Seconds retry_at =
          engine_.now() + latencies_.suspend_job + util::Seconds{1.0};
      engine_.schedule_at(retry_at, sim::EventPriority::kStateTransition, shard_, [this, id, node, cpu] {
        if (!world_.job_exists(id)) return;  // handed off to another domain meanwhile
        workload::Job& j = world_.job(id);
        if (j.phase() == JobPhase::kPending && !j.held()) start_job(j, node, cpu, /*is_retry=*/true);
      });
    }
    return;
  }
  job.set_node(node);
  world_.cluster().set_vm_state(job.vm(), VmState::kStarting);
  job.set_phase(engine_.now(), JobPhase::kStarting);
  counts_.record(ActionType::kStartJob);
  obs_.job_started(job, node, engine_.now().get());
  JobRuntime& rt = job_rt_[job.id()];
  rt.pending_share = cpu.get();
  const util::JobId id = job.id();
  rt.transition = engine_.schedule_in(latencies_.start_job, sim::EventPriority::kStateTransition,
                                      shard_, [this, id] { finish_transition_to_running(id); });
}

void ActionExecutor::resume_job(workload::Job& job, util::NodeId node, util::CpuMhz cpu,
                                bool is_retry) {
  if (!world_.cluster().place_vm(job.vm(), node)) {
    if (!is_retry) {
      const util::JobId id = job.id();
      const util::Seconds retry_at =
          engine_.now() + latencies_.suspend_job + util::Seconds{1.0};
      engine_.schedule_at(retry_at, sim::EventPriority::kStateTransition, shard_, [this, id, node, cpu] {
        if (!world_.job_exists(id)) return;  // handed off to another domain meanwhile
        workload::Job& j = world_.job(id);
        if (j.phase() == JobPhase::kSuspended && !j.held()) {
          resume_job(j, node, cpu, /*is_retry=*/true);
        }
      });
    }
    return;
  }
  job.set_node(node);
  world_.cluster().set_vm_state(job.vm(), VmState::kResuming);
  job.set_phase(engine_.now(), JobPhase::kResuming);
  counts_.record(ActionType::kResumeJob);
  obs_.job_resumed(job, node, engine_.now().get());
  JobRuntime& rt = job_rt_[job.id()];
  rt.pending_share = cpu.get();
  const util::JobId id = job.id();
  rt.transition = engine_.schedule_in(latencies_.resume_job, sim::EventPriority::kStateTransition,
                                      shard_, [this, id] { finish_transition_to_running(id); });
}

bool ActionExecutor::migrate_job(workload::Job& job, util::NodeId node, util::CpuMhz cpu) {
  // Refuse (caller may retry after other moves free memory) when the
  // destination cannot take the VM's memory.
  const cluster::Resources need{util::CpuMhz{0.0}, job.spec().memory};
  if (!world_.cluster().node(node).can_host(need)) return false;

  JobRuntime& rt = job_rt_[job.id()];
  rt.completion.cancel();
  world_.cluster().set_vm_state(job.vm(), VmState::kMigrating);
  world_.cluster().unplace_vm(job.vm());
  if (!world_.cluster().place_vm(job.vm(), node)) {
    // Should not happen after can_host; park the image on disk.
    world_.cluster().set_vm_state(job.vm(), VmState::kSuspended);
    job.set_node(util::NodeId{});
    job.set_phase(engine_.now(), JobPhase::kSuspended);
    job.count_suspend();
    counts_.record(ActionType::kSuspendJob);
    obs_.job_suspended(job, engine_.now().get());
    return true;
  }
  job.set_node(node);
  job.set_phase(engine_.now(), JobPhase::kMigrating);
  job.count_migrate();
  counts_.record(ActionType::kMigrateJob);
  obs_.job_migrated(job, node, engine_.now().get());
  rt.pending_share = cpu.get();
  const util::JobId id = job.id();
  rt.transition = engine_.schedule_in(latencies_.migrate_job, sim::EventPriority::kStateTransition,
                                      shard_, [this, id] { finish_transition_to_running(id); });
  return true;
}

void ActionExecutor::suspend_job(workload::Job& job) {
  JobRuntime& rt = job_rt_[job.id()];
  rt.completion.cancel();
  if (!world_.cluster().set_cpu_share(job.vm(), util::CpuMhz{0.0})) {
    util::log_warn() << "executor: failed to zero share of job " << job.id();
  }
  job.set_speed(engine_.now(), util::CpuMhz{0.0});
  world_.cluster().set_vm_state(job.vm(), VmState::kSuspending);
  job.set_phase(engine_.now(), JobPhase::kSuspending);
  job.count_suspend();
  counts_.record(ActionType::kSuspendJob);
  obs_.job_suspended(job, engine_.now().get());
  const util::JobId id = job.id();
  rt.transition =
      engine_.schedule_in(latencies_.suspend_job, sim::EventPriority::kStateTransition,
                          shard_, [this, id] {
                            workload::Job& j = world_.job(id);
                            world_.cluster().set_vm_state(j.vm(), VmState::kSuspended);
                            world_.cluster().unplace_vm(j.vm());
                            j.set_node(util::NodeId{});
                            j.set_phase(engine_.now(), JobPhase::kSuspended);
                          });
}

void ActionExecutor::suspend_job_for_migration(util::JobId id) {
  workload::Job& job = world_.job(id);
  if (job.phase() != JobPhase::kRunning) return;
  suspend_job(job);
}

void ActionExecutor::forget_job(util::JobId id) {
  auto it = job_rt_.find(id);
  if (it == job_rt_.end()) return;
  it->second.completion.cancel();
  it->second.transition.cancel();
  job_rt_.erase(it);
}

void ActionExecutor::forget_instance(util::VmId vm) {
  auto it = instance_start_.find(vm);
  if (it != instance_start_.end()) {
    it->second.cancel();
    instance_start_.erase(it);
  }
  instance_pending_share_.erase(vm);
}

void ActionExecutor::apply(const cluster::PlacementPlan& plan) {
  const util::Seconds now = engine_.now();
  auto& cl = world_.cluster();
  obs::Span apply_span(obs_, obs::SpanKind::kExecutorApply, now.get(),
                       {{"planned_jobs", static_cast<double>(plan.jobs.size())},
                        {"planned_instances", static_cast<double>(plan.instances.size())}});
  const cluster::ActionCounts before = counts_;

  // Index the desired state.
  std::map<util::JobId, cluster::DesiredJobPlacement> desired_jobs;
  for (const auto& j : plan.jobs) desired_jobs.emplace(j.job, j);
  std::map<std::pair<util::AppId, util::NodeId>, util::CpuMhz> desired_insts;
  for (const auto& i : plan.instances) desired_insts.emplace(std::make_pair(i.app, i.node), i.cpu);

  // Index existing web instances.
  std::map<std::pair<util::AppId, util::NodeId>, util::VmId> existing_insts;
  for (util::VmId vm_id : cl.web_instances()) {
    const auto& vm = cl.vm(vm_id);
    if (vm.state == VmState::kRunning || vm.state == VmState::kStarting) {
      existing_insts.emplace(std::make_pair(vm.app, vm.node), vm_id);
    }
  }

  // One snapshot serves every pass: jobs complete, hand off or change
  // hold only in later events, never inside apply.
  const std::vector<workload::Job*> jobs = world_.active_jobs();

  // ---- Pass 1: suspends and instance stops --------------------------------
  obs::Span release_pass(obs_, obs::SpanKind::kReleasePass, now.get());
  for (workload::Job* job : jobs) {
    if (job->phase() == JobPhase::kRunning && desired_jobs.count(job->id()) == 0) {
      suspend_job(*job);
    }
  }
  for (const auto& [key, vm_id] : existing_insts) {
    if (desired_insts.count(key) > 0) continue;
    const auto& vm = cl.vm(vm_id);
    if (vm.state == VmState::kStarting) {
      auto it = instance_start_.find(vm_id);
      if (it != instance_start_.end()) {
        it->second.cancel();
        instance_start_.erase(it);
      }
      instance_pending_share_.erase(vm_id);
    }
    cl.set_vm_state(vm_id, VmState::kStopped);
    cl.unplace_vm(vm_id);
    counts_.record(ActionType::kStopInstance);
  }
  release_pass.end();
  obs::Span resize_pass(obs_, obs::SpanKind::kResizePass, now.get());

  // ---- Pass 2: resizes (shrink first, then grow) --------------------------
  struct Resize {
    util::VmId vm;
    util::CpuMhz cpu;
    util::JobId job;  // valid for job resizes
  };
  std::vector<Resize> shrinks;
  std::vector<Resize> grows;

  for (workload::Job* job : jobs) {
    auto it = desired_jobs.find(job->id());
    if (it == desired_jobs.end()) continue;
    const auto& want = it->second;
    switch (job->phase()) {
      case JobPhase::kRunning:
        if (job->node() == want.node) {
          const double cur = job->speed().get();
          if (want.cpu.get() < cur - 1e-9) {
            shrinks.push_back({job->vm(), want.cpu, job->id()});
          } else if (want.cpu.get() > cur + 1e-9) {
            grows.push_back({job->vm(), want.cpu, job->id()});
          }
        }
        break;
      case JobPhase::kStarting:
      case JobPhase::kResuming:
      case JobPhase::kMigrating:
        // Mid-transition: just update the share to grant on completion.
        job_rt_[job->id()].pending_share = want.cpu.get();
        break;
      default:
        break;
    }
  }
  for (const auto& [key, cpu] : desired_insts) {
    auto it = existing_insts.find(key);
    if (it == existing_insts.end()) continue;
    const auto& vm = cl.vm(it->second);
    if (vm.state == VmState::kStarting) {
      instance_pending_share_[it->second] = cpu.get();
      continue;
    }
    const double cur = vm.cpu_share.get();
    if (cpu.get() < cur - 1e-9) {
      shrinks.push_back({it->second, cpu, util::JobId{}});
    } else if (cpu.get() > cur + 1e-9) {
      grows.push_back({it->second, cpu, util::JobId{}});
    }
  }

  auto apply_resize = [&](const Resize& r) {
    const util::CpuMhz share = clamped_share(r.vm, r.cpu);
    if (!cl.set_cpu_share(r.vm, share)) {
      util::log_warn() << "executor: resize failed for vm " << r.vm;
      return;
    }
    counts_.record(ActionType::kResizeCpu);
    if (r.job.valid()) {
      workload::Job& job = world_.job(r.job);
      job.set_speed(now, share);
      schedule_completion(job);
    }
  };
  for (const auto& r : shrinks) apply_resize(r);
  for (const auto& r : grows) apply_resize(r);
  resize_pass.end({{"shrinks", static_cast<double>(shrinks.size())},
                   {"grows", static_cast<double>(grows.size())}});
  obs::Span migrate_pass(obs_, obs::SpanKind::kMigratePass, now.get());

  // ---- Pass 3: migrations ---------------------------------------------------
  // Fixpoint loop: a move can be blocked on memory another move is about
  // to release, so iterate until no further move succeeds, then suspend
  // the rest (the next cycle resumes them wherever there is room).
  std::vector<util::JobId> moves;
  for (workload::Job* job : jobs) {
    auto it = desired_jobs.find(job->id());
    if (it == desired_jobs.end()) continue;
    if (job->phase() == JobPhase::kRunning && job->node() != it->second.node) {
      moves.push_back(job->id());
    }
  }
  bool progress = true;
  while (progress && !moves.empty()) {
    progress = false;
    for (auto it = moves.begin(); it != moves.end();) {
      workload::Job& job = world_.job(*it);
      const auto& want = desired_jobs.at(*it);
      if (migrate_job(job, want.node, want.cpu)) {
        it = moves.erase(it);
        progress = true;
      } else {
        ++it;
      }
    }
  }
  for (util::JobId id : moves) suspend_job(world_.job(id));
  migrate_pass.end({{"stranded", static_cast<double>(moves.size())}});
  obs::Span start_pass(obs_, obs::SpanKind::kStartPass, now.get());

  // ---- Pass 4: starts and resumes -------------------------------------------
  for (workload::Job* job : jobs) {
    auto it = desired_jobs.find(job->id());
    if (it == desired_jobs.end()) continue;
    if (job->phase() == JobPhase::kPending) {
      start_job(*job, it->second.node, it->second.cpu, /*is_retry=*/false);
    } else if (job->phase() == JobPhase::kSuspended) {
      resume_job(*job, it->second.node, it->second.cpu, /*is_retry=*/false);
    }
  }
  for (const auto& [key, cpu] : desired_insts) {
    if (existing_insts.count(key) > 0) continue;
    const auto [app_id, node_id] = key;
    const workload::TxApp& app = world_.app(app_id);
    const util::VmId vm_id = cl.create_web_vm(app_id, app.spec().instance_memory);
    if (!cl.place_vm(vm_id, node_id)) {
      // Memory not free yet (draining suspension): drop this instance for
      // now; the next cycle will re-plan it.
      cl.set_vm_state(vm_id, VmState::kStopped);
      continue;
    }
    cl.set_vm_state(vm_id, VmState::kStarting);
    counts_.record(ActionType::kStartInstance);
    instance_pending_share_[vm_id] = cpu.get();
    instance_start_[vm_id] = engine_.schedule_in(
        latencies_.start_instance, sim::EventPriority::kStateTransition, shard_, [this, vm_id] {
          auto& cl2 = world_.cluster();
          cl2.set_vm_state(vm_id, VmState::kRunning);
          const double want = instance_pending_share_[vm_id];
          const util::CpuMhz share = clamped_share(vm_id, util::CpuMhz{want});
          if (!cl2.set_cpu_share(vm_id, share)) {
            util::log_warn() << "executor: failed to grant share to instance vm " << vm_id;
          }
          instance_start_.erase(vm_id);
          instance_pending_share_.erase(vm_id);
        });
  }
  start_pass.end();
  apply_span.end(
      {{"suspends", static_cast<double>(counts_.suspends - before.suspends)},
       {"migrations", static_cast<double>(counts_.migrations - before.migrations)},
       {"starts",
        static_cast<double>(counts_.starts + counts_.resumes - before.starts - before.resumes)}});
}

}  // namespace heteroplace::core
