#include "core/executor.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <tuple>
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

void ActionExecutor::launch_job(workload::Job& job, util::NodeId node, util::CpuMhz cpu,
                                bool is_retry) {
  const JobPhase from = job.phase();  // kPending: start, kSuspended: resume
  const bool resume = from == JobPhase::kSuspended;
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
      engine_.schedule_at(retry_at, sim::EventPriority::kStateTransition, shard_,
                          [this, id, from, node, cpu] {
                            if (!world_.job_exists(id)) return;  // handed off meanwhile
                            workload::Job& j = world_.job(id);
                            if (j.phase() == from && !j.held()) {
                              launch_job(j, node, cpu, /*is_retry=*/true);
                            }
                          });
    }
    return;
  }
  job.set_node(node);
  world_.cluster().set_vm_state(job.vm(), resume ? VmState::kResuming : VmState::kStarting);
  job.set_phase(engine_.now(), resume ? JobPhase::kResuming : JobPhase::kStarting);
  counts_.record(resume ? ActionType::kResumeJob : ActionType::kStartJob);
  if (resume) {
    obs_.job_resumed(job, node, engine_.now().get());
  } else {
    obs_.job_started(job, node, engine_.now().get());
  }
  JobRuntime& rt = job_rt_[job.id()];
  rt.pending_share = cpu.get();
  const util::JobId id = job.id();
  rt.transition = engine_.schedule_in(resume ? latencies_.resume_job : latencies_.start_job,
                                      sim::EventPriority::kStateTransition, shard_,
                                      [this, id] { finish_transition_to_running(id); });
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
  auto it = instance_rt_.find(vm);
  if (it == instance_rt_.end()) return;
  it->second.start.cancel();
  instance_rt_.erase(it);
}

void ActionExecutor::apply(const cluster::PlacementPlan& plan) {
  assert(plan.in_order());
  const util::Seconds now = engine_.now();
  auto& cl = world_.cluster();
  obs::Span apply_span(obs_, obs::SpanKind::kExecutorApply, now.get(),
                       {{"planned_jobs", static_cast<double>(plan.jobs.size())},
                        {"planned_instances", static_cast<double>(plan.instances.size())}});
  const cluster::ActionCounts before = counts_;

  // One snapshot serves every pass: jobs complete, hand off or change
  // hold only in later events, never inside apply. want[i] is jobs[i]'s
  // plan entry, or null when the plan leaves the job out.
  const std::vector<workload::Job*> jobs = world_.active_jobs();
  std::vector<const cluster::DesiredJobPlacement*> want(jobs.size(), nullptr);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto it = std::lower_bound(
        plan.jobs.begin(), plan.jobs.end(), jobs[i]->id(),
        [](const cluster::DesiredJobPlacement& d, util::JobId id) { return d.job < id; });
    if (it != plan.jobs.end() && it->job == jobs[i]->id()) want[i] = &*it;
  }

  // Running/starting web instances in (app, node) order; the first VM
  // created wins a key that two share, later ones are left alone. One
  // merge walk against the plan gives each desired instance its existing
  // VM (`match`, invalid = none) and marks the existing VMs it keeps.
  struct Existing {
    util::AppId app;
    util::NodeId node;
    util::VmId vm;
    bool kept{false};
  };
  const auto key_less = [](const auto& a, const auto& b) {
    return std::tie(a.app, a.node) < std::tie(b.app, b.node);
  };
  std::vector<Existing> existing;
  for (util::VmId vm_id : cl.web_instances()) {
    const auto& vm = cl.vm(vm_id);
    if (vm.state == VmState::kRunning || vm.state == VmState::kStarting) {
      existing.push_back({vm.app, vm.node, vm_id});
    }
  }
  std::stable_sort(existing.begin(), existing.end(), key_less);
  existing.erase(std::unique(existing.begin(), existing.end(),
                             [](const Existing& a, const Existing& b) {
                               return a.app == b.app && a.node == b.node;
                             }),
                 existing.end());
  std::vector<util::VmId> match(plan.instances.size());
  for (std::size_t k = 0, e = 0; k < plan.instances.size(); ++k) {
    while (e < existing.size() && key_less(existing[e], plan.instances[k])) ++e;
    if (e < existing.size() && !key_less(plan.instances[k], existing[e])) {
      match[k] = existing[e].vm;
      existing[e].kept = true;
    }
  }

  {  // ---- Pass 1: suspends and instance stops ----------------------------------
    obs::Span span(obs_, obs::SpanKind::kReleasePass, now.get());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (jobs[i]->phase() == JobPhase::kRunning && want[i] == nullptr) suspend_job(*jobs[i]);
    }
    for (const Existing& x : existing) {
      if (x.kept) continue;
      if (cl.vm(x.vm).state == VmState::kStarting) forget_instance(x.vm);
      cl.set_vm_state(x.vm, VmState::kStopped);
      cl.unplace_vm(x.vm);
      counts_.record(ActionType::kStopInstance);
    }
  }

  {  // ---- Pass 2: resizes (shrink first, then grow) ----------------------------
    obs::Span span(obs_, obs::SpanKind::kResizePass, now.get());
    struct Resize {
      util::VmId vm;
      util::CpuMhz cpu;
      workload::Job* job;  // null for instance resizes
    };
    std::vector<Resize> shrinks;
    std::vector<Resize> grows;
    const auto plan_resize = [&](const Resize& r, double cur) {
      if (r.cpu.get() < cur - 1e-9) {
        shrinks.push_back(r);
      } else if (r.cpu.get() > cur + 1e-9) {
        grows.push_back(r);
      }
    };
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      workload::Job* job = jobs[i];
      if (want[i] == nullptr) continue;
      switch (job->phase()) {
        case JobPhase::kRunning:
          if (job->node() == want[i]->node) {
            plan_resize({job->vm(), want[i]->cpu, job}, job->speed().get());
          }
          break;
        case JobPhase::kStarting:
        case JobPhase::kResuming:
        case JobPhase::kMigrating:
          // Mid-transition: just update the share to grant on completion.
          job_rt_[job->id()].pending_share = want[i]->cpu.get();
          break;
        default:
          break;
      }
    }
    for (std::size_t k = 0; k < plan.instances.size(); ++k) {
      if (!match[k].valid()) continue;
      const auto& vm = cl.vm(match[k]);
      if (vm.state == VmState::kStarting) {
        instance_rt_[match[k]].pending_share = plan.instances[k].cpu.get();
      } else {
        plan_resize({match[k], plan.instances[k].cpu, nullptr}, vm.cpu_share.get());
      }
    }

    const auto apply_resize = [&](const Resize& r) {
      const util::CpuMhz share = clamped_share(r.vm, r.cpu);
      if (!cl.set_cpu_share(r.vm, share)) {
        util::log_warn() << "executor: resize failed for vm " << r.vm;
        return;
      }
      counts_.record(ActionType::kResizeCpu);
      if (r.job != nullptr) {
        r.job->set_speed(now, share);
        schedule_completion(*r.job);
      }
    };
    for (const auto& r : shrinks) apply_resize(r);
    for (const auto& r : grows) apply_resize(r);
    span.end({{"shrinks", static_cast<double>(shrinks.size())},
              {"grows", static_cast<double>(grows.size())}});
  }

  {  // ---- Pass 3: migrations ---------------------------------------------------
    // Fixpoint loop: a move can be blocked on memory another move is about
    // to release, so iterate until no further move succeeds, then suspend
    // the rest (the next cycle resumes them wherever there is room).
    obs::Span span(obs_, obs::SpanKind::kMigratePass, now.get());
    std::vector<std::size_t> moves;  // indexes into jobs
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (want[i] != nullptr && jobs[i]->phase() == JobPhase::kRunning &&
          jobs[i]->node() != want[i]->node) {
        moves.push_back(i);
      }
    }
    bool progress = true;
    while (progress && !moves.empty()) {
      progress = false;
      for (auto it = moves.begin(); it != moves.end();) {
        if (migrate_job(*jobs[*it], want[*it]->node, want[*it]->cpu)) {
          it = moves.erase(it);
          progress = true;
        } else {
          ++it;
        }
      }
    }
    for (std::size_t i : moves) suspend_job(*jobs[i]);
    span.end({{"stranded", static_cast<double>(moves.size())}});
  }

  {  // ---- Pass 4: starts and resumes -------------------------------------------
    obs::Span span(obs_, obs::SpanKind::kStartPass, now.get());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (want[i] == nullptr) continue;
      if (jobs[i]->phase() == JobPhase::kPending || jobs[i]->phase() == JobPhase::kSuspended) {
        launch_job(*jobs[i], want[i]->node, want[i]->cpu, /*is_retry=*/false);
      }
    }
    for (std::size_t k = 0; k < plan.instances.size(); ++k) {
      if (match[k].valid()) continue;
      const cluster::DesiredWebInstance& inst = plan.instances[k];
      const util::VmId vm_id =
          cl.create_web_vm(inst.app, world_.app(inst.app).spec().instance_memory);
      if (!cl.place_vm(vm_id, inst.node)) {
        // Memory not free yet (draining suspension): drop this instance for
        // now; the next cycle will re-plan it.
        cl.set_vm_state(vm_id, VmState::kStopped);
        continue;
      }
      cl.set_vm_state(vm_id, VmState::kStarting);
      counts_.record(ActionType::kStartInstance);
      InstanceRuntime& rt = instance_rt_[vm_id];
      rt.pending_share = inst.cpu.get();
      rt.start = engine_.schedule_in(
          latencies_.start_instance, sim::EventPriority::kStateTransition, shard_, [this, vm_id] {
            auto& cl2 = world_.cluster();
            cl2.set_vm_state(vm_id, VmState::kRunning);
            const double share_want = instance_rt_[vm_id].pending_share;
            const util::CpuMhz share = clamped_share(vm_id, util::CpuMhz{share_want});
            if (!cl2.set_cpu_share(vm_id, share)) {
              util::log_warn() << "executor: failed to grant share to instance vm " << vm_id;
            }
            instance_rt_.erase(vm_id);
          });
    }
  }
  apply_span.end(
      {{"suspends", static_cast<double>(counts_.suspends - before.suspends)},
       {"migrations", static_cast<double>(counts_.migrations - before.migrations)},
       {"starts",
        static_cast<double>(counts_.starts + counts_.resumes - before.starts - before.resumes)}});
}

}  // namespace heteroplace::core
