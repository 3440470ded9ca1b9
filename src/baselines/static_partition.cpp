#include "baselines/static_partition.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace heteroplace::baselines {

core::PolicyOutput StaticPartitionPolicy::decide(const core::World& world, util::Seconds now) {
  core::PolicyOutput out;
  const auto& cl = world.cluster();
  const auto& nodes = cl.nodes();
  if (nodes.empty()) return out;

  const int n_nodes = static_cast<int>(nodes.size());
  const int n_tx =
      std::clamp(static_cast<int>(std::ceil(config_.tx_node_fraction * n_nodes)), 0, n_nodes);

  // --- transactional tier: one instance of every app on each TX node -----
  // (subject to memory), CPU split evenly among the apps on a node.
  for (int ni = 0; ni < n_tx; ++ni) {
    const auto& node = nodes[ni];
    if (!node.placeable()) continue;  // parked by the power manager
    double mem_free = node.capacity().mem.get();
    std::size_t hosted = 0;
    for (const auto& app : world.apps()) {
      if (mem_free < app.spec().instance_memory.get()) continue;
      mem_free -= app.spec().instance_memory.get();
      ++hosted;
    }
    if (hosted == 0) continue;
    const double share = node.placeable_cpu().get() / static_cast<double>(hosted);
    double mem_check = node.capacity().mem.get();
    for (const auto& app : world.apps()) {
      if (mem_check < app.spec().instance_memory.get()) continue;
      mem_check -= app.spec().instance_memory.get();
      const double capped = std::min(share, app.spec().max_cpu_per_instance.get());
      out.plan.instances.push_back({app.id(), node.id(), util::CpuMhz{capped}});
    }
  }

  // --- batch tier: FCFS at full speed on the remaining nodes ---------------
  struct NodeScratch {
    util::NodeId id;
    double cpu_free;
    double mem_free;
  };
  std::vector<NodeScratch> job_nodes;
  for (int ni = n_tx; ni < n_nodes; ++ni) {
    if (!nodes[ni].placeable()) continue;  // parked by the power manager
    job_nodes.push_back({nodes[ni].id(), nodes[ni].placeable_cpu().get(),
                         nodes[ni].capacity().mem.get()});
  }
  auto scratch_of = [&](util::NodeId id) -> NodeScratch* {
    for (auto& ns : job_nodes) {
      if (ns.id == id) return &ns;
    }
    return nullptr;
  };

  // Keep currently-placed jobs in place (stability; also holds mid-action
  // jobs steady), then fill free slots FCFS by submit time.
  std::vector<const workload::Job*> placed;
  std::vector<const workload::Job*> waiting;
  for (const workload::Job* job : world.active_jobs()) {
    switch (job->phase()) {
      case workload::JobPhase::kStarting:
      case workload::JobPhase::kRunning:
      case workload::JobPhase::kResuming:
      case workload::JobPhase::kMigrating:
        placed.push_back(job);
        break;
      case workload::JobPhase::kPending:
      case workload::JobPhase::kSuspended:
        waiting.push_back(job);
        break;
      default:
        break;
    }
  }

  for (const workload::Job* job : placed) {
    NodeScratch* ns = scratch_of(job->node());
    if (ns == nullptr) continue;  // on a TX node somehow: let it be suspended
    const double speed = std::min(job->spec().max_speed.get(), ns->cpu_free);
    ns->cpu_free -= speed;
    ns->mem_free -= job->spec().memory.get();
    out.plan.jobs.push_back({job->id(), ns->id, util::CpuMhz{speed}});
  }

  std::stable_sort(waiting.begin(), waiting.end(),
                   [](const workload::Job* a, const workload::Job* b) {
                     if (a->spec().submit_time != b->spec().submit_time) {
                       return a->spec().submit_time < b->spec().submit_time;
                     }
                     return a->id() < b->id();
                   });
  for (const workload::Job* job : waiting) {
    // Full-speed slots only: this scheduler does not degrade job speed.
    for (auto& ns : job_nodes) {
      if (ns.mem_free >= job->spec().memory.get() &&
          ns.cpu_free >= job->spec().max_speed.get() - 1e-9) {
        ns.mem_free -= job->spec().memory.get();
        ns.cpu_free -= job->spec().max_speed.get();
        out.plan.jobs.push_back({job->id(), ns.id, job->spec().max_speed});
        break;
      }
    }
  }

  // --- diagnostics -----------------------------------------------------------
  out.diag.active_jobs = static_cast<int>(placed.size() + waiting.size());
  out.diag.jobs_target = out.plan.total_job_cpu();
  for (const auto& app : world.apps()) {
    core::PolicyDiagnostics::AppDiag d;
    d.id = app.id();
    d.lambda = app.arrival_rate(now);
    d.target = out.plan.app_cpu(app.id());
    out.diag.apps.push_back(d);
  }
  out.plan.sort();  // the plan-order contract (cluster/placement.hpp)
  return out;
}

}  // namespace heteroplace::baselines
