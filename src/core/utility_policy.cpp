#include "core/utility_policy.hpp"

#include <algorithm>

namespace heteroplace::core {

PlacementProblem build_problem_skeleton(const World& world) {
  return build_problem_skeleton(world, world.active_jobs());
}

PlacementProblem build_problem_skeleton(const World& world,
                                        const std::vector<const workload::Job*>& jobs) {
  PlacementProblem problem;
  const auto& cl = world.cluster();

  problem.nodes.reserve(cl.node_count());
  for (const auto& n : cl.nodes()) {
    // Parked and transitioning nodes are invisible to placement: zero
    // capacity would still attract zero-share placements, so they are
    // omitted outright. A waking node rejoins the problem only once its
    // wake latency has elapsed (PowerManager flips it back to active).
    if (!n.placeable()) continue;
    problem.nodes.push_back({n.id(), n.placeable_cpu(), n.capacity().mem, n.klass()});
  }
  // The class table rides along only when the cluster registered explicit
  // classes; a legacy scalar cluster leaves it empty (and every
  // constraint empty), keeping the problem bit-identical to before.
  if (cl.classes().explicit_classes()) {
    problem.classes = cl.classes().classes();
  }

  problem.jobs.reserve(jobs.size());
  for (const workload::Job* job : jobs) {
    SolverJob& sj = problem.jobs.emplace_back();
    sj.id = job->id();
    sj.memory = job->spec().memory;
    sj.max_speed = job->spec().max_speed;
    sj.current_node = job->node();
    sj.phase = job->phase();
    sj.movable = job->phase() == workload::JobPhase::kRunning;
    sj.remaining = job->remaining();
    sj.constraint = job->spec().constraint;
  }

  for (const auto& app : world.apps()) {
    SolverApp sa;
    sa.id = app.id();
    sa.instance_memory = app.spec().instance_memory;
    sa.min_instances = app.spec().min_instances;
    sa.max_instances = app.spec().max_instances;
    sa.max_cpu_per_instance = app.spec().max_cpu_per_instance;
    sa.constraint = app.spec().constraint;
    for (util::VmId vm_id : cl.web_instances()) {
      const auto& vm = cl.vm(vm_id);
      if (vm.app != app.id()) continue;
      if (vm.state == cluster::VmState::kRunning) {
        sa.current.push_back({vm.node, /*movable=*/true});
      } else if (vm.state == cluster::VmState::kStarting) {
        sa.current.push_back({vm.node, /*movable=*/false});
      }
    }
    problem.apps.push_back(std::move(sa));
  }
  return problem;
}

PolicyOutput UtilityDrivenPolicy::decide(const World& world, util::Seconds now) {
  PolicyOutput out;
  const double t = now.get();

  // --- 1. consumers: one per active job, one per transactional app --------
  std::vector<const workload::Job*> jobs;
  std::vector<JobConsumer> job_consumers;
  std::vector<TxConsumer> tx_consumers;
  std::vector<const UtilityConsumer*> consumers;
  {
    obs::Span consumers_span(obs_, obs::SpanKind::kConsumers, t);
    jobs = world.active_jobs();
    job_consumers.reserve(jobs.size());
    // Class-aware delivered-speed caps: on a heterogeneous cluster a job's
    // achievable speed saturates at the delivered MHz of the largest node
    // its constraints admit, so the equalizer prices its curve there. A
    // scalar cluster (no explicit classes) skips this entirely and the
    // consumers take the exact pre-class path.
    const bool hetero = world.cluster().classes().explicit_classes();
    std::vector<std::pair<cluster::ConstraintSet, util::CpuMhz>> cap_cache;
    auto speed_cap_for = [&](const cluster::ConstraintSet& c) {
      for (const auto& [seen, cap] : cap_cache) {
        if (seen == c) return cap;
      }
      util::CpuMhz cap{0.0};
      for (const auto& n : world.cluster().nodes()) {
        if (!n.placeable()) continue;
        if (!c.admits(world.cluster().classes().at(n.klass()))) continue;
        cap = std::max(cap, n.placeable_cpu());
      }
      cap_cache.emplace_back(c, cap);
      return cap;
    };
    for (const workload::Job* job : jobs) {
      if (hetero) {
        job_consumers.emplace_back(*job, *job_model_, now, speed_cap_for(job->spec().constraint));
      } else {
        job_consumers.emplace_back(*job, *job_model_, now);
      }
    }
    tx_consumers.reserve(world.apps().size());
    for (const auto& app : world.apps()) tx_consumers.emplace_back(app, *tx_model_, now);

    consumers.reserve(job_consumers.size() + tx_consumers.size());
    for (const auto& c : job_consumers) consumers.push_back(&c);
    for (const auto& c : tx_consumers) consumers.push_back(&c);
    consumers_span.end({{"consumers", static_cast<double>(consumers.size())}});
  }

  // --- 2. equalize hypothetical utility ------------------------------------
  // Parked capacity is not real capacity: the equalizer divides what the
  // solver can actually place (bit-identical to total_capacity when the
  // power subsystem is idle or disabled).
  EqualizeResult eq;
  {
    obs::Span span(obs_, obs::SpanKind::kEqualize, t);
    eq = equalize(consumers, world.cluster().placeable_capacity().cpu, u_hint_, obs_);
    if (eq.contended) u_hint_ = eq.u_star;
    span.end({{"u_star", eq.u_star},
              {"iterations", static_cast<double>(eq.iterations)},
              {"contended", eq.contended ? 1.0 : 0.0}});
  }

  out.diag.u_star = eq.u_star;
  out.diag.contended = eq.contended;
  out.diag.eq_iterations = eq.iterations;

  // --- 3. assemble the discrete problem ------------------------------------
  PlacementProblem problem;
  {
    obs::Span span(obs_, obs::SpanKind::kBuildProblem, t);
    problem = build_problem_skeleton(world, jobs);

    double jobs_demand = 0.0;
    double jobs_target = 0.0;
    double u_sum = 0.0;
    double u_min = 1e300;
    double u_max = -1e300;
    for (std::size_t i = 0; i < job_consumers.size(); ++i) {
      const auto& alloc = eq.allocations[i];
      problem.jobs[i].target = alloc.alloc;
      problem.jobs[i].urgency = alloc.alloc.get();
      jobs_target += alloc.alloc.get();
      jobs_demand += alloc.demand.get();
      u_sum += alloc.utility;
      u_min = std::min(u_min, alloc.utility);
      u_max = std::max(u_max, alloc.utility);
    }
    out.diag.jobs_demand = util::CpuMhz{jobs_demand};
    out.diag.jobs_target = util::CpuMhz{jobs_target};
    out.diag.active_jobs = static_cast<int>(jobs.size());
    out.diag.jobs_avg_hyp_utility = jobs.empty() ? 0.0 : u_sum / static_cast<double>(jobs.size());
    out.diag.jobs_min_hyp_utility = jobs.empty() ? 0.0 : u_min;
    out.diag.jobs_max_hyp_utility = jobs.empty() ? 0.0 : u_max;

    for (std::size_t a = 0; a < tx_consumers.size(); ++a) {
      const auto& alloc = eq.allocations[job_consumers.size() + a];
      problem.apps[a].target = alloc.alloc;
      PolicyDiagnostics::AppDiag diag;
      diag.id = problem.apps[a].id;
      diag.lambda = tx_consumers[a].lambda();
      diag.demand = alloc.demand;
      diag.target = alloc.alloc;
      out.diag.apps.push_back(diag);
    }

    span.end({{"nodes", static_cast<double>(problem.nodes.size())},
              {"jobs", static_cast<double>(problem.jobs.size())},
              {"apps", static_cast<double>(problem.apps.size())}});
  }

  // --- 4. discrete placement ------------------------------------------------
  SolverResult solved;
  {
    obs::Span span(obs_, obs::SpanKind::kSolve, t);
    solved = solve_placement(problem, solver_config_, obs_, t);
    span.end({{"jobs_placed", static_cast<double>(solved.stats.jobs_placed)},
              {"jobs_migrated", static_cast<double>(solved.stats.jobs_migrated)},
              {"instances_added", static_cast<double>(solved.stats.instances_added)}});
  }
  out.plan = std::move(solved.plan);
  out.diag.solver = solved.stats;
  return out;
}

}  // namespace heteroplace::core
