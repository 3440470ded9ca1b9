#pragma once

// Placement-problem generator for perf_baseline's solver cases. The
// committed BENCH_solver.json numbers were timed on exactly these
// problems, so a change here makes new numbers incomparable with them.

#include "core/placement_problem.hpp"
#include "util/rng.hpp"

namespace heteroplace::bench {

inline core::PlacementProblem make_placement_problem(int nodes, int jobs_n) {
  util::Rng rng(11);
  core::PlacementProblem problem;
  for (int i = 0; i < nodes; ++i) {
    problem.nodes.push_back(
        {util::NodeId{static_cast<unsigned>(i)}, util::CpuMhz{12000.0}, util::MemMb{4096.0}});
  }
  for (int i = 0; i < jobs_n; ++i) {
    core::SolverJob j;
    j.id = util::JobId{static_cast<unsigned>(i)};
    j.memory = util::MemMb{1300.0};
    j.max_speed = util::CpuMhz{3000.0};
    j.target = util::CpuMhz{rng.uniform(500.0, 3000.0)};
    j.urgency = j.target.get();
    j.remaining = util::MhzSeconds{1e8};
    if (i < nodes * 2) {  // some candidates are already running
      j.phase = workload::JobPhase::kRunning;
      j.current_node = util::NodeId{static_cast<unsigned>(i % nodes)};
    }
    problem.jobs.push_back(j);
  }
  core::SolverApp app;
  app.id = util::AppId{0};
  app.instance_memory = util::MemMb{1024.0};
  app.max_instances = nodes;
  app.max_cpu_per_instance = util::CpuMhz{12000.0};
  app.target = util::CpuMhz{nodes * 4000.0};
  problem.apps.push_back(app);
  return problem;
}

}  // namespace heteroplace::bench
