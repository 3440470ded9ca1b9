// Tests for the discrete placement solver: feasibility, stability,
// urgency packing, instance sizing, eviction, and CPU water-filling.

#include "core/placement_solver.hpp"

#include <gtest/gtest.h>

#include <exception>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "legacy/legacy_placement_solver.hpp"
#include "util/rng.hpp"

using namespace heteroplace;
using core::PlacementProblem;
using core::SolverApp;
using core::SolverConfig;
using core::SolverJob;
using core::SolverNode;
using util::CpuMhz;
using util::MemMb;
using util::NodeId;
using workload::JobPhase;

namespace {

PlacementProblem small_cluster(int nodes, double cpu = 12000.0, double mem = 4096.0) {
  PlacementProblem p;
  for (int i = 0; i < nodes; ++i) {
    p.nodes.push_back({NodeId{static_cast<unsigned>(i)}, CpuMhz{cpu}, MemMb{mem}});
  }
  return p;
}

SolverJob job(unsigned id, double target, double mem = 1300.0, double max_speed = 3000.0) {
  SolverJob j;
  j.id = util::JobId{id};
  j.memory = MemMb{mem};
  j.max_speed = CpuMhz{max_speed};
  j.target = CpuMhz{target};
  j.urgency = target;
  j.phase = JobPhase::kPending;
  j.remaining = util::MhzSeconds{1e9};  // far from completion
  return j;
}

SolverJob running_job(unsigned id, unsigned node, double target, double mem = 1300.0) {
  SolverJob j = job(id, target, mem);
  j.phase = JobPhase::kRunning;
  j.current_node = NodeId{node};
  j.movable = true;
  return j;
}

SolverApp app(unsigned id, double target, double inst_mem = 1024.0, int max_inst = 64) {
  SolverApp a;
  a.id = util::AppId{id};
  a.instance_memory = MemMb{inst_mem};
  a.min_instances = 1;
  a.max_instances = max_inst;
  a.max_cpu_per_instance = CpuMhz{12000.0};
  a.target = CpuMhz{target};
  return a;
}

/// Verify the plan respects node CPU and memory capacities.
void assert_feasible(const PlacementProblem& p, const cluster::PlacementPlan& plan) {
  std::map<NodeId, double> cpu_used;
  std::map<NodeId, double> mem_used;
  std::map<NodeId, const SolverNode*> nodes;
  for (const auto& n : p.nodes) nodes[n.id] = &n;

  std::map<util::JobId, const SolverJob*> jobs;
  for (const auto& j : p.jobs) jobs[j.id] = &j;

  for (const auto& jp : plan.jobs) {
    ASSERT_TRUE(nodes.count(jp.node)) << "job placed on unknown node";
    ASSERT_TRUE(jobs.count(jp.job)) << "unknown job in plan";
    cpu_used[jp.node] += jp.cpu.get();
    mem_used[jp.node] += jobs[jp.job]->memory.get();
    ASSERT_LE(jp.cpu.get(), jobs[jp.job]->max_speed.get() + 1e-6) << "job above max speed";
  }
  std::map<util::AppId, const SolverApp*> apps;
  for (const auto& a : p.apps) apps[a.id] = &a;
  std::map<std::pair<util::AppId::underlying_type, NodeId::underlying_type>, int> inst_count;
  for (const auto& ip : plan.instances) {
    ASSERT_TRUE(nodes.count(ip.node));
    cpu_used[ip.node] += ip.cpu.get();
    mem_used[ip.node] += apps[ip.app]->instance_memory.get();
    ++inst_count[{ip.app.get(), ip.node.get()}];
  }
  for (const auto& [key, count] : inst_count) {
    ASSERT_LE(count, 1) << "two instances of one app on one node";
  }
  for (const auto& [nid, used] : cpu_used) {
    ASSERT_LE(used, nodes[nid]->cpu_capacity.get() + 1e-6) << "node " << nid << " CPU";
  }
  for (const auto& [nid, used] : mem_used) {
    ASSERT_LE(used, nodes[nid]->mem_capacity.get() + 1e-6) << "node " << nid << " memory";
  }
  // No duplicate jobs.
  std::map<util::JobId, int> seen;
  for (const auto& jp : plan.jobs) {
    ASSERT_EQ(++seen[jp.job], 1) << "job placed twice";
  }
}

}  // namespace

TEST(Solver, EmptyProblemYieldsEmptyPlan) {
  const auto r = core::solve_placement(small_cluster(2));
  EXPECT_TRUE(r.plan.jobs.empty());
  EXPECT_TRUE(r.plan.instances.empty());
}

TEST(Solver, PlacesJobsUpToMemoryLimit) {
  auto p = small_cluster(1);
  for (unsigned i = 0; i < 5; ++i) p.jobs.push_back(job(i, 2000.0));
  const auto r = core::solve_placement(p);
  assert_feasible(p, r.plan);
  // Memory admits only 3 jobs of 1300 MB on one node.
  EXPECT_EQ(r.plan.jobs.size(), 3u);
  EXPECT_EQ(r.stats.jobs_waiting, 2);
}

TEST(Solver, MostUrgentJobsWinMemorySlots) {
  auto p = small_cluster(1);
  p.jobs.push_back(job(0, 500.0));
  p.jobs.push_back(job(1, 3000.0));
  p.jobs.push_back(job(2, 1500.0));
  p.jobs.push_back(job(3, 2500.0));
  const auto r = core::solve_placement(p);
  assert_feasible(p, r.plan);
  ASSERT_EQ(r.plan.jobs.size(), 3u);
  // Job 0 (lowest urgency) waits.
  for (const auto& jp : r.plan.jobs) EXPECT_NE(jp.job.get(), 0u);
}

TEST(Solver, RunningJobsKeepTheirNode) {
  auto p = small_cluster(3);
  p.jobs.push_back(running_job(0, 2, 2000.0));
  p.jobs.push_back(running_job(1, 1, 2000.0));
  const auto r = core::solve_placement(p);
  assert_feasible(p, r.plan);
  ASSERT_EQ(r.plan.jobs.size(), 2u);
  for (const auto& jp : r.plan.jobs) {
    if (jp.job.get() == 0) {
      EXPECT_EQ(jp.node.get(), 2u);
    }
    if (jp.job.get() == 1) {
      EXPECT_EQ(jp.node.get(), 1u);
    }
  }
  EXPECT_EQ(r.stats.jobs_evicted, 0);
}

TEST(Solver, CpuGrantsMatchTargetsWhenUncontended) {
  auto p = small_cluster(1);
  p.jobs.push_back(job(0, 2000.0));
  p.jobs.push_back(job(1, 1000.0));
  SolverConfig cfg;
  cfg.work_conserving = false;
  const auto r = core::solve_placement(p, cfg);
  for (const auto& jp : r.plan.jobs) {
    if (jp.job.get() == 0) {
      EXPECT_NEAR(jp.cpu.get(), 2000.0, 1e-6);
    }
    if (jp.job.get() == 1) {
      EXPECT_NEAR(jp.cpu.get(), 1000.0, 1e-6);
    }
  }
}

TEST(Solver, CpuScalesProportionallyWhenOverCommitted) {
  auto p = small_cluster(1, /*cpu=*/3000.0);
  p.jobs.push_back(job(0, 3000.0));
  p.jobs.push_back(job(1, 3000.0));
  const auto r = core::solve_placement(p);
  assert_feasible(p, r.plan);
  ASSERT_EQ(r.plan.jobs.size(), 2u);
  EXPECT_NEAR(r.plan.jobs[0].cpu.get(), 1500.0, 1e-6);
  EXPECT_NEAR(r.plan.jobs[1].cpu.get(), 1500.0, 1e-6);
}

TEST(Solver, WorkConservingGivesSlackToJobs) {
  auto p = small_cluster(1);
  p.jobs.push_back(job(0, 1000.0));  // target far below max speed
  const auto r = core::solve_placement(p);
  ASSERT_EQ(r.plan.jobs.size(), 1u);
  // Leftover node CPU tops the job up to its max speed.
  EXPECT_NEAR(r.plan.jobs[0].cpu.get(), 3000.0, 1e-6);
}

TEST(Solver, NonWorkConservingStopsAtTarget) {
  auto p = small_cluster(1);
  p.jobs.push_back(job(0, 1000.0));
  SolverConfig cfg;
  cfg.work_conserving = false;
  const auto r = core::solve_placement(p, cfg);
  ASSERT_EQ(r.plan.jobs.size(), 1u);
  EXPECT_NEAR(r.plan.jobs[0].cpu.get(), 1000.0, 1e-6);
}

TEST(Solver, InstanceCountScalesWithTarget) {
  auto p = small_cluster(4);
  p.apps.push_back(app(0, 30000.0));  // needs ≥ 3 nodes at 12000 each
  const auto r = core::solve_placement(p);
  assert_feasible(p, r.plan);
  EXPECT_GE(r.plan.instances.size(), 3u);
  EXPECT_LE(r.plan.instances.size(), 4u);
  // The app receives (close to) its target.
  double total = 0.0;
  for (const auto& ip : r.plan.instances) total += ip.cpu.get();
  EXPECT_NEAR(total, 30000.0, 1.0);
}

TEST(Solver, MinInstancesHonoredEvenAtZeroTarget) {
  auto p = small_cluster(2);
  p.apps.push_back(app(0, 0.0));
  const auto r = core::solve_placement(p);
  EXPECT_EQ(r.plan.instances.size(), 1u);
}

TEST(Solver, MaxInstancesBoundsGrowth) {
  auto p = small_cluster(6);
  p.apps.push_back(app(0, 70000.0, 1024.0, /*max_inst=*/2));
  const auto r = core::solve_placement(p);
  assert_feasible(p, r.plan);
  EXPECT_EQ(r.plan.instances.size(), 2u);
}

TEST(Solver, InstanceGrowthEvictsLeastUrgentJobs) {
  // One node, full of jobs; an app with a large target must reclaim memory.
  auto p = small_cluster(1);
  p.jobs.push_back(running_job(0, 0, 500.0));   // least urgent → evicted
  p.jobs.push_back(running_job(1, 0, 3000.0));
  p.jobs.push_back(running_job(2, 0, 2500.0));
  p.apps.push_back(app(0, 12000.0));
  const auto r = core::solve_placement(p);
  assert_feasible(p, r.plan);
  ASSERT_EQ(r.plan.instances.size(), 1u);
  EXPECT_GE(r.stats.jobs_evicted, 1);
  // Job 0 was the least urgent: it is not in the plan (suspended).
  for (const auto& jp : r.plan.jobs) EXPECT_NE(jp.job.get(), 0u);
}

TEST(Solver, NearCompletionJobsAreProtectedFromEviction) {
  auto p = small_cluster(1);
  auto j0 = running_job(0, 0, 500.0);
  j0.remaining = util::MhzSeconds{100.0};  // about to finish: protected
  p.jobs.push_back(j0);
  p.jobs.push_back(running_job(1, 0, 3000.0));
  p.jobs.push_back(running_job(2, 0, 2500.0));
  // App target leaves CPU for the surviving jobs (a target equal to the
  // whole cluster is not producible by the equalizer).
  p.apps.push_back(app(0, 9000.0));
  const auto r = core::solve_placement(p);
  assert_feasible(p, r.plan);
  // Job 0 would be the cheapest eviction (lowest urgency) but is
  // protected; the instance evicts an unprotected job instead.
  bool job0_placed = false;
  for (const auto& jp : r.plan.jobs) job0_placed |= (jp.job.get() == 0u);
  EXPECT_TRUE(job0_placed);
  EXPECT_GE(r.stats.jobs_evicted, 1);
}

TEST(Solver, EvictedJobMigratesWhenAnotherNodeHasRoom) {
  auto p = small_cluster(2);
  // Node 0 full of running jobs; node 1 empty. App grows onto node 0
  // (node 1 kept free? both are candidates — instance goes to the node
  // with most free memory, node 1). So instead fill node 1 too.
  p.jobs.push_back(running_job(0, 0, 500.0));
  p.jobs.push_back(running_job(1, 0, 3000.0));
  p.jobs.push_back(running_job(2, 0, 2500.0));
  p.jobs.push_back(running_job(3, 1, 2000.0));
  p.jobs.push_back(running_job(4, 1, 2000.0));
  // Node 1 has one free slot (2 jobs × 1300 = 2600, 1496 free > 1024).
  p.apps.push_back(app(0, 20000.0));  // wants 2+ instances
  const auto r = core::solve_placement(p);
  assert_feasible(p, r.plan);
  // All five jobs should still be placed or at worst one suspended;
  // key assertion: no capacity rule violated and evictions recorded
  // consistently.
  EXPECT_EQ(r.stats.jobs_evicted, r.stats.jobs_migrated + (5 - r.stats.jobs_placed));
}

TEST(Solver, MigrationDisabledSuspendsInstead) {
  auto p = small_cluster(2);
  p.jobs.push_back(running_job(0, 0, 500.0));
  p.jobs.push_back(running_job(1, 0, 3000.0));
  p.jobs.push_back(running_job(2, 0, 2500.0));
  p.apps.push_back(app(0, 24000.0));  // wants both nodes
  SolverConfig cfg;
  cfg.allow_migration = false;
  const auto r = core::solve_placement(p, cfg);
  assert_feasible(p, r.plan);
  EXPECT_EQ(r.stats.jobs_migrated, 0);
}

TEST(Solver, ImmovableJobStaysPut) {
  auto p = small_cluster(1);
  auto j = running_job(0, 0, 100.0);
  j.phase = JobPhase::kResuming;
  j.movable = false;
  p.jobs.push_back(j);
  // App wants the whole node; the resuming job cannot be evicted.
  p.apps.push_back(app(0, 12000.0));
  const auto r = core::solve_placement(p);
  assert_feasible(p, r.plan);
  bool placed = false;
  for (const auto& jp : r.plan.jobs) placed |= (jp.job.get() == 0u);
  EXPECT_TRUE(placed);
}

TEST(Solver, SuspendedJobResumedWhenRoomExists) {
  auto p = small_cluster(1);
  auto j = job(0, 2000.0);
  j.phase = JobPhase::kSuspended;
  p.jobs.push_back(j);
  const auto r = core::solve_placement(p);
  ASSERT_EQ(r.plan.jobs.size(), 1u);
}

TEST(Solver, DeterministicOutput) {
  auto p = small_cluster(4);
  for (unsigned i = 0; i < 8; ++i) p.jobs.push_back(job(i, 1000.0 + 100.0 * i));
  p.apps.push_back(app(0, 15000.0));
  const auto r1 = core::solve_placement(p);
  const auto r2 = core::solve_placement(p);
  ASSERT_EQ(r1.plan.jobs.size(), r2.plan.jobs.size());
  for (std::size_t i = 0; i < r1.plan.jobs.size(); ++i) {
    EXPECT_EQ(r1.plan.jobs[i].job, r2.plan.jobs[i].job);
    EXPECT_EQ(r1.plan.jobs[i].node, r2.plan.jobs[i].node);
    EXPECT_DOUBLE_EQ(r1.plan.jobs[i].cpu.get(), r2.plan.jobs[i].cpu.get());
  }
}

// Property: random problems always yield feasible plans.
class SolverFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverFuzz, RandomProblemsAreFeasible) {
  util::Rng rng(GetParam());
  for (int round = 0; round < 20; ++round) {
    const int n_nodes = 1 + static_cast<int>(rng.uniform_int(0, 7));
    auto p = small_cluster(n_nodes);
    const int n_jobs = static_cast<int>(rng.uniform_int(0, 30));
    for (int i = 0; i < n_jobs; ++i) {
      auto j = job(static_cast<unsigned>(i), rng.uniform(0.0, 3000.0),
                   rng.uniform(400.0, 2000.0));
      const double r = rng.uniform01();
      if (r < 0.4 && n_nodes > 0) {
        j.phase = JobPhase::kRunning;
        j.current_node = NodeId{static_cast<unsigned>(rng.uniform_int(0, n_nodes - 1))};
        j.movable = rng.chance(0.8);
        if (!j.movable) j.phase = JobPhase::kResuming;
      } else if (r < 0.55) {
        j.phase = JobPhase::kSuspended;
      }
      j.remaining = util::MhzSeconds{rng.uniform(1e3, 1e8)};
      p.jobs.push_back(j);
    }
    // Pre-existing placements must be memory-feasible: drop residents
    // that would overflow (mimics what a real cluster guarantees).
    std::map<unsigned, double> mem_used;
    for (auto& j : p.jobs) {
      if (j.current_node.valid()) {
        if (mem_used[j.current_node.get()] + j.memory.get() > 4096.0) {
          j.current_node = NodeId{};
          j.phase = JobPhase::kPending;
          j.movable = true;
        } else {
          mem_used[j.current_node.get()] += j.memory.get();
        }
      }
    }
    const int n_apps = static_cast<int>(rng.uniform_int(0, 2));
    for (int a = 0; a < n_apps; ++a) {
      p.apps.push_back(app(static_cast<unsigned>(a), rng.uniform(0.0, 40000.0)));
    }
    const auto r = core::solve_placement(p);
    assert_feasible(p, r.plan);
    // Every immovable memory-holding job must be in the plan.
    for (const auto& j : p.jobs) {
      if (!j.movable && j.current_node.valid()) {
        bool found = false;
        for (const auto& jp : r.plan.jobs) found |= (jp.job == j.id);
        ASSERT_TRUE(found) << "immovable job dropped from plan";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverFuzz, ::testing::Values(11u, 22u, 33u, 44u, 55u));

// ---- Edge paths the hot-path rewrite must preserve --------------------------

TEST(Solver, StarvationRescueRelocatesToNodeWithSlack) {
  // Node 0: a kept instance whose target consumes the whole node; the
  // collocated running job gets a zero grant and must be rescued to
  // node 1 (free memory, idle CPU) rather than starve in place.
  auto p = small_cluster(2);
  p.jobs.push_back(running_job(0, 0, 2000.0));
  auto a = app(0, 12000.0, 1024.0, /*max_inst=*/1);
  a.current.push_back({NodeId{0}, /*movable=*/true});
  p.apps.push_back(a);
  const auto r = core::solve_placement(p);
  assert_feasible(p, r.plan);
  ASSERT_EQ(r.plan.jobs.size(), 1u);
  EXPECT_EQ(r.plan.jobs[0].node.get(), 1u);
  EXPECT_GT(r.plan.jobs[0].cpu.get(), 1.0);
  EXPECT_GE(r.stats.jobs_evicted, 1);
  EXPECT_EQ(r.stats.jobs_migrated, 1);
}

TEST(Solver, StarvationRescueSuspendsWithoutDestination) {
  // Single node: the starved job has nowhere to go and is suspended
  // (dropped from the plan) instead of holding memory at zero speed.
  auto p = small_cluster(1);
  p.jobs.push_back(running_job(0, 0, 2000.0));
  auto a = app(0, 12000.0, 1024.0, /*max_inst=*/1);
  a.current.push_back({NodeId{0}, /*movable=*/true});
  p.apps.push_back(a);
  const auto r = core::solve_placement(p);
  assert_feasible(p, r.plan);
  EXPECT_TRUE(r.plan.jobs.empty());
  EXPECT_GE(r.stats.jobs_evicted, 1);
  EXPECT_EQ(r.stats.jobs_migrated, 0);
  EXPECT_GE(r.stats.jobs_waiting, 1);
}

TEST(Solver, StarvationRescueSuspendsWhenMigrationDisabled) {
  auto p = small_cluster(2);
  p.jobs.push_back(running_job(0, 0, 2000.0));
  auto a = app(0, 12000.0, 1024.0, /*max_inst=*/1);
  a.current.push_back({NodeId{0}, /*movable=*/true});
  p.apps.push_back(a);
  SolverConfig cfg;
  cfg.allow_migration = false;
  const auto r = core::solve_placement(p, cfg);
  assert_feasible(p, r.plan);
  EXPECT_TRUE(r.plan.jobs.empty());
  EXPECT_EQ(r.stats.jobs_migrated, 0);
  EXPECT_GE(r.stats.jobs_waiting, 1);
}

TEST(Solver, WorkConservingSpreadsLeftoverUpToEachJobsCap) {
  // Two jobs with different max speeds: the equal-share spread must stop
  // at each job's cap and re-spread the remainder to the open job.
  auto p = small_cluster(1);
  p.jobs.push_back(job(0, 500.0, 1300.0, /*max_speed=*/2000.0));
  p.jobs.push_back(job(1, 500.0, 1300.0, /*max_speed=*/3000.0));
  const auto r = core::solve_placement(p);
  assert_feasible(p, r.plan);
  ASSERT_EQ(r.plan.jobs.size(), 2u);
  for (const auto& jp : r.plan.jobs) {
    if (jp.job.get() == 0) {
      EXPECT_NEAR(jp.cpu.get(), 2000.0, 1e-6);
    }
    if (jp.job.get() == 1) {
      EXPECT_NEAR(jp.cpu.get(), 3000.0, 1e-6);
    }
  }
}

TEST(Solver, InstanceGrowthEvictsInUrgencyOrder) {
  // The instance needs two memory slots freed: the two least-urgent jobs
  // go (suspended — single node), the most urgent survives in place.
  auto p = small_cluster(1);
  p.jobs.push_back(running_job(0, 0, 500.0));
  p.jobs.push_back(running_job(1, 0, 1500.0));
  p.jobs.push_back(running_job(2, 0, 3000.0));
  p.apps.push_back(app(0, 6000.0, /*inst_mem=*/2500.0));
  const auto r = core::solve_placement(p);
  assert_feasible(p, r.plan);
  ASSERT_EQ(r.plan.instances.size(), 1u);
  EXPECT_EQ(r.stats.jobs_evicted, 2);
  ASSERT_EQ(r.plan.jobs.size(), 1u);
  EXPECT_EQ(r.plan.jobs[0].job.get(), 2u);  // highest urgency survives
  EXPECT_EQ(r.stats.jobs_waiting, 2);
}

// ---- Scratch reuse -----------------------------------------------------------

namespace {

/// A solve's outcome: its result, or the message of what it threw.
struct Outcome {
  std::optional<core::SolverResult> result;
  std::string error;
};

Outcome solve_catching(const PlacementProblem& p, const SolverConfig& cfg) {
  Outcome o;
  try {
    o.result = core::solve_placement(p, cfg);
  } catch (const std::exception& e) {
    o.error = e.what();
  }
  return o;
}

/// Field-by-field equality; `tol` 0 demands bit-identical grants.
void expect_same(const core::SolverResult& a, const core::SolverResult& b, double tol,
                 const std::string& what) {
  EXPECT_EQ(a.stats.jobs_placed, b.stats.jobs_placed) << what;
  EXPECT_EQ(a.stats.jobs_waiting, b.stats.jobs_waiting) << what;
  EXPECT_EQ(a.stats.jobs_evicted, b.stats.jobs_evicted) << what;
  EXPECT_EQ(a.stats.jobs_migrated, b.stats.jobs_migrated) << what;
  EXPECT_EQ(a.stats.instances_total, b.stats.instances_total) << what;
  EXPECT_EQ(a.stats.instances_added, b.stats.instances_added) << what;
  EXPECT_EQ(a.stats.instances_dropped, b.stats.instances_dropped) << what;
  ASSERT_EQ(a.plan.jobs.size(), b.plan.jobs.size()) << what;
  for (std::size_t i = 0; i < a.plan.jobs.size(); ++i) {
    EXPECT_EQ(a.plan.jobs[i].job, b.plan.jobs[i].job) << what << " job#" << i;
    EXPECT_EQ(a.plan.jobs[i].node, b.plan.jobs[i].node) << what << " job#" << i;
    if (tol == 0.0) {
      EXPECT_EQ(a.plan.jobs[i].cpu.get(), b.plan.jobs[i].cpu.get()) << what << " job#" << i;
    } else {
      EXPECT_NEAR(a.plan.jobs[i].cpu.get(), b.plan.jobs[i].cpu.get(), tol) << what << " job#" << i;
    }
  }
  ASSERT_EQ(a.plan.instances.size(), b.plan.instances.size()) << what;
  for (std::size_t i = 0; i < a.plan.instances.size(); ++i) {
    EXPECT_EQ(a.plan.instances[i].app, b.plan.instances[i].app) << what << " inst#" << i;
    EXPECT_EQ(a.plan.instances[i].node, b.plan.instances[i].node) << what << " inst#" << i;
    if (tol == 0.0) {
      EXPECT_EQ(a.plan.instances[i].cpu.get(), b.plan.instances[i].cpu.get())
          << what << " inst#" << i;
    } else {
      EXPECT_NEAR(a.plan.instances[i].cpu.get(), b.plan.instances[i].cpu.get(), tol)
          << what << " inst#" << i;
    }
  }
}

/// Round `round` of the reuse sequence: node, job, app and constraint-group
/// counts swing up and down from one problem to the next.
PlacementProblem reuse_problem(util::Rng& rng, int round) {
  static constexpr int kNodes[] = {6, 40, 2, 25, 1, 64, 9, 33, 3, 50, 12, 4};
  static constexpr int kJobs[] = {20, 160, 5, 90, 0, 260, 40, 120, 12, 200, 60, 8};
  const int n_nodes = kNodes[round % 12];
  const int n_jobs = kJobs[round % 12];
  const int n_groups = round % 4;  // constraint sets besides the empty one
  auto p = small_cluster(n_nodes);
  if (n_groups > 0) {
    cluster::MachineClass x86;
    x86.name = "x86";
    x86.arch = "x86";
    cluster::MachineClass arm;
    arm.name = "arm";
    arm.arch = "arm";
    cluster::MachineClass gpu = x86;
    gpu.name = "gpu";
    gpu.accel = {"gpu"};
    p.classes = {cluster::MachineClass{}, x86, arm, gpu};
    for (auto& n : p.nodes) n.klass = static_cast<cluster::ClassId>(rng.uniform_int(1, 3));
  }
  std::vector<cluster::ConstraintSet> sets(1);  // the empty set
  for (int g = 0; g < n_groups; ++g) {
    cluster::ConstraintSet c;
    if (g == 0) c.arch = "x86";
    if (g == 1) c.arch = "arm";
    if (g == 2) c.accel = {"gpu"};
    sets.push_back(c);
  }
  std::vector<double> mem_used(static_cast<std::size_t>(n_nodes), 0.0);
  for (int i = 0; i < n_jobs; ++i) {
    auto j = job(static_cast<unsigned>(i), rng.uniform(0.0, 3000.0), rng.uniform(400.0, 2000.0));
    j.constraint = sets[static_cast<std::size_t>(rng.uniform_int(0, n_groups))];
    const double r = rng.uniform01();
    if (r < 0.45) {
      const auto node = static_cast<std::size_t>(rng.uniform_int(0, n_nodes - 1));
      if (mem_used[node] + j.memory.get() <= 4096.0) {  // keep residencies memory-feasible
        mem_used[node] += j.memory.get();
        j.phase = JobPhase::kRunning;
        j.current_node = NodeId{static_cast<unsigned>(node)};
        j.movable = rng.chance(0.85);
        if (!j.movable) j.phase = JobPhase::kResuming;
      }
    } else if (r < 0.6) {
      j.phase = JobPhase::kSuspended;
    }
    j.remaining = util::MhzSeconds{rng.uniform(1e3, 1e8)};
    p.jobs.push_back(j);
  }
  const int n_apps = static_cast<int>(rng.uniform_int(0, 3));
  for (int a = 0; a < n_apps; ++a) {
    auto ap = app(static_cast<unsigned>(a), rng.uniform(0.0, 60000.0), rng.uniform(512.0, 1536.0));
    ap.constraint = sets[static_cast<std::size_t>(rng.uniform_int(0, n_groups))];
    for (int ni = 0; ni < n_nodes; ++ni) {
      if (rng.chance(0.1)) ap.current.push_back({NodeId{static_cast<unsigned>(ni)}, rng.chance(0.8)});
    }
    p.apps.push_back(ap);
  }
  return p;
}

}  // namespace

// The solver keeps its working set in a per-thread scratch that is
// cleared, not freed, between calls. A warm scratch — left by bigger or
// smaller problems, or by a call that threw halfway — must give exactly
// what a cold one gives: each result here is compared with the same
// problem solved on a fresh thread (cold scratch), and with the seed
// solver wherever the problem has no constraints.
TEST(SolverScratch, ReuseMatchesFreshSolve) {
  util::Rng rng(20240611);
  int legacy_checked = 0;
  for (int round = 0; round < 36; ++round) {
    PlacementProblem p = reuse_problem(rng, round);
    if (round == 17) {
      // Throws in phase 2 after every other resident has been pinned.
      auto bad = job(100000, 1000.0);
      bad.phase = JobPhase::kRunning;
      bad.current_node = NodeId{static_cast<unsigned>(p.nodes.size() + 5)};
      p.jobs.push_back(bad);
    }
    SolverConfig cfg;
    cfg.allow_migration = rng.chance(0.8);
    cfg.work_conserving = rng.chance(0.8);
    const std::string what = "round " + std::to_string(round);

    const Outcome warm = solve_catching(p, cfg);
    Outcome cold;
    std::thread([&] { cold = solve_catching(p, cfg); }).join();

    if (round == 17) {
      EXPECT_FALSE(warm.result.has_value()) << what;
      EXPECT_EQ(warm.error, "solve_placement: VM references unknown node") << what;
      EXPECT_EQ(cold.error, warm.error) << what;
      continue;
    }
    ASSERT_TRUE(warm.result.has_value()) << what << ": " << warm.error;
    ASSERT_TRUE(cold.result.has_value()) << what << ": " << cold.error;
    expect_same(*cold.result, *warm.result, 0.0, what + " (fresh thread)");

    bool constrained = !p.classes.empty();
    for (const auto& j : p.jobs) constrained |= !j.constraint.empty();
    for (const auto& a : p.apps) constrained |= !a.constraint.empty();
    if (!constrained) {
      expect_same(bench::legacy::solve_placement_legacy(p, cfg), *warm.result, 1e-6,
                  what + " (seed solver)");
      ++legacy_checked;
    }
    if (::testing::Test::HasFailure()) return;  // one divergent round is enough output
  }
  EXPECT_GE(legacy_checked, 5);
}
