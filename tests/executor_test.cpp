// Tests for the action executor: VM lifecycle on the simulation clock,
// latencies, completion scheduling, suspend/resume/migrate mechanics, and a
// differential check of apply() against a map-based reference.

#include "core/executor.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/world.hpp"
#include "obs/audit.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

using namespace heteroplace;
using namespace heteroplace::util::literals;
using cluster::PlacementPlan;
using cluster::Resources;
using cluster::VmState;
using core::ActionExecutor;
using core::World;
using util::NodeId;
using util::Seconds;
using workload::JobPhase;
using workload::JobSpec;

namespace {

JobSpec make_spec(unsigned id, double work = 3.0e6) {
  JobSpec s;
  s.id = util::JobId{id};
  s.work = util::MhzSeconds{work};
  s.max_speed = 3000_mhz;
  s.memory = 1300_mb;
  s.submit_time = 0_s;
  s.completion_goal = 4000_s;
  return s;
}

struct Fixture {
  sim::Engine engine;
  World world;
  ActionExecutor executor{engine, world};
  std::vector<util::JobId> completed;

  Fixture(int nodes = 2) {
    world.cluster().add_nodes(nodes, Resources{12000_mhz, 4096_mb});
    executor.set_completion_callback(
        [this](const workload::Job& j) { completed.push_back(j.id()); });
  }

  PlacementPlan plan_one(unsigned job_id, unsigned node, double cpu) {
    PlacementPlan p;
    p.jobs.push_back({util::JobId{job_id}, NodeId{node}, util::CpuMhz{cpu}});
    return p;
  }
};

}  // namespace

TEST(Executor, StartsJobWithBootLatency) {
  Fixture f;
  f.world.submit_job(make_spec(0));
  f.executor.apply(f.plan_one(0, 0, 3000.0));
  auto& job = f.world.job(util::JobId{0});
  EXPECT_EQ(job.phase(), JobPhase::kStarting);
  // Memory reserved immediately; no CPU yet.
  EXPECT_DOUBLE_EQ(f.world.cluster().node(NodeId{0}).used().mem.get(), 1300.0);
  EXPECT_DOUBLE_EQ(f.world.cluster().node(NodeId{0}).used().cpu.get(), 0.0);

  f.engine.run_until(59_s);
  EXPECT_EQ(job.phase(), JobPhase::kStarting);
  f.engine.run_until(61_s);
  EXPECT_EQ(job.phase(), JobPhase::kRunning);
  EXPECT_DOUBLE_EQ(job.speed().get(), 3000.0);
  EXPECT_EQ(f.executor.counts().starts, 1);
}

TEST(Executor, JobCompletesOnSchedule) {
  Fixture f;
  f.world.submit_job(make_spec(0, /*work=*/3.0e6));  // 1000 s at 3000 MHz
  f.executor.apply(f.plan_one(0, 0, 3000.0));
  f.engine.run_until(1059_s);  // 60 s boot + 1000 s run = 1060
  EXPECT_TRUE(f.completed.empty());
  f.engine.run_until(1061_s);
  ASSERT_EQ(f.completed.size(), 1u);
  auto& job = f.world.job(util::JobId{0});
  EXPECT_EQ(job.phase(), JobPhase::kCompleted);
  EXPECT_NEAR(job.completion_time().get(), 1060.0, 1e-6);
  // Resources released.
  EXPECT_DOUBLE_EQ(f.world.cluster().node(NodeId{0}).used().mem.get(), 0.0);
  EXPECT_DOUBLE_EQ(f.world.cluster().node(NodeId{0}).used().cpu.get(), 0.0);
  EXPECT_TRUE(f.world.cluster().validate().empty());
}

TEST(Executor, ResizeReschedulesCompletion) {
  Fixture f;
  f.world.submit_job(make_spec(0, 3.0e6));
  f.executor.apply(f.plan_one(0, 0, 3000.0));
  f.engine.run_until(560_s);  // 500 s of running: 1.5e6 done
  // Halve the speed: remaining 1.5e6 at 1500 → 1000 s more.
  f.executor.apply(f.plan_one(0, 0, 1500.0));
  f.engine.run_until(5000_s);
  ASSERT_EQ(f.completed.size(), 1u);
  EXPECT_NEAR(f.world.job(util::JobId{0}).completion_time().get(), 1560.0, 1e-6);
}

TEST(Executor, SuspendFreesMemoryAfterLatency) {
  Fixture f;
  f.world.submit_job(make_spec(0));
  f.executor.apply(f.plan_one(0, 0, 3000.0));
  f.engine.run_until(600_s);
  // Empty plan: the running job must be suspended.
  f.executor.apply(PlacementPlan{});
  auto& job = f.world.job(util::JobId{0});
  EXPECT_EQ(job.phase(), JobPhase::kSuspending);
  EXPECT_DOUBLE_EQ(job.speed().get(), 0.0);
  // Memory still held during the suspend latency.
  EXPECT_DOUBLE_EQ(f.world.cluster().node(NodeId{0}).used().mem.get(), 1300.0);
  f.engine.run_until(616_s);
  EXPECT_EQ(job.phase(), JobPhase::kSuspended);
  EXPECT_DOUBLE_EQ(f.world.cluster().node(NodeId{0}).used().mem.get(), 0.0);
  EXPECT_EQ(f.executor.counts().suspends, 1);
  EXPECT_EQ(job.suspend_count(), 1);
  EXPECT_TRUE(f.world.cluster().validate().empty());
}

TEST(Executor, SuspendedJobMakesNoProgress) {
  Fixture f;
  f.world.submit_job(make_spec(0, 3.0e6));
  f.executor.apply(f.plan_one(0, 0, 3000.0));
  f.engine.run_until(560_s);  // 500 s run: half done
  f.executor.apply(PlacementPlan{});
  f.engine.run_until(2000_s);
  auto& job = f.world.job(util::JobId{0});
  job.advance_to(2000_s);
  EXPECT_NEAR(job.done().get(), 1.5e6, 1.0);
  EXPECT_TRUE(f.completed.empty());
}

TEST(Executor, ResumePlacesOnNewNodeWithLatency) {
  Fixture f;
  f.world.submit_job(make_spec(0, 3.0e6));
  f.executor.apply(f.plan_one(0, 0, 3000.0));
  f.engine.run_until(560_s);
  f.executor.apply(PlacementPlan{});  // suspend
  f.engine.run_until(700_s);
  f.executor.apply(f.plan_one(0, 1, 3000.0));  // resume on node 1
  auto& job = f.world.job(util::JobId{0});
  EXPECT_EQ(job.phase(), JobPhase::kResuming);
  EXPECT_EQ(job.node().get(), 1u);
  f.engine.run_until(800_s);  // resume latency 90 s
  EXPECT_EQ(job.phase(), JobPhase::kRunning);
  EXPECT_EQ(f.executor.counts().resumes, 1);
  // Remaining 1.5e6 at 3000 → completes 500 s after 790.
  f.engine.run_until(5000_s);
  ASSERT_EQ(f.completed.size(), 1u);
  EXPECT_NEAR(job.completion_time().get(), 1290.0, 1e-6);
}

TEST(Executor, MigrationMovesMemoryAndPausesProgress) {
  Fixture f;
  f.world.submit_job(make_spec(0, 3.0e6));
  f.executor.apply(f.plan_one(0, 0, 3000.0));
  f.engine.run_until(560_s);  // half done
  f.executor.apply(f.plan_one(0, 1, 3000.0));  // move to node 1
  auto& job = f.world.job(util::JobId{0});
  EXPECT_EQ(job.phase(), JobPhase::kMigrating);
  EXPECT_EQ(job.migrate_count(), 1);
  EXPECT_DOUBLE_EQ(f.world.cluster().node(NodeId{0}).used().mem.get(), 0.0);
  EXPECT_DOUBLE_EQ(f.world.cluster().node(NodeId{1}).used().mem.get(), 1300.0);
  f.engine.run_until(681_s);  // migrate latency 120 s
  EXPECT_EQ(job.phase(), JobPhase::kRunning);
  // 120 s of no progress: completion pushed to 560+120+500 = 1180.
  f.engine.run_until(5000_s);
  ASSERT_EQ(f.completed.size(), 1u);
  EXPECT_NEAR(job.completion_time().get(), 1180.0, 1e-6);
  EXPECT_EQ(f.executor.counts().migrations, 1);
}

TEST(Executor, MigrationChainResolvesViaFixpoint) {
  // Nodes sized so two jobs cannot coexist: each node fits one job.
  sim::Engine engine;
  World world;
  world.cluster().add_nodes(3, Resources{12000_mhz, 1500_mb});
  ActionExecutor executor{engine, world};
  world.submit_job(make_spec(0));
  world.submit_job(make_spec(1));
  {
    PlacementPlan p;
    p.jobs.push_back({util::JobId{0}, NodeId{0}, 3000_mhz});
    p.jobs.push_back({util::JobId{1}, NodeId{1}, 3000_mhz});
    executor.apply(p);
  }
  engine.run_until(100_s);
  // Chain: job0 → node 1 is blocked until job1 → node 2 frees it.
  PlacementPlan p2;
  p2.jobs.push_back({util::JobId{0}, NodeId{1}, 3000_mhz});
  p2.jobs.push_back({util::JobId{1}, NodeId{2}, 3000_mhz});
  executor.apply(p2);
  EXPECT_EQ(world.job(util::JobId{0}).node().get(), 1u);
  EXPECT_EQ(world.job(util::JobId{1}).node().get(), 2u);
  EXPECT_EQ(executor.counts().migrations, 2);
  EXPECT_TRUE(world.cluster().validate().empty());
}

TEST(Executor, StartRetriesWhenMemoryIsDraining) {
  // One node; 3 jobs fill its memory. Suspend one and immediately start
  // another: the start is blocked on the draining suspension, then the
  // retry succeeds.
  Fixture f(1);
  for (unsigned i = 0; i < 4; ++i) f.world.submit_job(make_spec(i));
  {
    PlacementPlan p;
    for (unsigned i = 0; i < 3; ++i) {
      p.jobs.push_back({util::JobId{i}, NodeId{0}, 3000_mhz});
    }
    f.executor.apply(p);
  }
  f.engine.run_until(600_s);
  // New plan: job 0 out, job 3 in.
  PlacementPlan p2;
  p2.jobs.push_back({util::JobId{1}, NodeId{0}, 3000_mhz});
  p2.jobs.push_back({util::JobId{2}, NodeId{0}, 3000_mhz});
  p2.jobs.push_back({util::JobId{3}, NodeId{0}, 3000_mhz});
  f.executor.apply(p2);
  // Immediately: job 3 could not be placed (memory still draining).
  EXPECT_EQ(f.world.job(util::JobId{3}).phase(), JobPhase::kPending);
  // After the suspend latency + retry margin, the start goes through.
  f.engine.run_until(620_s);
  EXPECT_EQ(f.world.job(util::JobId{3}).phase(), JobPhase::kStarting);
  EXPECT_TRUE(f.world.cluster().validate().empty());
}

TEST(Executor, InstanceLifecycle) {
  Fixture f;
  workload::TxAppSpec spec;
  spec.id = util::AppId{0};
  spec.name = "web";
  spec.instance_memory = 1024_mb;
  f.world.add_app(workload::TxApp{spec, workload::DemandTrace{10.0}});

  PlacementPlan p;
  p.instances.push_back({util::AppId{0}, NodeId{0}, 6000_mhz});
  f.executor.apply(p);
  EXPECT_EQ(f.executor.counts().instance_starts, 1);
  EXPECT_DOUBLE_EQ(f.world.cluster().node(NodeId{0}).used().mem.get(), 1024.0);
  EXPECT_DOUBLE_EQ(f.world.cluster().allocated_cpu(cluster::VmKind::kWebInstance).get(), 0.0);

  f.engine.run_until(121_s);  // instance start latency 120 s
  EXPECT_DOUBLE_EQ(f.world.cluster().allocated_cpu(cluster::VmKind::kWebInstance).get(), 6000.0);

  // Resize.
  PlacementPlan p2;
  p2.instances.push_back({util::AppId{0}, NodeId{0}, 9000_mhz});
  f.executor.apply(p2);
  EXPECT_DOUBLE_EQ(f.world.cluster().allocated_cpu(cluster::VmKind::kWebInstance).get(), 9000.0);

  // Stop.
  f.executor.apply(PlacementPlan{});
  EXPECT_EQ(f.executor.counts().instance_stops, 1);
  EXPECT_DOUBLE_EQ(f.world.cluster().node(NodeId{0}).used().mem.get(), 0.0);
  EXPECT_TRUE(f.world.cluster().validate().empty());
}

TEST(Executor, StoppingABootingInstanceCancelsItsStart) {
  Fixture f;
  workload::TxAppSpec spec;
  spec.id = util::AppId{0};
  spec.instance_memory = 1024_mb;
  f.world.add_app(workload::TxApp{spec, workload::DemandTrace{10.0}});

  PlacementPlan p;
  p.instances.push_back({util::AppId{0}, NodeId{0}, 6000_mhz});
  f.executor.apply(p);
  f.engine.run_until(50_s);  // mid-boot
  f.executor.apply(PlacementPlan{});
  f.engine.run_until(300_s);
  // The cancelled boot must not grant CPU later.
  EXPECT_DOUBLE_EQ(f.world.cluster().allocated_cpu(cluster::VmKind::kWebInstance).get(), 0.0);
  EXPECT_TRUE(f.world.cluster().validate().empty());
}

TEST(Executor, MidTransitionShareUpdateAppliedOnCompletion) {
  Fixture f;
  f.world.submit_job(make_spec(0));
  f.executor.apply(f.plan_one(0, 0, 3000.0));
  f.engine.run_until(30_s);  // still booting
  // Replan with a lower share while the job is starting.
  f.executor.apply(f.plan_one(0, 0, 1000.0));
  f.engine.run_until(100_s);
  EXPECT_EQ(f.world.job(util::JobId{0}).phase(), JobPhase::kRunning);
  EXPECT_DOUBLE_EQ(f.world.job(util::JobId{0}).speed().get(), 1000.0);
}

TEST(Executor, CountsDeltaResetsBetweenCycles) {
  Fixture f;
  f.world.submit_job(make_spec(0));
  f.executor.apply(f.plan_one(0, 0, 3000.0));
  auto d1 = f.executor.take_counts_delta();
  EXPECT_EQ(d1.starts, 1);
  auto d2 = f.executor.take_counts_delta();
  EXPECT_EQ(d2.starts, 0);
}

// --- Differential check against the map-based reference ----------------------

namespace heteroplace::core {

/// apply() as it was before the merge walk: three std::map indexes built
/// per call (desired jobs, desired instances, existing instances) and the
/// same four passes. It is an oracle, like the seed solver kept in
/// bench/legacy: friend access lets it drive the executor's own mechanics,
/// so the only difference from apply() is how the plan is looked up and
/// in which order the passes visit it. Returns what it set out to do.
struct ExecutorOracle {
  struct Intended {
    int suspends = 0;          // running jobs the plan left out
    int instance_stops = 0;
    int starting_stops = 0;    // stops of instances still booting
    int shrinks = 0;
    int grows = 0;
    int pending_updates = 0;   // share changes for mid-transition jobs
    int moves = 0;
    int stranded = 0;          // moves the fixpoint could not place
    int starts = 0;            // job starts and resumes
    int instance_starts = 0;
    int blocked_instance_starts = 0;  // no memory on the node
  };

  static Intended apply(ActionExecutor& ex, const cluster::PlacementPlan& plan) {
    using cluster::ActionType;
    Intended did;
    World& world = ex.world_;
    const util::Seconds now = ex.engine_.now();
    auto& cl = world.cluster();

    std::map<util::JobId, cluster::DesiredJobPlacement> desired_jobs;
    for (const auto& j : plan.jobs) desired_jobs.emplace(j.job, j);
    std::map<std::pair<util::AppId, util::NodeId>, util::CpuMhz> desired_insts;
    for (const auto& i : plan.instances) desired_insts.emplace(std::make_pair(i.app, i.node), i.cpu);
    std::map<std::pair<util::AppId, util::NodeId>, util::VmId> existing_insts;
    for (util::VmId vm_id : cl.web_instances()) {
      const auto& vm = cl.vm(vm_id);
      if (vm.state == VmState::kRunning || vm.state == VmState::kStarting) {
        existing_insts.emplace(std::make_pair(vm.app, vm.node), vm_id);
      }
    }
    const std::vector<workload::Job*> jobs = world.active_jobs();

    // Pass 1: suspends and instance stops.
    for (workload::Job* job : jobs) {
      if (job->phase() == JobPhase::kRunning && desired_jobs.count(job->id()) == 0) {
        ex.suspend_job(*job);
        ++did.suspends;
      }
    }
    for (const auto& [key, vm_id] : existing_insts) {
      if (desired_insts.count(key) > 0) continue;
      if (cl.vm(vm_id).state == VmState::kStarting) {
        auto it = ex.instance_rt_.find(vm_id);
        if (it != ex.instance_rt_.end()) {
          it->second.start.cancel();
          ex.instance_rt_.erase(it);
        }
        ++did.starting_stops;
      }
      cl.set_vm_state(vm_id, VmState::kStopped);
      cl.unplace_vm(vm_id);
      ex.counts_.record(ActionType::kStopInstance);
      ++did.instance_stops;
    }

    // Pass 2: resizes, shrinks first.
    struct Resize {
      util::VmId vm;
      util::CpuMhz cpu;
      util::JobId job;
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
          ex.job_rt_[job->id()].pending_share = want.cpu.get();
          ++did.pending_updates;
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
        ex.instance_rt_[it->second].pending_share = cpu.get();
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
      const util::CpuMhz share = ex.clamped_share(r.vm, r.cpu);
      if (!cl.set_cpu_share(r.vm, share)) return;
      ex.counts_.record(ActionType::kResizeCpu);
      if (r.job.valid()) {
        workload::Job& job = world.job(r.job);
        job.set_speed(now, share);
        ex.schedule_completion(job);
      }
    };
    for (const auto& r : shrinks) apply_resize(r);
    for (const auto& r : grows) apply_resize(r);
    did.shrinks += static_cast<int>(shrinks.size());
    did.grows += static_cast<int>(grows.size());

    // Pass 3: migration fixpoint, then suspend the stranded.
    std::vector<util::JobId> moves;
    for (workload::Job* job : jobs) {
      auto it = desired_jobs.find(job->id());
      if (it == desired_jobs.end()) continue;
      if (job->phase() == JobPhase::kRunning && job->node() != it->second.node) {
        moves.push_back(job->id());
      }
    }
    did.moves += static_cast<int>(moves.size());
    bool progress = true;
    while (progress && !moves.empty()) {
      progress = false;
      for (auto it = moves.begin(); it != moves.end();) {
        const auto& want = desired_jobs.at(*it);
        if (ex.migrate_job(world.job(*it), want.node, want.cpu)) {
          it = moves.erase(it);
          progress = true;
        } else {
          ++it;
        }
      }
    }
    for (util::JobId id : moves) ex.suspend_job(world.job(id));
    did.stranded += static_cast<int>(moves.size());

    // Pass 4: starts and resumes.
    for (workload::Job* job : jobs) {
      auto it = desired_jobs.find(job->id());
      if (it == desired_jobs.end()) continue;
      if (job->phase() == JobPhase::kPending || job->phase() == JobPhase::kSuspended) {
        ex.launch_job(*job, it->second.node, it->second.cpu, /*is_retry=*/false);
        ++did.starts;
      }
    }
    for (const auto& [key, cpu] : desired_insts) {
      if (existing_insts.count(key) > 0) continue;
      const auto [app_id, node_id] = key;
      const util::VmId vm_id = cl.create_web_vm(app_id, world.app(app_id).spec().instance_memory);
      ++did.instance_starts;
      if (!cl.place_vm(vm_id, node_id)) {
        cl.set_vm_state(vm_id, VmState::kStopped);
        ++did.blocked_instance_starts;
        continue;
      }
      cl.set_vm_state(vm_id, VmState::kStarting);
      ex.counts_.record(ActionType::kStartInstance);
      ex.instance_rt_[vm_id].pending_share = cpu.get();
      ex.instance_rt_[vm_id].start = ex.engine_.schedule_in(
          ex.latencies_.start_instance, sim::EventPriority::kStateTransition, ex.shard_,
          [&ex, vm_id] {
            auto& cl2 = ex.world_.cluster();
            cl2.set_vm_state(vm_id, VmState::kRunning);
            const double want = ex.instance_rt_[vm_id].pending_share;
            const util::CpuMhz share = ex.clamped_share(vm_id, util::CpuMhz{want});
            (void)cl2.set_cpu_share(vm_id, share);
            ex.instance_rt_.erase(vm_id);
          });
    }
    return did;
  }

  /// Share a job's transition will grant (-1 = no runtime record).
  static double job_pending_share(const ActionExecutor& ex, util::JobId id) {
    auto it = ex.job_rt_.find(id);
    return it == ex.job_rt_.end() ? -1.0 : it->second.pending_share;
  }
  static double instance_pending_share(const ActionExecutor& ex, util::VmId vm) {
    auto it = ex.instance_rt_.find(vm);
    return it == ex.instance_rt_.end() ? -1.0 : it->second.pending_share;
  }
};

}  // namespace heteroplace::core

namespace {

using core::ExecutorOracle;

/// One seeded world: tight node memory (two or three 1300 MB jobs per
/// node, 1024 MB web instances), job ids submitted out of id order, short
/// jobs that complete mid-run. Two rigs built from the same seed are
/// identical.
struct Rig {
  sim::Engine engine;
  World world;
  ActionExecutor executor{engine, world};
  obs::AuditLog audit{"dc0", 1 << 16};

  explicit Rig(std::uint64_t seed) {
    util::Rng rng(seed);
    const int nodes = static_cast<int>(rng.uniform_int(2, 5));
    for (int n = 0; n < nodes; ++n) {
      const double mem = rng.chance(0.5) ? 2700.0 : 4096.0;
      world.cluster().add_node(Resources{util::CpuMhz{12000.0}, util::MemMb{mem}});
    }
    const int apps = static_cast<int>(rng.uniform_int(0, 2));
    for (int a = 0; a < apps; ++a) {
      workload::TxAppSpec spec;
      spec.id = util::AppId{static_cast<unsigned>(a)};
      spec.instance_memory = 1024_mb;
      world.add_app(workload::TxApp{spec, workload::DemandTrace{10.0}});
    }
    const unsigned n_jobs = static_cast<unsigned>(rng.uniform_int(4, 14));
    std::vector<unsigned> ids(n_jobs);
    for (unsigned i = 0; i < n_jobs; ++i) ids[i] = i;
    for (unsigned i = n_jobs - 1; i > 0; --i) {
      std::swap(ids[i], ids[rng.uniform_int(0, i)]);
    }
    for (unsigned id : ids) world.submit_job(make_spec(id, rng.uniform(1.0e5, 2.0e6)));
    obs::ObsContext ctx;
    ctx.audit = &audit;
    ctx.pid = 1;
    executor.set_obs(ctx);
  }

  /// Inject a web VM the executor did not start: a second VM for a key
  /// that may already have one, so the first-created-wins rule matters.
  void inject_instance(util::AppId app, NodeId node, bool running, double cpu) {
    auto& cl = world.cluster();
    const util::VmId vm = cl.create_web_vm(app, 1024_mb);
    if (!cl.place_vm(vm, node)) {
      cl.set_vm_state(vm, VmState::kStopped);
      return;
    }
    cl.set_vm_state(vm, VmState::kStarting);
    if (!running) return;
    cl.set_vm_state(vm, VmState::kRunning);
    (void)cl.set_cpu_share(vm, util::CpuMhz{std::min(cpu, cl.node(node).cpu_free().get())});
  }
};

/// A random plan in contract order. Reads `rig` only to bias choices
/// (keep a job on its node so resizes happen); both rigs are identical
/// when this runs, so either serves.
PlacementPlan random_plan(util::Rng& rng, const Rig& rig) {
  PlacementPlan plan;
  const auto& cl = rig.world.cluster();
  const auto n_nodes = static_cast<std::uint64_t>(cl.node_count());
  for (util::JobId id : rig.world.job_order()) {
    if (rng.chance(0.25)) continue;  // left out: suspend if running
    const workload::Job& job = rig.world.job(id);
    NodeId node{static_cast<unsigned>(rng.uniform_int(0, n_nodes - 1))};
    if (job.node().valid() && rng.chance(0.6)) node = job.node();
    const double cpu = rng.chance(0.1) ? 0.0 : rng.uniform(300.0, 3000.0);
    plan.jobs.push_back({id, node, util::CpuMhz{cpu}});
  }
  for (const auto& app : rig.world.apps()) {
    for (std::uint64_t n = 0; n < n_nodes; ++n) {
      if (rng.chance(0.5)) {
        plan.instances.push_back(
            {app.id(), NodeId{static_cast<unsigned>(n)}, util::CpuMhz{rng.uniform(0.0, 9000.0)}});
      }
    }
  }
  plan.sort();
  return plan;
}

/// First difference between the two rigs' executors, worlds and engines
/// ("" = identical).
std::string first_difference(const Rig& a, const Rig& b) {
  std::ostringstream d;
  const auto ra = a.audit.snapshot();
  const auto rb = b.audit.snapshot();
  if (ra.size() != rb.size()) {
    d << "audit records " << ra.size() << " vs " << rb.size();
    return d.str();
  }
  for (std::size_t i = 0; i < ra.size(); ++i) {
    if (ra[i].t != rb[i].t || ra[i].kind != rb[i].kind ||
        std::strcmp(ra[i].verdict, rb[i].verdict) != 0 || ra[i].consumer != rb[i].consumer ||
        ra[i].node != rb[i].node) {
      d << "audit record " << i << ": " << ra[i].verdict << " job " << ra[i].consumer << " node "
        << ra[i].node << " vs " << rb[i].verdict << " job " << rb[i].consumer << " node "
        << rb[i].node;
      return d.str();
    }
  }
  const auto& ca = a.executor.counts();
  const auto& cb = b.executor.counts();
  if (ca.starts != cb.starts || ca.suspends != cb.suspends || ca.resumes != cb.resumes ||
      ca.migrations != cb.migrations || ca.instance_starts != cb.instance_starts ||
      ca.instance_stops != cb.instance_stops || ca.resizes != cb.resizes) {
    return "ActionCounts differ";
  }
  const auto& cla = a.world.cluster();
  const auto& clb = b.world.cluster();
  for (unsigned v = 0; cla.vm_exists(util::VmId{v}) || clb.vm_exists(util::VmId{v}); ++v) {
    const util::VmId id{v};
    if (cla.vm_exists(id) != clb.vm_exists(id)) {
      d << "vm " << v << " exists on one side only";
      return d.str();
    }
    const auto& va = cla.vm(id);
    const auto& vb = clb.vm(id);
    if (va.state != vb.state || va.node != vb.node || va.cpu_share.get() != vb.cpu_share.get() ||
        ExecutorOracle::instance_pending_share(a.executor, id) !=
            ExecutorOracle::instance_pending_share(b.executor, id)) {
      d << "vm " << v << ": " << cluster::to_string(va.state) << " on " << va.node << " at "
        << va.cpu_share.get() << " vs " << cluster::to_string(vb.state) << " on " << vb.node
        << " at " << vb.cpu_share.get();
      return d.str();
    }
  }
  for (util::JobId id : a.world.job_order()) {
    const workload::Job& ja = a.world.job(id);
    const workload::Job& jb = b.world.job(id);
    if (ja.phase() != jb.phase() || ja.node() != jb.node() ||
        ja.speed().get() != jb.speed().get() ||
        ExecutorOracle::job_pending_share(a.executor, id) !=
            ExecutorOracle::job_pending_share(b.executor, id)) {
      d << "job " << id << " differs";
      return d.str();
    }
  }
  if (a.engine.events_pending() != b.engine.events_pending()) return "pending events differ";
  return "";
}

}  // namespace

TEST(ExecutorDifferential, MatchesMapBasedReference) {
  constexpr int kWorlds = 240;
  constexpr int kSteps = 8;
  ExecutorOracle::Intended seen;
  int plans = 0;
  for (int w = 0; w < kWorlds; ++w) {
    const auto seed = static_cast<std::uint64_t>(0xE4EC0000 + w);
    Rig real(seed);
    Rig ref(seed);
    util::Rng rng(seed ^ 0x9E3779B97F4A7C15ULL);
    for (int step = 0; step < kSteps; ++step) {
      if (!real.world.apps().empty() && rng.chance(0.3)) {
        const util::AppId app{static_cast<unsigned>(
            rng.uniform_int(0, real.world.apps().size() - 1))};
        const NodeId node{
            static_cast<unsigned>(rng.uniform_int(0, real.world.cluster().node_count() - 1))};
        const bool running = rng.chance(0.5);
        const double cpu = rng.uniform(0.0, 4000.0);
        real.inject_instance(app, node, running, cpu);
        ref.inject_instance(app, node, running, cpu);
      }
      const PlacementPlan plan = random_plan(rng, real);
      ASSERT_TRUE(plan.in_order());
      real.executor.apply(plan);
      const ExecutorOracle::Intended did = ExecutorOracle::apply(ref.executor, plan);
      ++plans;
      seen.suspends += did.suspends;
      seen.starting_stops += did.starting_stops;
      seen.shrinks += did.shrinks;
      seen.grows += did.grows;
      seen.pending_updates += did.pending_updates;
      seen.moves += did.moves;
      seen.stranded += did.stranded;
      seen.starts += did.starts;
      seen.blocked_instance_starts += did.blocked_instance_starts;
      ASSERT_EQ(first_difference(real, ref), "") << "after apply, world " << w << " step " << step;
      const Seconds until = real.engine.now() + Seconds{rng.uniform(0.0, 150.0)};
      real.engine.run_until(until);
      ref.engine.run_until(until);
      ASSERT_EQ(first_difference(real, ref), "") << "after run, world " << w << " step " << step;
      ASSERT_TRUE(real.world.cluster().validate().empty());
    }
  }
  EXPECT_GE(plans, 200 * kSteps);
  // The worlds reach every case the passes distinguish.
  EXPECT_GT(seen.suspends, 0);
  EXPECT_GT(seen.starting_stops, 0);
  EXPECT_GT(seen.shrinks, 0);
  EXPECT_GT(seen.grows, 0);
  EXPECT_GT(seen.pending_updates, 0);
  EXPECT_GT(seen.moves, 0);
  EXPECT_GT(seen.stranded, 0);
  EXPECT_GT(seen.starts, 0);
  EXPECT_GT(seen.blocked_instance_starts, 0);
}
