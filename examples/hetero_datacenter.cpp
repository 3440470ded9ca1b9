// A heterogeneous datacenter: three machine classes under one
// utility-driven controller.
//
//   x86   10 nodes × 8 cores × 2.5 GHz          — the general-purpose pool
//   arm   8 nodes × 16 cores × 2.0 GHz × 0.9    — dense, slower per thread
//   gpu   4 nodes × 8 cores × 3.0 GHz + "gpu"   — the only accelerated pool
//
// The batch stream is striped across constraint profiles: every fourth
// job needs a GPU, the next quarter is pinned to arm64, another quarter
// demands >= 2.5 GHz delivered per core (which excludes the arm pool),
// and the rest run anywhere. A transactional app pinned to x86_64 skews
// its web instances away from the arm pool. The constrained solver packs
// all of it from one shared problem.
//
// The example is self-checking (CI smoke): after every control cycle it
// audits every placed VM against its owner's ConstraintSet and exits
// nonzero on any violation, if a GPU job ever lands off the gpu pool, or
// if the run ends with jobs unfinished.
//
// Build & run:   ./build/hetero_datacenter
// Options:       --jobs=N --seed=N

#include <iostream>

#include "cluster/machine_class.hpp"
#include "core/controller.hpp"
#include "core/utility_policy.hpp"
#include "core/world.hpp"
#include "scenario/class_factory.hpp"
#include "scenario/scenario.hpp"
#include "sim/engine.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"
#include "utility/utility_fn.hpp"
#include "workload/job_factory.hpp"

int main(int argc, char** argv) {
  using namespace heteroplace;

  util::Config cfg;
  try {
    cfg = util::Config::from_args(argc, argv);
  } catch (const util::ConfigError& e) {
    std::cerr << "usage: hetero_datacenter [--jobs=N] [--seed=N]\n" << e.what() << "\n";
    return 1;
  }
  const long n_jobs = cfg.get_int("jobs", 120);
  const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 42));

  // --- the machine-class pools (the config-file spelling would be
  // classes = x86,arm,gpu plus class.<name>.* keys) ---------------------------
  scenario::ClusterSpec cluster_spec;
  cluster::MachineClass x86;
  x86.name = "x86";
  x86.arch = "x86_64";
  x86.cores = 8;
  x86.core_mhz = 2500.0;
  x86.mem_mb = 8192.0;
  cluster::MachineClass arm;
  arm.name = "arm";
  arm.arch = "arm64";
  arm.cores = 16;
  arm.core_mhz = 2000.0;
  arm.speed_factor = 0.9;
  arm.mem_mb = 12288.0;
  cluster::MachineClass gpu;
  gpu.name = "gpu";
  gpu.arch = "x86_64";
  gpu.cores = 8;
  gpu.core_mhz = 3000.0;
  gpu.mem_mb = 16384.0;
  gpu.accel = {"gpu"};
  cluster_spec.classes = {{x86, 10}, {arm, 8}, {gpu, 4}};
  scenario::validate_class_pools(cluster_spec);

  sim::Engine engine;
  core::World world;
  scenario::populate_cluster(world.cluster(), cluster_spec);
  const auto& registry = world.cluster().classes();

  // --- transactional load, pinned to x86_64 (x86 + gpu pools) ----------------
  workload::TxAppSpec app;
  app.id = util::AppId{1};
  app.name = "frontend";
  app.rt_goal = util::Seconds{1.0};
  app.service_demand = 600.0;
  app.instance_memory = util::MemMb{1024.0};
  app.max_instances = 14;
  app.max_cpu_per_instance = util::CpuMhz{20000.0};
  app.constraint.arch = "x86_64";
  world.add_app(workload::TxApp{app, workload::DemandTrace{12.0}});  // 7.2 GHz offered

  // --- the striped batch stream ----------------------------------------------
  workload::JobTemplate tmpl;
  tmpl.work = util::MhzSeconds{3.0e6};  // 1000 s at full speed
  tmpl.max_speed = util::CpuMhz{3000.0};
  tmpl.memory = util::MemMb{2048.0};
  tmpl.goal_stretch = 8.0;
  util::Rng rng(seed);
  workload::PoissonArrivals arrivals{util::Seconds{0.0}, util::Seconds{200.0}, n_jobs};
  std::vector<workload::JobSpec> jobs = workload::generate_jobs(arrivals, tmpl, rng);
  long gpu_jobs = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    switch (i % 4) {
      case 0: jobs[i].constraint.accel = {"gpu"}; ++gpu_jobs; break;
      case 1: jobs[i].constraint.arch = "arm64"; break;
      case 2: jobs[i].constraint.min_core_mhz = 2500.0; break;  // excludes arm
      default: break;  // run anywhere
    }
  }
  for (const auto& spec : jobs) {
    engine.schedule_at(spec.submit_time, sim::EventPriority::kWorkloadArrival,
                       [&world, spec] { world.submit_job(spec); });
  }

  // --- controller with the per-cycle constraint audit -------------------------
  auto policy = std::make_unique<core::UtilityDrivenPolicy>(
      std::make_shared<utility::JobUtilityModel>(), std::make_shared<utility::TxUtilityModel>());
  core::PlacementController controller(engine, world, std::move(policy));

  long violations = 0;
  long gpu_jobs_seen_on_gpu = 0;
  long cycles = 0;
  controller.set_observer([&](const core::CycleReport&) {
    ++cycles;
    const cluster::Cluster& cl = world.cluster();
    // Placed VMs are exactly the nodes' residents.
    for (const cluster::Node& n : cl.nodes()) {
      const cluster::MachineClass& host = registry.at(n.klass());
      for (const auto& [vm_id, _] : n.residents()) {
        const cluster::Vm& vm = cl.vm(vm_id);
        const cluster::ConstraintSet& c = vm.kind == cluster::VmKind::kJobContainer
                                              ? world.job(vm.job).spec().constraint
                                              : world.app(vm.app).spec().constraint;
        if (!c.admits(host)) {
          ++violations;
          std::cerr << "violation: " << to_string(vm.kind) << " on class " << host.name << "\n";
        }
        if (vm.kind == cluster::VmKind::kJobContainer &&
            !world.job(vm.job).spec().constraint.accel.empty() && host.has_accel("gpu")) {
          ++gpu_jobs_seen_on_gpu;
        }
      }
    }
  });

  controller.start();
  while (world.completed_count() < static_cast<std::size_t>(n_jobs) &&
         engine.now().get() < 5.0e6) {
    engine.run_until(engine.now() + util::Seconds{6000.0});
  }

  const auto by_class = world.cluster().placeable_capacity_by_class();
  std::cout << "hetero-datacenter: " << world.cluster().node_count() << " nodes in "
            << registry.size() - 1 << " classes, " << n_jobs << " jobs (" << gpu_jobs
            << " GPU-constrained), " << cycles << " control cycles\n";
  for (std::size_t ci = 1; ci < by_class.size(); ++ci) {
    std::cout << "  class " << registry.at(static_cast<cluster::ClassId>(ci)).name
              << ": placeable " << by_class[ci].cpu.get() / 1000.0 << " GHz\n";
  }
  std::cout << "completed " << world.completed_count() << "/" << n_jobs
            << ", constraint violations " << violations << ", GPU-job placements on gpu pool "
            << gpu_jobs_seen_on_gpu << "\n";

  if (violations > 0) {
    std::cerr << "FAIL: placement violated machine constraints\n";
    return 1;
  }
  if (gpu_jobs_seen_on_gpu == 0) {
    std::cerr << "FAIL: no GPU-constrained job was ever observed on the gpu pool\n";
    return 1;
  }
  if (world.completed_count() < static_cast<std::size_t>(n_jobs)) {
    std::cerr << "FAIL: jobs unfinished at the safety cap\n";
    return 1;
  }
  std::cout << "OK\n";
  return 0;
}
