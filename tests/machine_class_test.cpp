// Machine classes & placement constraints.
//
// Four concerns, one file:
//   1. Bit-identity pins — a scalar (class-free) cluster must reproduce
//      the pre-class output digest exactly, single-world and federated,
//      at 1 and 4 engine threads.
//   2. Solver fuzz — across seeded heterogeneous class mixes, no control
//      cycle may ever place a VM on a node its owner's ConstraintSet
//      does not admit.
//   3. Equalizer class pricing — the class-aware delivered-speed cap on
//      JobConsumer follows the closed-form clamp semantics.
//   4. Config plumbing — classes / class.<name>.* / *.constraint.* keys
//      round-trip through the loader and fail loudly when malformed.

#include "cluster/machine_class.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/consumer.hpp"
#include "core/controller.hpp"
#include "core/equalizer.hpp"
#include "core/utility_policy.hpp"
#include "core/world.hpp"
#include "scenario/class_factory.hpp"
#include "scenario/config_loader.hpp"
#include "scenario/experiment.hpp"
#include "scenario/federation_experiment.hpp"
#include "scenario/result_digest.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "utility/job_utility.hpp"
#include "workload/job_factory.hpp"

using namespace heteroplace;

// ---------------------------------------------------------------------------
// 1. Bit-identity: scalar clusters take the exact pre-class code path.
// ---------------------------------------------------------------------------

namespace {

// The digests pinned here were captured on the commit that introduced
// machine classes, from a build where the class code was verified to
// leave scalar runs untouched. Any change to these values means the
// class layer perturbed legacy output — a regression, not a re-pin.
constexpr std::uint64_t kScalarSingleDigest = 0xae1574dc26d16f16ULL;
constexpr std::uint64_t kScalarFederatedDigest = 0x420aa998b801fcc2ULL;

scenario::Scenario scalar_single_scenario() {
  auto s = scenario::section3_scaled(0.15);
  s.seed = 7;
  s.horizon_s = 30000.0;
  s.power.enabled = true;
  return s;
}

scenario::Scenario scalar_federated_scenario() {
  auto base = scenario::section3_scaled(0.2);
  base.seed = 42;
  base.horizon_s = 40000.0;
  scenario::Scenario fs = scenario::federate(base, 3);
  for (auto& d : fs.domains) d.first_cycle_at_s = 0.0;
  fs.migration.enabled = true;
  fs.migration.policy = "drain+rebalance";
  fs.migration.check_interval_s = 300.0;
  fs.power.enabled = true;
  fs.power.policy = "idle-park";
  fs.power.idle_timeout_s = 1200.0;
  fs.faults.enabled = true;
  fs.faults.events.push_back({"node-crash", 1, 0, 0, 9000.0, 4000.0, 1.0});
  fs.faults.events.push_back({"blackout", 2, 0, 0, 15000.0, 2500.0, 1.0});
  fs.weight_events.push_back({0, 12000.0, 0.3});
  fs.weight_events.push_back({0, 24000.0, 1.0});
  return fs;
}

}  // namespace

TEST(MachineClassBitIdentity, ScalarSingleWorldDigestIsPinned) {
  scenario::ExperimentOptions opt;
  for (int threads : {1, 4}) {
    auto s = scalar_single_scenario();
    s.engine_threads = threads;
    EXPECT_EQ(scenario::digest(scenario::run_experiment(s, opt)), kScalarSingleDigest)
        << "threads=" << threads;
  }
}

TEST(MachineClassBitIdentity, ScalarFederatedDigestIsPinned) {
  scenario::ExperimentOptions opt;
  for (int threads : {1, 4}) {
    auto fs = scalar_federated_scenario();
    fs.engine_threads = threads;
    EXPECT_EQ(scenario::digest(scenario::run_federated_experiment(fs, opt)),
              kScalarFederatedDigest)
        << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// 2. Solver fuzz: constrained packing never violates a ConstraintSet.
// ---------------------------------------------------------------------------

namespace {

cluster::MachineClass make_class(const std::string& name, const std::string& arch, int cores,
                                 double core_mhz, double mem_mb, double speed_factor = 1.0,
                                 std::vector<std::string> accel = {}) {
  cluster::MachineClass c;
  c.name = name;
  c.arch = arch;
  c.cores = cores;
  c.core_mhz = core_mhz;
  c.mem_mb = mem_mb;
  c.speed_factor = speed_factor;
  c.accel = std::move(accel);
  return c;
}

}  // namespace

TEST(MachineClassSolverFuzz, NoCycleEverPlacesAVmOnAnInadmissibleNode) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    util::Rng rng(seed);

    // A randomized three-pool mix: general x86, dense-but-slower arm,
    // and a small accelerated pool. Every constraint profile used below
    // stays satisfiable by construction.
    scenario::ClusterSpec cluster_spec;
    const double x86_core = 2400.0 + 100.0 * static_cast<double>(rng.uniform_int(0, 6));
    cluster_spec.classes = {
        {make_class("x86", "x86_64", 4 + static_cast<int>(rng.uniform_int(0, 4)), x86_core,
                    8192.0),
         3 + static_cast<int>(rng.uniform_int(0, 2))},
        {make_class("arm", "arm64", 8, 2000.0, 12288.0,
                    0.8 + 0.05 * static_cast<double>(rng.uniform_int(0, 4))),
         2 + static_cast<int>(rng.uniform_int(0, 2))},
        {make_class("gpu", "x86_64", 8, 3000.0, 16384.0, 1.0, {"gpu"}),
         2},
    };
    scenario::validate_class_pools(cluster_spec);

    sim::Engine engine;
    core::World world;
    scenario::populate_cluster(world.cluster(), cluster_spec);
    const auto& registry = world.cluster().classes();
    ASSERT_TRUE(registry.explicit_classes());

    workload::JobTemplate tmpl;
    tmpl.work = util::MhzSeconds{1.5e6};
    tmpl.max_speed = util::CpuMhz{3000.0};
    tmpl.memory = util::MemMb{2048.0};
    tmpl.goal_stretch = 8.0;
    const long n_jobs = 24;
    workload::PoissonArrivals arrivals{util::Seconds{0.0}, util::Seconds{150.0}, n_jobs};
    std::vector<workload::JobSpec> jobs = workload::generate_jobs(arrivals, tmpl, rng);
    for (auto& spec : jobs) {
      switch (rng.uniform_int(0, 4)) {
        case 0: spec.constraint.accel = {"gpu"}; break;
        case 1: spec.constraint.arch = "arm64"; break;
        case 2: spec.constraint.min_core_mhz = 2400.0; break;  // excludes arm
        default: break;  // unconstrained
      }
    }
    for (const auto& spec : jobs) {
      engine.schedule_at(spec.submit_time, sim::EventPriority::kWorkloadArrival,
                         [&world, spec] { world.submit_job(spec); });
    }

    auto policy = std::make_unique<core::UtilityDrivenPolicy>(
        std::make_shared<utility::JobUtilityModel>(),
        std::make_shared<utility::TxUtilityModel>());
    core::PlacementController controller(engine, world, std::move(policy));

    long violations = 0;
    controller.set_observer([&](const core::CycleReport&) {
      const cluster::Cluster& cl = world.cluster();
      for (const cluster::Node& n : cl.nodes()) {
        const cluster::MachineClass& host = registry.at(n.klass());
        for (const auto& [vm_id, _] : n.residents()) {
          const cluster::Vm& vm = cl.vm(vm_id);
          if (vm.kind != cluster::VmKind::kJobContainer) continue;
          if (!world.job(vm.job).spec().constraint.admits(host)) ++violations;
        }
      }
    });

    controller.start();
    while (world.completed_count() < static_cast<std::size_t>(n_jobs) &&
           engine.now().get() < 2.0e6) {
      engine.run_until(engine.now() + util::Seconds{6000.0});
    }

    EXPECT_EQ(violations, 0) << "seed " << seed;
    EXPECT_EQ(world.completed_count(), static_cast<std::size_t>(n_jobs)) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// 3. Equalizer class pricing: the delivered-speed cap in closed form.
// ---------------------------------------------------------------------------

namespace {

workload::JobSpec capped_job_spec() {
  // Work 3e6 at max_speed 3000 → 1000 s nominal; goal 2000 s. At full
  // speed the job finishes at the plateau edge (u = 1); at 1500 MHz it
  // finishes exactly on goal (u = 0.4). Same shape as job_utility_test.
  workload::JobSpec s;
  s.id = util::JobId{1};
  s.work = util::MhzSeconds{3.0e6};
  s.max_speed = util::CpuMhz{3000.0};
  s.memory = util::MemMb{1300.0};
  s.submit_time = util::Seconds{0.0};
  s.completion_goal = util::Seconds{2000.0};
  return s;
}

}  // namespace

TEST(MachineClassEqualizer, SpeedCapClampsDemandAndSaturatesUtility) {
  const utility::JobUtilityModel m;
  const workload::Job job{capped_job_spec()};
  const util::Seconds now{0.0};

  const core::JobConsumer uncapped(job, m, now);
  const core::JobConsumer capped(job, m, now, util::CpuMhz{1500.0});

  // Uncapped: demand saturates at the plateau-edge speed, utility 1.
  EXPECT_DOUBLE_EQ(uncapped.demand_max().get(), 3000.0);
  EXPECT_DOUBLE_EQ(uncapped.utility_max(), 1.0);

  // Capped at the best admitting class's delivered speed: demand is the
  // cap, and the achievable utility is what finishing at that speed
  // earns — on-goal completion, u = 0.4.
  EXPECT_DOUBLE_EQ(capped.demand_max().get(), 1500.0);
  EXPECT_DOUBLE_EQ(capped.utility_max(), 0.4);

  // The inverse clamps too: asking for more utility than the cap can
  // deliver returns the cap, never a speed the job cannot achieve.
  EXPECT_DOUBLE_EQ(capped.alloc_for_utility(1.0).get(), 1500.0);
  EXPECT_DOUBLE_EQ(uncapped.alloc_for_utility(1.0).get(), 3000.0);

  // Above the cap, extra allocation buys nothing.
  EXPECT_DOUBLE_EQ(capped.utility_at(util::CpuMhz{1500.0}),
                   capped.utility_at(util::CpuMhz{3000.0}));

  // The hot-loop curve params carry the same clamp.
  EXPECT_DOUBLE_EQ(capped.curve_params().max_speed, 1500.0);
  EXPECT_DOUBLE_EQ(uncapped.curve_params().max_speed, 3000.0);
}

TEST(MachineClassEqualizer, DefaultCapIsTheExactPreClassPath) {
  const utility::JobUtilityModel m;
  const workload::Job job{capped_job_spec()};
  const util::Seconds now{100.0};

  const core::JobConsumer plain(job, m, now);
  const core::JobConsumer huge_cap(job, m, now, util::CpuMhz{1.0e12});
  // A cap above the job's own max_speed never binds; both consumers give
  // bit-identical answers everywhere that matters to the equalizer.
  EXPECT_DOUBLE_EQ(plain.demand_max().get(), huge_cap.demand_max().get());
  EXPECT_DOUBLE_EQ(plain.utility_max(), huge_cap.utility_max());
  for (double u : {0.2, 0.4, 0.9, 1.0}) {
    EXPECT_DOUBLE_EQ(plain.alloc_for_utility(u).get(), huge_cap.alloc_for_utility(u).get());
  }
}

TEST(MachineClassEqualizer, EqualizePricesCappedConsumerAtItsCap) {
  const utility::JobUtilityModel m;
  const workload::Job job_a{capped_job_spec()};
  auto spec_b = capped_job_spec();
  spec_b.id = util::JobId{2};
  const workload::Job job_b{spec_b};
  const util::Seconds now{0.0};

  const core::JobConsumer fast(job_a, m, now);
  const core::JobConsumer slow(job_b, m, now, util::CpuMhz{1500.0});

  // Ample capacity: the uncapped twin takes its full 3000 MHz demand,
  // the capped one exactly its 1500 MHz achievable-speed ceiling.
  const auto r = core::equalize({&fast, &slow}, util::CpuMhz{10000.0});
  EXPECT_FALSE(r.contended);
  EXPECT_DOUBLE_EQ(r.allocations[0].alloc.get(), 3000.0);
  EXPECT_DOUBLE_EQ(r.allocations[1].alloc.get(), 1500.0);
  EXPECT_DOUBLE_EQ(r.total_demand.get(), 4500.0);
}

// ---------------------------------------------------------------------------
// 4. Config plumbing: round-trip and fail-loud.
// ---------------------------------------------------------------------------

namespace {

constexpr const char* kHeteroConfig =
    "classes = x86,arm,gpu\n"
    "class.x86.arch = x86_64\n"
    "class.x86.cores = 8\n"
    "class.x86.core_mhz = 2500\n"
    "class.x86.mem_mb = 8192\n"
    "class.x86.count = 4\n"
    "class.arm.arch = arm64\n"
    "class.arm.cores = 16\n"
    "class.arm.core_mhz = 2000\n"
    "class.arm.speed_factor = 0.9\n"
    "class.arm.mem_mb = 12288\n"
    "class.arm.count = 3\n"
    "class.gpu.arch = x86_64\n"
    "class.gpu.cores = 8\n"
    "class.gpu.core_mhz = 3000\n"
    "class.gpu.mem_mb = 16384\n"
    "class.gpu.accel = gpu\n"
    "class.gpu.count = 2\n";

constexpr const char* kConstraintKeys =
    "jobs.constraint.arch = x86_64\n"
    "jobs.constraint.min_core_mhz = 2500\n"
    "app.0.constraint.accel = gpu\n";

std::string hetero_config_text() {
  return std::string(kHeteroConfig) + kConstraintKeys;
}

}  // namespace

TEST(MachineClassConfig, ClassPoolsAndConstraintsParse) {
  const auto s =
      scenario::scenario_from_config(util::Config::from_string(hetero_config_text()));
  ASSERT_TRUE(s.cluster.heterogeneous());
  ASSERT_EQ(s.cluster.classes.size(), 3u);
  EXPECT_EQ(s.cluster.total_nodes(), 9);

  // `classes = x86,arm,gpu` is a tag list: pools come back sorted by
  // name (arm, gpu, x86) so the layout is declaration-order independent.
  const auto& arm = s.cluster.classes[0];
  EXPECT_EQ(arm.klass.name, "arm");
  EXPECT_EQ(arm.count, 3);
  EXPECT_DOUBLE_EQ(arm.klass.speed_factor, 0.9);
  EXPECT_DOUBLE_EQ(arm.klass.delivered_core_mhz(), 1800.0);
  EXPECT_DOUBLE_EQ(arm.klass.delivered_cpu_mhz(), 16.0 * 1800.0);

  const auto& x86 = s.cluster.classes[2];
  EXPECT_EQ(x86.klass.name, "x86");
  EXPECT_EQ(x86.klass.arch, "x86_64");
  EXPECT_EQ(x86.klass.cores, 8);
  EXPECT_DOUBLE_EQ(x86.klass.core_mhz, 2500.0);
  EXPECT_EQ(x86.count, 4);

  const auto& gpu = s.cluster.classes[1];
  EXPECT_EQ(gpu.klass.name, "gpu");
  EXPECT_EQ(gpu.count, 2);
  ASSERT_EQ(gpu.klass.accel.size(), 1u);
  EXPECT_EQ(gpu.klass.accel[0], "gpu");

  EXPECT_EQ(s.jobs.tmpl.constraint.arch, "x86_64");
  EXPECT_DOUBLE_EQ(s.jobs.tmpl.constraint.min_core_mhz, 2500.0);
  ASSERT_EQ(s.apps.size(), 1u);
  ASSERT_EQ(s.apps[0].spec.constraint.accel.size(), 1u);
  EXPECT_EQ(s.apps[0].spec.constraint.accel[0], "gpu");
}

TEST(MachineClassConfig, ScenarioToConfigRoundTripsClassesAndConstraints) {
  const auto s =
      scenario::scenario_from_config(util::Config::from_string(hetero_config_text()));
  const auto back = scenario::scenario_from_config(
      util::Config::from_string(scenario::scenario_to_config(s)));
  ASSERT_EQ(back.cluster.classes.size(), s.cluster.classes.size());
  for (std::size_t i = 0; i < s.cluster.classes.size(); ++i) {
    const auto& a = s.cluster.classes[i];
    const auto& b = back.cluster.classes[i];
    EXPECT_EQ(b.klass.name, a.klass.name);
    EXPECT_EQ(b.klass.arch, a.klass.arch);
    EXPECT_EQ(b.klass.cores, a.klass.cores);
    EXPECT_DOUBLE_EQ(b.klass.core_mhz, a.klass.core_mhz);
    EXPECT_DOUBLE_EQ(b.klass.mem_mb, a.klass.mem_mb);
    EXPECT_DOUBLE_EQ(b.klass.speed_factor, a.klass.speed_factor);
    EXPECT_EQ(b.klass.accel, a.klass.accel);
    EXPECT_EQ(b.count, a.count);
  }
  EXPECT_EQ(back.jobs.tmpl.constraint, s.jobs.tmpl.constraint);
  ASSERT_EQ(back.apps.size(), s.apps.size());
  EXPECT_EQ(back.apps[0].spec.constraint, s.apps[0].spec.constraint);
}

TEST(MachineClassConfig, ScalarAndPooledSpellingsAreMutuallyExclusive) {
  const auto cfg = util::Config::from_string(
      hetero_config_text() + "nodes = 5\n");
  EXPECT_THROW((void)scenario::scenario_from_config(cfg), util::ConfigError);
}

TEST(MachineClassConfig, MalformedClassPoolsRejected) {
  // speed_factor outside (0, 1].
  EXPECT_THROW((void)scenario::scenario_from_config(util::Config::from_string(
                   "classes = big\n"
                   "class.big.cores = 4\n"
                   "class.big.core_mhz = 2000\n"
                   "class.big.mem_mb = 4096\n"
                   "class.big.speed_factor = 1.5\n"
                   "class.big.count = 2\n")),
               util::ConfigError);
  // Missing cores.
  EXPECT_THROW((void)scenario::scenario_from_config(util::Config::from_string(
                   "classes = big\n"
                   "class.big.core_mhz = 2000\n"
                   "class.big.mem_mb = 4096\n"
                   "class.big.count = 2\n")),
               util::ConfigError);
  // Stray comma in an accel tag list.
  EXPECT_THROW((void)scenario::scenario_from_config(util::Config::from_string(
                   "classes = big\n"
                   "class.big.cores = 4\n"
                   "class.big.core_mhz = 2000\n"
                   "class.big.mem_mb = 4096\n"
                   "class.big.accel = gpu,,nvme\n"
                   "class.big.count = 2\n")),
               util::ConfigError);
}

TEST(MachineClassConfig, UnsatisfiableConstraintRejectedAtLoadTime) {
  // No pool is arch=sparc: the job stream could never place. Both the
  // job-stream and per-app constraint paths must fail loudly.
  EXPECT_THROW((void)scenario::scenario_from_config(util::Config::from_string(
                   std::string(kHeteroConfig) + "jobs.constraint.arch = sparc\n")),
               util::ConfigError);
  EXPECT_THROW((void)scenario::scenario_from_config(util::Config::from_string(
                   std::string(kHeteroConfig) + "app.0.constraint.accel = tpu\n")),
               util::ConfigError);
  // min_core_mhz above every pool's delivered per-core speed.
  EXPECT_THROW(
      (void)scenario::scenario_from_config(util::Config::from_string(
          std::string(kHeteroConfig) + "jobs.constraint.min_core_mhz = 5000\n")),
      util::ConfigError);
}

TEST(MachineClassConfig, FederatedDomainClassCountOverride) {
  // 2 domains; the gpu pool lives entirely in domain 0. The app (which
  // needs gpu) is satisfiable because *some* domain admits it.
  const auto cfg = util::Config::from_string(
      hetero_config_text() +
      "domains = 2\n"
      "domain.0.class.gpu.count = 2\n"
      "domain.1.class.gpu.count = 0\n");
  const auto fs = scenario::scenario_from_config(cfg);
  ASSERT_EQ(fs.domains.size(), 2u);
  // Pools sort by name (arm, gpu, x86). Even split of arm (3 → 2+1) and
  // x86 (4 → 2+2); gpu placed entirely in domain 0 by the override.
  const auto& d0 = fs.domains[0].cluster.classes;
  const auto& d1 = fs.domains[1].cluster.classes;
  ASSERT_EQ(d0.size(), 3u);
  ASSERT_EQ(d1.size(), 3u);
  EXPECT_EQ(d0[0].count, 2);  // arm
  EXPECT_EQ(d1[0].count, 1);
  EXPECT_EQ(d0[1].count, 2);  // gpu
  EXPECT_EQ(d1[1].count, 0);
  EXPECT_EQ(d0[2].count, 2);  // x86
  EXPECT_EQ(d1[2].count, 2);
  // A zero-count pool still registers its class, so ClassIds align.
  EXPECT_EQ(d1[1].klass.name, "gpu");
}

TEST(MachineClassSeries, PlaceableCapacityRecordedPerDomainOnlyWithClasses) {
  auto s = scenario::scenario_from_config(util::Config::from_string(
      hetero_config_text() + "jobs.count = 6\nhorizon_s = 3000\nsample_interval_s = 600\n"));
  const auto single = scenario::run_experiment(s, {});
  for (const char* name : {"class_arm_placeable_mhz", "class_gpu_placeable_mhz",
                           "class_x86_placeable_mhz"}) {
    const util::TimeSeries* series = single.series.find(name);
    ASSERT_NE(series, nullptr) << name;
    EXPECT_FALSE(series->empty()) << name;
  }

  s.obs.metrics_path = ::testing::TempDir() + "machine_class_metrics.prom";
  const auto fed = scenario::run_federated_experiment(scenario::federate(s, 2), {});
  ASSERT_EQ(fed.domains.size(), 2u);
  for (const auto& d : fed.domains) {
    ASSERT_NE(d.result.series.find("class_gpu_placeable_mhz"), nullptr) << d.name;
  }
  std::ifstream prom(s.obs.metrics_path);
  const std::string text{std::istreambuf_iterator<char>(prom), {}};
  EXPECT_NE(text.find("cluster_class_placeable_mhz{domain=\"dc1\",class=\"gpu\"}"),
            std::string::npos)
      << text;

  // Scalar clusters record no class series (their digests are pinned).
  for (const std::string& name :
       scenario::run_experiment(scalar_single_scenario(), {}).series.names()) {
    EXPECT_NE(name.rfind("class_", 0), 0u) << name;
  }
}

TEST(MachineClassConfig, FederatedScalarDomainKeysRejectedWithClasses) {
  const auto cfg = util::Config::from_string(
      hetero_config_text() +
      "domains = 2\n"
      "domain.0.nodes = 3\n");
  EXPECT_THROW((void)scenario::scenario_from_config(cfg),
               util::ConfigError);
}
