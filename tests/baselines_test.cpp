// Tests for the baseline policies: static partition and proportional share.

#include "baselines/proportional_share.hpp"
#include "baselines/static_partition.hpp"

#include <gtest/gtest.h>

#include "core/utility_policy.hpp"
#include "core/world.hpp"

using namespace heteroplace;
using namespace heteroplace::util::literals;
using baselines::ProportionalShareConfig;
using baselines::ProportionalSharePolicy;
using baselines::ShareMode;
using baselines::StaticPartitionConfig;
using baselines::StaticPartitionPolicy;
using cluster::Resources;
using core::World;
using util::Seconds;
using workload::JobSpec;

namespace {

JobSpec make_spec(unsigned id, double submit) {
  JobSpec s;
  s.id = util::JobId{id};
  s.work = util::MhzSeconds{3.0e6};
  s.max_speed = 3000_mhz;
  s.memory = 1300_mb;
  s.submit_time = Seconds{submit};
  s.completion_goal = Seconds{4000.0};
  return s;
}

void add_web_app(World& world, double lambda, unsigned id = 0) {
  workload::TxAppSpec spec;
  spec.id = util::AppId{id};
  spec.name = "web";
  spec.rt_goal = Seconds{1.2};
  spec.service_demand = 5000.0;
  spec.instance_memory = 1024_mb;
  spec.max_instances = 16;
  spec.max_cpu_per_instance = 12000_mhz;
  world.add_app(workload::TxApp{spec, workload::DemandTrace{lambda}});
}

}  // namespace

// --- Static partition -----------------------------------------------------------

TEST(StaticPartition, SplitsNodesByFraction) {
  World world;
  world.cluster().add_nodes(10, Resources{12000_mhz, 4096_mb});
  add_web_app(world, 10.0);
  for (unsigned i = 0; i < 40; ++i) world.submit_job(make_spec(i, i * 10.0));

  StaticPartitionConfig cfg;
  cfg.tx_node_fraction = 0.4;
  StaticPartitionPolicy policy(cfg);
  const auto out = policy.decide(world, 0_s);

  // Instances on the 4 TX nodes only.
  EXPECT_EQ(out.plan.instances.size(), 4u);
  for (const auto& inst : out.plan.instances) EXPECT_LT(inst.node.get(), 4u);
  // Jobs only on the remaining 6 nodes, 3 per node max: 18 placed.
  EXPECT_EQ(out.plan.jobs.size(), 18u);
  for (const auto& jp : out.plan.jobs) EXPECT_GE(jp.node.get(), 4u);
}

TEST(StaticPartition, JobsPlacedFcfsAtFullSpeed) {
  World world;
  world.cluster().add_nodes(2, Resources{12000_mhz, 4096_mb});
  add_web_app(world, 10.0);
  // Submit in reverse id order to prove it is submit time that matters.
  world.submit_job(make_spec(5, 500.0));
  world.submit_job(make_spec(1, 100.0));
  world.submit_job(make_spec(2, 200.0));
  world.submit_job(make_spec(3, 300.0));

  StaticPartitionConfig cfg;
  cfg.tx_node_fraction = 0.5;  // 1 TX node, 1 job node with 3 slots
  StaticPartitionPolicy policy(cfg);
  const auto out = policy.decide(world, 1000_s);
  ASSERT_EQ(out.plan.jobs.size(), 3u);
  // The three earliest submissions got the slots at full speed.
  for (const auto& jp : out.plan.jobs) {
    EXPECT_NE(jp.job.get(), 5u);
    EXPECT_DOUBLE_EQ(jp.cpu.get(), 3000.0);
  }
}

TEST(StaticPartition, NeverMigrates) {
  // A job running on a job node stays there across decisions.
  World world;
  world.cluster().add_nodes(4, Resources{12000_mhz, 4096_mb});
  add_web_app(world, 10.0);
  auto& job = world.submit_job(make_spec(0, 0.0));
  job.set_phase(0_s, workload::JobPhase::kStarting);
  job.set_phase(0_s, workload::JobPhase::kRunning);
  job.set_node(util::NodeId{3});

  StaticPartitionPolicy policy({0.5});
  const auto out1 = policy.decide(world, 100_s);
  const auto out2 = policy.decide(world, 700_s);
  ASSERT_EQ(out1.plan.jobs.size(), 1u);
  ASSERT_EQ(out2.plan.jobs.size(), 1u);
  EXPECT_EQ(out1.plan.jobs[0].node.get(), 3u);
  EXPECT_EQ(out2.plan.jobs[0].node.get(), 3u);
}

TEST(StaticPartition, ZeroFractionGivesJobsEverything) {
  World world;
  world.cluster().add_nodes(3, Resources{12000_mhz, 4096_mb});
  add_web_app(world, 10.0);
  for (unsigned i = 0; i < 12; ++i) world.submit_job(make_spec(i, i * 1.0));
  StaticPartitionPolicy policy({0.0});
  const auto out = policy.decide(world, 100_s);
  EXPECT_TRUE(out.plan.instances.empty());
  EXPECT_EQ(out.plan.jobs.size(), 9u);  // 3 nodes × 3 slots
}

// --- Proportional share ------------------------------------------------------------

TEST(ProportionalShare, EqualModeSplitsEvenly) {
  World world;
  world.cluster().add_nodes(2, Resources{12000_mhz, 4096_mb});
  add_web_app(world, 24.0);
  world.submit_job(make_spec(0, 0.0));

  auto job_model = std::make_shared<utility::JobUtilityModel>();
  auto tx_model = std::make_shared<utility::TxUtilityModel>();
  ProportionalShareConfig cfg;
  cfg.mode = ShareMode::kEqualPerWorkload;
  ProportionalSharePolicy policy(job_model, tx_model, cfg);
  const auto out = policy.decide(world, 0_s);

  // Two consumers, 24000 MHz: 12000 each, but the job is capped by its
  // demand (1500 MHz reaches the utility plateau at t=0).
  ASSERT_EQ(out.diag.apps.size(), 1u);
  EXPECT_NEAR(out.diag.apps[0].target.get(), 12000.0, 1e-6);
  EXPECT_NEAR(out.diag.jobs_target.get(), 1500.0, 1e-6);
}

TEST(ProportionalShare, DemandModeFollowsDemands) {
  World world;
  world.cluster().add_nodes(2, Resources{12000_mhz, 4096_mb});
  add_web_app(world, 24.0);  // demand ≈ 161667, dwarfs one job's 3000
  world.submit_job(make_spec(0, 0.0));

  auto job_model = std::make_shared<utility::JobUtilityModel>();
  auto tx_model = std::make_shared<utility::TxUtilityModel>();
  ProportionalShareConfig cfg;
  cfg.mode = ShareMode::kDemandProportional;
  ProportionalSharePolicy policy(job_model, tx_model, cfg);
  const auto out = policy.decide(world, 0_s);
  ASSERT_EQ(out.diag.apps.size(), 1u);
  // App gets nearly everything: share ratio ≈ demand ratio.
  EXPECT_GT(out.diag.apps[0].target.get(), 20000.0);
  EXPECT_LT(out.diag.jobs_target.get(), 1000.0);
}

TEST(ProportionalShare, UtilityBlindnessShowsInDiagnostics) {
  // Proportional share reports hypothetical utilities so experiments can
  // compare: with equal split, a tight-deadline job and the app land at
  // different utilities (no equalization).
  World world;
  world.cluster().add_nodes(1, Resources{12000_mhz, 4096_mb});
  add_web_app(world, 24.0);
  auto spec = make_spec(0, 0.0);
  spec.completion_goal = Seconds{1200.0};  // tight: needs ~2500 MHz for goal
  world.submit_job(spec);

  auto job_model = std::make_shared<utility::JobUtilityModel>();
  auto tx_model = std::make_shared<utility::TxUtilityModel>();
  ProportionalSharePolicy policy(job_model, tx_model, {});
  const auto out = policy.decide(world, 0_s);
  EXPECT_TRUE(std::isnan(out.diag.u_star));  // no equalization happened
  EXPECT_EQ(out.diag.active_jobs, 1);
}

// --- Plan order ----------------------------------------------------------------------

TEST(PlanOrder, EveryPolicyReturnsContractOrder) {
  // Two apps on a shared cluster, job ids submitted in descending order:
  // node-major instance emission and submit-time job order would both
  // break the (app, node) / job-id contract the executor relies on.
  World world;
  world.cluster().add_nodes(8, Resources{12000_mhz, 4096_mb});
  add_web_app(world, 10.0, 0);
  add_web_app(world, 6.0, 1);
  for (unsigned i = 0; i < 20; ++i) world.submit_job(make_spec(19 - i, i * 10.0));

  auto job_model = std::make_shared<utility::JobUtilityModel>();
  auto tx_model = std::make_shared<utility::TxUtilityModel>();
  std::vector<std::pair<const char*, std::unique_ptr<core::PlacementPolicy>>> policies;
  policies.emplace_back("utility-driven",
                        std::make_unique<core::UtilityDrivenPolicy>(job_model, tx_model));
  for (ShareMode mode : {ShareMode::kEqualPerWorkload, ShareMode::kDemandProportional}) {
    ProportionalShareConfig cfg;
    cfg.mode = mode;
    policies.emplace_back("proportional-share",
                          std::make_unique<ProportionalSharePolicy>(job_model, tx_model, cfg));
  }
  policies.emplace_back("static-partition",
                        std::make_unique<StaticPartitionPolicy>(StaticPartitionConfig{0.5}));

  for (const auto& [name, policy] : policies) {
    const auto out = policy->decide(world, 100_s);
    EXPECT_TRUE(out.plan.in_order()) << name;
    EXPECT_FALSE(out.plan.jobs.empty()) << name;
    EXPECT_GT(out.plan.app_cpu(util::AppId{0}).get(), 0.0) << name;
    EXPECT_GT(out.plan.app_cpu(util::AppId{1}).get(), 0.0) << name;
  }
}
