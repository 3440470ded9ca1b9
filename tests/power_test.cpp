// Power & energy subsystem tests: the power model / P-state ladder, node
// sleep states vs. placement, exact energy metering (closed-form
// park/wake arithmetic), the PowerManager state machine (park after idle
// timeout, wake on demand with wake latency, cap-driven throttling),
// determinism pins (identical seeds → identical energy_* series), and
// the bit-identity pin that power-disabled and power-enabled-but-idle
// runs reproduce the pre-power runner output exactly.

#include "power/manager.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/utility_policy.hpp"
#include "power/energy_meter.hpp"
#include "power/policy.hpp"
#include "power/power_model.hpp"
#include "scenario/config_loader.hpp"
#include "scenario/experiment.hpp"
#include "scenario/federation_experiment.hpp"
#include "scenario/power_factory.hpp"
#include "util/config.hpp"

using namespace heteroplace;
using namespace heteroplace::util::literals;
using cluster::PowerState;

namespace {

workload::JobSpec make_job(unsigned id, double submit = 0.0) {
  workload::JobSpec s;
  s.id = util::JobId{id};
  s.work = util::MhzSeconds{3.0e6};
  s.max_speed = 3000_mhz;
  s.memory = 1300_mb;
  s.submit_time = util::Seconds{submit};
  s.completion_goal = util::Seconds{8000.0};
  return s;
}

/// Two-day diurnal scenario on 10 nodes with power metering enabled
/// (consolidation policy chosen by the caller).
scenario::Scenario diurnal_scenario(const std::string& power_policy) {
  scenario::Scenario s = scenario::section3_scaled(0.4);
  s.name = "power-test";
  s.seed = 11;
  workload::DemandTrace diurnal;
  for (int day = 0; day < 2; ++day) {
    const double t0 = day * 86400.0;
    diurnal.add(util::Seconds{t0}, 1.5);
    diurnal.add(util::Seconds{t0 + 28800.0}, 14.0);
    diurnal.add(util::Seconds{t0 + 64800.0}, 1.5);
  }
  s.apps[0].trace = diurnal;
  s.jobs.count = 30;
  s.jobs.mean_interarrival_s = 700.0;
  s.jobs.tmpl.work = util::MhzSeconds{6.0e6};
  s.horizon_s = 2.0 * 86400.0;
  s.power.enabled = true;
  s.power.policy = power_policy;
  s.power.idle_timeout_s = 1800.0;
  s.power.wake_latency_s = 120.0;
  s.power.park_latency_s = 30.0;
  s.power.min_active_nodes = 2;
  return s;
}

void expect_same_series(const util::TimeSeriesSet& a, const util::TimeSeriesSet& b,
                        const std::string& name) {
  const auto* sa = a.find(name);
  const auto* sb = b.find(name);
  ASSERT_NE(sa, nullptr) << name;
  ASSERT_NE(sb, nullptr) << name;
  ASSERT_EQ(sa->size(), sb->size()) << name;
  for (std::size_t i = 0; i < sa->size(); ++i) {
    EXPECT_DOUBLE_EQ(sa->points()[i].t, sb->points()[i].t) << name << " point " << i;
    EXPECT_DOUBLE_EQ(sa->points()[i].v, sb->points()[i].v) << name << " point " << i;
  }
}

}  // namespace

// --- power model -------------------------------------------------------------

TEST(PowerModel, DefaultLadderValidatesAndScales) {
  power::PowerModel m;
  EXPECT_NO_THROW(m.validate());
  EXPECT_DOUBLE_EQ(m.speed_at(0), 1.0);
  EXPECT_DOUBLE_EQ(m.active_w(0), 220.0);
  EXPECT_EQ(m.deepest_pstate(), 3);
  // Clamped outside the ladder.
  EXPECT_DOUBLE_EQ(m.active_w(99), m.pstates.back().watts);
  EXPECT_DOUBLE_EQ(m.speed_at(-1), 1.0);

  const power::PowerModel scaled = power::PowerModel::ladder(100.0, 2);
  EXPECT_EQ(scaled.pstates.size(), 2u);
  EXPECT_DOUBLE_EQ(scaled.active_w(0), 100.0);
  EXPECT_DOUBLE_EQ(scaled.speed_at(1), 0.85);
  EXPECT_NO_THROW(scaled.validate());
}

TEST(PowerModel, RejectsDegenerateTables) {
  power::PowerModel m;
  m.pstates.clear();
  EXPECT_THROW(m.validate(), std::invalid_argument);
  m = power::PowerModel{};
  m.pstates[0].speed_factor = 0.9;  // P0 must be full speed
  EXPECT_THROW(m.validate(), std::invalid_argument);
  m = power::PowerModel{};
  m.pstates[2].speed_factor = 0.9;  // non-monotone
  EXPECT_THROW(m.validate(), std::invalid_argument);
  m = power::PowerModel{};
  m.pstates[1].watts = 0.0;
  EXPECT_THROW(m.validate(), std::invalid_argument);
  m = power::PowerModel{};
  m.standby_w = -1.0;
  EXPECT_THROW(m.validate(), std::invalid_argument);
  m = power::PowerModel{};
  m.off_w = 20.0;  // off drawing more than standby
  EXPECT_THROW(m.validate(), std::invalid_argument);
  m = power::PowerModel{};
  m.wake_latency_s = -1.0;
  EXPECT_THROW(m.validate(), std::invalid_argument);
  EXPECT_THROW(power::PowerModel::ladder(-5.0), std::invalid_argument);
  EXPECT_THROW(power::PowerModel::ladder(100.0, 9), std::invalid_argument);
  EXPECT_THROW(power::park_depth_from_string("hibernate"), std::invalid_argument);
}

// --- node sleep states vs. placement ----------------------------------------

TEST(NodePower, ParkedNodesAdmitNothingAndHostingNodesCannotPark) {
  cluster::Cluster cl;
  cl.add_nodes(2, cluster::Resources{12000_mhz, 4096_mb});
  const util::VmId vm = cl.create_job_vm(util::JobId{0}, 1024_mb);

  cl.set_power_state(util::NodeId{1}, PowerState::kParked);
  EXPECT_FALSE(cl.node(util::NodeId{1}).placeable());
  EXPECT_FALSE(cl.node(util::NodeId{1}).can_host(cluster::Resources{0_mhz, 1_mb}));
  EXPECT_FALSE(cl.place_vm(vm, util::NodeId{1}));
  EXPECT_DOUBLE_EQ(cl.node(util::NodeId{1}).placeable_cpu().get(), 0.0);

  ASSERT_TRUE(cl.place_vm(vm, util::NodeId{0}));
  cl.set_vm_state(vm, cluster::VmState::kStarting);
  EXPECT_THROW(cl.set_power_state(util::NodeId{0}, PowerState::kParking), std::logic_error);

  // Waking: still not placeable until the manager flips it active.
  cl.set_power_state(util::NodeId{1}, PowerState::kWaking);
  EXPECT_FALSE(cl.node(util::NodeId{1}).placeable());
  cl.set_power_state(util::NodeId{1}, PowerState::kActive);
  EXPECT_TRUE(cl.node(util::NodeId{1}).placeable());

  EXPECT_THROW(cl.set_speed_factor(util::NodeId{1}, 0.0), std::invalid_argument);
  EXPECT_THROW(cl.set_speed_factor(util::NodeId{1}, 1.5), std::invalid_argument);
  cl.set_speed_factor(util::NodeId{1}, 0.5);
  EXPECT_DOUBLE_EQ(cl.node(util::NodeId{1}).placeable_cpu().get(), 6000.0);
  EXPECT_TRUE(cl.validate().empty());
}

TEST(NodePower, PlaceableCapacityMatchesTotalAtFullPower) {
  cluster::Cluster cl;
  cl.add_nodes(7, cluster::Resources{12000_mhz, 4096_mb});
  // Bit-identical, not just close: the power-disabled hot path hangs off
  // this equality.
  EXPECT_EQ(cl.placeable_capacity().cpu.get(), cl.total_capacity().cpu.get());
  EXPECT_EQ(cl.placeable_capacity().mem.get(), cl.total_capacity().mem.get());

  cl.set_power_state(util::NodeId{3}, PowerState::kParked);
  EXPECT_DOUBLE_EQ(cl.placeable_capacity().cpu.get(), 6 * 12000.0);
}

TEST(NodePower, ProblemSkeletonExcludesUnplaceableNodesAndScalesThrottledOnes) {
  core::World world;
  world.cluster().add_nodes(4, cluster::Resources{12000_mhz, 4096_mb});
  world.cluster().set_power_state(util::NodeId{1}, PowerState::kParked);
  world.cluster().set_power_state(util::NodeId{2}, PowerState::kWaking);
  world.cluster().set_speed_factor(util::NodeId{3}, 0.7);

  const core::PlacementProblem problem = core::build_problem_skeleton(world);
  ASSERT_EQ(problem.nodes.size(), 2u);  // nodes 0 and 3 only
  EXPECT_EQ(problem.nodes[0].id, util::NodeId{0});
  EXPECT_DOUBLE_EQ(problem.nodes[0].cpu_capacity.get(), 12000.0);
  EXPECT_EQ(problem.nodes[1].id, util::NodeId{3});
  EXPECT_DOUBLE_EQ(problem.nodes[1].cpu_capacity.get(), 12000.0 * 0.7);
}

// --- energy meter ------------------------------------------------------------

TEST(EnergyMeter, IntegratesPiecewiseConstantDrawExactly) {
  power::EnergyMeter meter{2, 200.0, 0_s};
  EXPECT_DOUBLE_EQ(meter.total_draw_w(), 400.0);
  EXPECT_DOUBLE_EQ(meter.total_energy_wh(0_s), 0.0);

  // Node 0 drops to 10 W at t=1800; node 1 stays at 200 W.
  meter.set_draw(0, 10.0, util::Seconds{1800.0});
  // Non-mutating read mid-interval.
  const double expect_3600 = (200.0 * 1800.0 + 10.0 * 1800.0) / 3600.0 + 200.0 * 3600.0 / 3600.0;
  EXPECT_DOUBLE_EQ(meter.total_energy_wh(util::Seconds{3600.0}), expect_3600);
  EXPECT_DOUBLE_EQ(meter.node_energy_wh(0, util::Seconds{3600.0}),
                   (200.0 * 1800.0 + 10.0 * 1800.0) / 3600.0);
  EXPECT_DOUBLE_EQ(meter.node_draw_w(0), 10.0);

  EXPECT_THROW(meter.set_draw(0, -1.0, util::Seconds{4000.0}), std::invalid_argument);
  EXPECT_THROW(meter.set_draw(0, 5.0, util::Seconds{100.0}), std::invalid_argument);
}

// --- manager state machine ---------------------------------------------------

TEST(PowerManager, ParksAfterIdleTimeoutWithClosedFormEnergy) {
  sim::Engine engine;
  core::World world;
  world.cluster().add_nodes(1, cluster::Resources{12000_mhz, 4096_mb});

  power::PowerModel model = power::PowerModel::ladder(200.0, 1);
  model.standby_w = 10.0;
  model.park_latency_s = 50.0;
  model.wake_latency_s = 80.0;

  power::PowerOptions opts;
  opts.check_interval = util::Seconds{100.0};
  opts.min_active_nodes = 0;
  power::PowerManager mgr(engine, world, model,
                          power::make_consolidation_policy(
                              "idle-park", power::IdleParkConfig{150.0, 1.25}),
                          opts);
  mgr.start();

  // Ticks at 100 (idle clock starts), 200 (idle 100 < 150), 300 (idle
  // 200 ≥ 150 → park). Parked at 300 + 50 park latency.
  engine.run_until(util::Seconds{299.0});
  EXPECT_EQ(world.cluster().nodes()[0].power_state(), PowerState::kActive);
  engine.run_until(util::Seconds{300.0});
  EXPECT_EQ(world.cluster().nodes()[0].power_state(), PowerState::kParking);
  EXPECT_EQ(mgr.stats().parks, 1);
  engine.run_until(util::Seconds{349.0});
  EXPECT_EQ(world.cluster().nodes()[0].power_state(), PowerState::kParking);
  engine.run_until(util::Seconds{350.0});
  EXPECT_EQ(world.cluster().nodes()[0].power_state(), PowerState::kParked);
  EXPECT_EQ(mgr.parked_count(), 1u);

  // Closed form: active 200 W through t=350 (the parking transition
  // draws active power), standby 10 W afterwards.
  engine.run_until(util::Seconds{1000.0});
  const double expected_wh = (200.0 * 350.0 + 10.0 * 650.0) / 3600.0;
  EXPECT_DOUBLE_EQ(mgr.energy_wh(util::Seconds{1000.0}), expected_wh);
  EXPECT_DOUBLE_EQ(mgr.current_draw_w(), 10.0);
}

TEST(PowerManager, WakesOnDemandAndNodeRejoinsAfterWakeLatency) {
  sim::Engine engine;
  core::World world;
  world.cluster().add_nodes(2, cluster::Resources{12000_mhz, 4096_mb});

  power::PowerModel model = power::PowerModel::ladder(200.0, 1);
  model.standby_w = 10.0;
  model.park_latency_s = 0.0;
  model.wake_latency_s = 80.0;

  power::PowerOptions opts;
  opts.check_interval = util::Seconds{100.0};
  opts.min_active_nodes = 1;
  power::PowerManager mgr(engine, world, model,
                          power::make_consolidation_policy(
                              "idle-park", power::IdleParkConfig{150.0, 1.0}),
                          opts);
  mgr.start();

  // With nothing offered, node 1 parks (node 0 is the active floor).
  engine.run_until(util::Seconds{400.0});
  EXPECT_EQ(world.cluster().nodes()[0].power_state(), PowerState::kActive);
  EXPECT_EQ(world.cluster().nodes()[1].power_state(), PowerState::kParked);

  // Demand that outruns one node: five 3000-MHz jobs → 15000 MHz offered
  // against 12000 MHz active.
  for (unsigned id = 0; id < 5; ++id) world.submit_job(make_job(id, 450.0));
  engine.run_until(util::Seconds{500.0});  // tick at 500 sees the demand
  EXPECT_EQ(world.cluster().nodes()[1].power_state(), PowerState::kWaking);
  EXPECT_EQ(mgr.stats().wakes, 1);
  // Provably excluded from placement until the wake latency elapses.
  EXPECT_FALSE(world.cluster().nodes()[1].placeable());
  EXPECT_EQ(core::build_problem_skeleton(world).nodes.size(), 1u);

  engine.run_until(util::Seconds{580.0});  // 500 + 80 wake latency
  EXPECT_EQ(world.cluster().nodes()[1].power_state(), PowerState::kActive);
  EXPECT_EQ(core::build_problem_skeleton(world).nodes.size(), 2u);

  // Spin-up energy: node 1 drew active power from the wake decision, not
  // from the moment it became placeable. Its idle clock started at the
  // first tick (t=100), so the park landed at the t=300 tick (idle 200 s
  // ≥ the 150 s timeout; park latency 0).
  const double expected_wh =
      (200.0 * 300.0      // node 1 active until parked at t=300
       + 10.0 * 200.0     // parked 300 → 500
       + 200.0 * 100.0)   // waking + active 500 → 600
          / 3600.0 +
      200.0 * 600.0 / 3600.0;  // node 0, always on
  engine.run_until(util::Seconds{600.0});
  EXPECT_DOUBLE_EQ(mgr.energy_wh(util::Seconds{600.0}), expected_wh);
}

TEST(PowerManager, MemoryBlockedPendingJobWakesAParkedNode) {
  // CPU headroom is not enough: a pending job whose image fits no awake
  // node's free memory must trigger a wake, or a run-to-completion
  // experiment starves forever.
  sim::Engine engine;
  core::World world;
  world.cluster().add_nodes(2, cluster::Resources{12000_mhz, 4096_mb});
  // Node 0 keeps a 4000 MB resident, leaving 96 MB free (and keeping the
  // node non-empty so it never parks).
  const util::VmId hog = world.cluster().create_job_vm(util::JobId{99}, 4000_mb);
  ASSERT_TRUE(world.cluster().place_vm(hog, util::NodeId{0}));
  world.cluster().set_vm_state(hog, cluster::VmState::kStarting);

  power::PowerModel model = power::PowerModel::ladder(200.0, 1);
  model.park_latency_s = 0.0;
  model.wake_latency_s = 80.0;
  power::PowerOptions opts;
  opts.check_interval = util::Seconds{100.0};
  opts.min_active_nodes = 1;
  power::PowerManager mgr(engine, world, model,
                          power::make_consolidation_policy(
                              "idle-park", power::IdleParkConfig{150.0, 1.25}),
                          opts);
  mgr.start();

  engine.run_until(util::Seconds{400.0});
  ASSERT_EQ(world.cluster().nodes()[1].power_state(), PowerState::kParked);

  // A job needing 1300 MB but almost no CPU: the CPU trigger stays
  // quiet (100 × 1.25 ≪ 12000 active), only the memory path can wake.
  workload::JobSpec tiny = make_job(0, 450.0);
  tiny.max_speed = util::CpuMhz{100.0};
  world.submit_job(tiny);

  engine.run_until(util::Seconds{500.0});
  EXPECT_EQ(world.cluster().nodes()[1].power_state(), PowerState::kWaking);
  engine.run_until(util::Seconds{580.0});
  EXPECT_EQ(world.cluster().nodes()[1].power_state(), PowerState::kActive);
  // And the policy does not re-park the node out from under the blocked
  // job on the next tick (it is the only big-enough host).
  engine.run_until(util::Seconds{900.0});
  EXPECT_EQ(world.cluster().nodes()[1].power_state(), PowerState::kActive);
}

TEST(PowerManager, PowerCapForcesPStateThrottlingAndLiftsWithLoad) {
  sim::Engine engine;
  core::World world;
  world.cluster().add_nodes(4, cluster::Resources{12000_mhz, 4096_mb});

  power::PowerModel model;  // default 4-point ladder, 220 W at P0
  power::PowerOptions opts;
  opts.check_interval = util::Seconds{100.0};
  opts.cap_w = 700.0;  // 4 × 220 = 880 W > cap; 4 × 158 (P2) = 632 ≤ cap
  // Keep every node busy so parking never kicks in.
  power::PowerManager mgr(engine, world, model,
                          power::make_consolidation_policy(
                              "idle-park", power::IdleParkConfig{1.0e9, 1.25}),
                          opts);
  mgr.start();

  engine.run_until(util::Seconds{100.0});
  EXPECT_EQ(mgr.pstate(), 2);
  EXPECT_LE(mgr.current_draw_w(), 700.0);
  for (const auto& node : world.cluster().nodes()) {
    EXPECT_DOUBLE_EQ(node.speed_factor(), model.speed_at(2));
  }
  // The solver sees the throttled capacity.
  const core::PlacementProblem problem = core::build_problem_skeleton(world);
  for (const auto& n : problem.nodes) {
    EXPECT_DOUBLE_EQ(n.cpu_capacity.get(), 12000.0 * model.speed_at(2));
  }
  EXPECT_GE(mgr.stats().pstate_changes, 1);
}

// --- scenario integration ----------------------------------------------------

TEST(PowerScenario, DisabledAndEnabledIdleRunsAreBitIdentical) {
  // A power-enabled run whose policy never acts ("none") must reproduce
  // the power-disabled run exactly: manager ticks meter but never
  // mutate. This pins "power disabled == pre-power output" from the
  // other side.
  scenario::Scenario off = scenario::section3_scaled(0.2);
  off.seed = 42;
  scenario::Scenario idle = off;
  idle.power.enabled = true;
  idle.power.policy = "none";

  scenario::ExperimentOptions opt;
  opt.max_sim_time_s = 2.0e6;
  const auto r_off = scenario::run_experiment(off, opt);
  const auto r_idle = scenario::run_experiment(idle, opt);

  // Disabled runs carry no power series at all; idle runs carry a flat
  // full-power draw.
  EXPECT_EQ(r_off.series.find("power_w"), nullptr);
  ASSERT_NE(r_idle.series.find("power_w"), nullptr);
  for (const auto& p : r_idle.series.find("power_w")->points()) {
    EXPECT_DOUBLE_EQ(p.v, 5 * 220.0);
  }

  for (const char* name : {"u_star", "tx_alloc_mhz", "lr_alloc_mhz", "active_jobs",
                           "jobs_completed", "tx_utility", "lr_hyp_utility"}) {
    expect_same_series(r_off.series, r_idle.series, name);
  }
  EXPECT_EQ(r_off.summary.jobs_completed, r_idle.summary.jobs_completed);
  EXPECT_DOUBLE_EQ(r_off.summary.tx_utility.mean(), r_idle.summary.tx_utility.mean());
  EXPECT_DOUBLE_EQ(r_off.summary.job_utility.mean(), r_idle.summary.job_utility.mean());
  EXPECT_EQ(r_off.summary.sim_end_time_s, r_idle.summary.sim_end_time_s);
}

TEST(PowerScenario, FederatedDisabledAndEnabledIdleRunsAreBitIdentical) {
  auto base = scenario::section3_scaled(0.2);
  base.seed = 42;
  scenario::FederatedScenario off = scenario::federate(base, 3);
  scenario::FederatedScenario idle = off;
  idle.power.enabled = true;
  idle.power.policy = "none";

  scenario::ExperimentOptions opt;
  opt.max_sim_time_s = 2.0e6;
  const auto r_off = scenario::run_federated_experiment(off, opt);
  const auto r_idle = scenario::run_federated_experiment(idle, opt);

  EXPECT_EQ(r_off.series.find("fed_power_w"), nullptr);
  ASSERT_NE(r_idle.series.find("fed_power_w"), nullptr);
  ASSERT_NE(r_idle.series.find("power_w_dc0"), nullptr);
  ASSERT_NE(r_idle.series.find("energy_wh_dc1"), nullptr);

  for (const char* name :
       {"fed_tx_alloc_mhz", "fed_lr_alloc_mhz", "fed_jobs_running", "fed_jobs_completed"}) {
    expect_same_series(r_off.series, r_idle.series, name);
  }
  ASSERT_EQ(r_off.domains.size(), r_idle.domains.size());
  for (std::size_t d = 0; d < r_off.domains.size(); ++d) {
    for (const char* name : {"u_star", "tx_alloc_mhz", "lr_alloc_mhz", "jobs_completed"}) {
      expect_same_series(r_off.domains[d].result.series, r_idle.domains[d].result.series, name);
    }
  }
}

TEST(PowerScenario, IdenticalSeedsGiveIdenticalEnergySeries) {
  const scenario::Scenario s = diurnal_scenario("idle-park");
  scenario::ExperimentOptions opt;
  opt.validate_invariants = true;
  const auto first = scenario::run_experiment(s, opt);
  const auto second = scenario::run_experiment(s, opt);

  for (const char* name : {"power_w", "energy_wh", "power_parked_nodes", "tx_utility",
                           "jobs_completed"}) {
    expect_same_series(first.series, second.series, name);
  }
  EXPECT_EQ(first.summary.invariant_violations, 0);
}

TEST(PowerScenario, ParkedEnergyStrictlyBelowAlwaysOnWithSlaHeld) {
  // The acceptance pin: idle-park spends strictly less energy than the
  // always-on baseline while the SLA outcome stays within tolerance.
  scenario::ExperimentOptions opt;
  opt.validate_invariants = true;
  const auto always_on = scenario::run_experiment(diurnal_scenario("none"), opt);
  const auto parked = scenario::run_experiment(diurnal_scenario("idle-park"), opt);

  const double base_wh = always_on.series.find("energy_wh")->points().back().v;
  const double green_wh = parked.series.find("energy_wh")->points().back().v;
  EXPECT_LT(green_wh, base_wh);
  EXPECT_GT(base_wh, 0.0);

  // Nodes actually parked overnight.
  const auto* parked_series = parked.series.find("power_parked_nodes");
  ASSERT_NE(parked_series, nullptr);
  double max_parked = 0.0;
  for (const auto& p : parked_series->points()) max_parked = std::max(max_parked, p.v);
  EXPECT_GE(max_parked, 1.0);

  // SLA within tolerance: every job still completes and the mean
  // transactional utility moves by < 0.05.
  EXPECT_EQ(parked.summary.jobs_completed, always_on.summary.jobs_completed);
  EXPECT_NEAR(parked.summary.tx_utility.mean(), always_on.summary.tx_utility.mean(), 0.05);
  EXPECT_EQ(parked.summary.invariant_violations, 0);
}

TEST(PowerScenario, DomainStatusHidesParkedCapacity) {
  sim::Engine engine;
  federation::Federation fed(engine, federation::make_router("least-loaded"));
  auto& d0 = fed.add_domain("d0", std::make_unique<core::UtilityDrivenPolicy>(
                                      std::make_shared<utility::JobUtilityModel>(),
                                      std::make_shared<utility::TxUtilityModel>()));
  d0.world().cluster().add_nodes(2, cluster::Resources{12000_mhz, 4096_mb});

  // Parked capacity is invisible to routers: capacity stays raw, but
  // effective drops to the placeable share so a consolidated domain does
  // not masquerade as headroom.
  EXPECT_DOUBLE_EQ(fed.status(0_s)[0].effective.get(), 24000.0);
  d0.world().cluster().set_power_state(util::NodeId{1}, PowerState::kParked);
  EXPECT_DOUBLE_EQ(fed.status(0_s)[0].capacity.get(), 24000.0);
  EXPECT_DOUBLE_EQ(fed.status(0_s)[0].effective.get(), 12000.0);
}

// --- config loader -----------------------------------------------------------

TEST(PowerConfig, KeysRoundTripThroughLoader) {
  util::Config cfg;
  cfg.set("power.enabled", "true");
  cfg.set("power.policy", "idle-park");
  cfg.set("power.idle_timeout_s", "900");
  cfg.set("power.headroom_factor", "1.5");
  cfg.set("power.min_active_nodes", "2");
  cfg.set("power.cap_w", "4000");
  cfg.set("power.park_state", "off");
  cfg.set("power.active_w", "300");
  cfg.set("power.standby_w", "12");
  cfg.set("power.park_latency_s", "20");
  cfg.set("power.wake_latency_s", "90");
  cfg.set("power.pstates", "3");
  const scenario::Scenario s = scenario::scenario_from_config(cfg);
  EXPECT_TRUE(s.power.enabled);
  EXPECT_EQ(s.power.policy, "idle-park");
  EXPECT_DOUBLE_EQ(s.power.idle_timeout_s, 900.0);
  EXPECT_DOUBLE_EQ(s.power.headroom_factor, 1.5);
  EXPECT_EQ(s.power.min_active_nodes, 2);
  EXPECT_DOUBLE_EQ(s.power.cap_w, 4000.0);
  EXPECT_EQ(s.power.park_state, "off");
  EXPECT_DOUBLE_EQ(s.power.active_w, 300.0);
  EXPECT_DOUBLE_EQ(s.power.wake_latency_s, 90.0);
  EXPECT_EQ(s.power.pstates, 3);

  // Same keys flow into the federated loader, plus per-domain caps.
  cfg.set("domains", "2");
  cfg.set("domain.1.power_cap_w", "1500");
  const scenario::FederatedScenario fs = scenario::federated_scenario_from_config(cfg);
  EXPECT_TRUE(fs.power.enabled);
  EXPECT_DOUBLE_EQ(fs.power.active_w, 300.0);
  EXPECT_DOUBLE_EQ(fs.domains[0].power_cap_w, -1.0);  // inherit
  EXPECT_DOUBLE_EQ(fs.domains[1].power_cap_w, 1500.0);
}

TEST(PowerConfig, RejectsInvalidValues) {
  auto reject = [](const std::string& key, const std::string& value) {
    util::Config cfg;
    cfg.set(key, value);
    EXPECT_THROW(scenario::scenario_from_config(cfg), util::ConfigError)
        << key << " = " << value;
  };
  reject("power.policy", "teleport");
  reject("power.park_state", "hibernate");
  reject("power.headroom_factor", "0.5");
  reject("power.cap_w", "-100");
  reject("power.active_w", "0");
  reject("power.pstates", "9");
  reject("power.wake_latency_s", "-5");
  reject("power.min_active_nodes", "-1");
  reject("power.standby_w", "-2");

  util::Config cfg;
  cfg.set("power.unknown_knob", "1");
  EXPECT_THROW(scenario::scenario_from_config(cfg), util::ConfigError);
}
