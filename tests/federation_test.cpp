// Federation tests: the 1-domain equivalence pin (a federated run must
// reproduce the single-World trajectories exactly), the 3-domain
// integration behaviour (routing coverage, staggered cycles, aggregated
// metrics), and the router policies.

#include "federation/federation.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/utility_policy.hpp"
#include "faults/injector.hpp"
#include "migration/manager.hpp"
#include "power/manager.hpp"
#include "scenario/class_factory.hpp"
#include "scenario/experiment.hpp"
#include "scenario/fault_factory.hpp"
#include "scenario/federation_experiment.hpp"
#include "scenario/power_factory.hpp"
#include "utility/utility_fn.hpp"
#include "workload/arrival.hpp"
#include "workload/job_factory.hpp"

using namespace heteroplace;
using namespace heteroplace::util::literals;

namespace {

scenario::Scenario mid_scenario() {
  auto s = scenario::section3_scaled(0.2);  // 5 nodes, 160 jobs
  s.seed = 42;
  return s;
}

std::unique_ptr<core::UtilityDrivenPolicy> make_policy() {
  return std::make_unique<core::UtilityDrivenPolicy>(
      std::make_shared<utility::JobUtilityModel>(), std::make_shared<utility::TxUtilityModel>());
}

workload::JobSpec make_job(unsigned id, double submit = 0.0) {
  workload::JobSpec s;
  s.id = util::JobId{id};
  s.work = util::MhzSeconds{3.0e6};
  s.max_speed = 3000_mhz;
  s.memory = 1300_mb;
  s.submit_time = util::Seconds{submit};
  s.completion_goal = util::Seconds{4000.0};
  return s;
}

workload::TxAppSpec make_app_spec(unsigned id) {
  workload::TxAppSpec spec;
  spec.id = util::AppId{id};
  spec.name = "app" + std::to_string(id);
  spec.rt_goal = util::Seconds{1.2};
  spec.service_demand = 5000.0;
  spec.instance_memory = 1024_mb;
  spec.max_instances = 8;
  spec.max_cpu_per_instance = 12000_mhz;
  return spec;
}

void require_same_series(const util::TimeSeriesSet& a, const util::TimeSeriesSet& b,
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

// --- equivalence pin --------------------------------------------------------

// A 1-domain federation must reproduce the single-World experiment's
// trajectories exactly: identical per-cycle diagnostics, identical action
// counts, identical sampled utilities.
TEST(FederationEquivalence, OneDomainReproducesSingleWorldRunExactly) {
  scenario::ExperimentOptions opt;
  opt.validate_invariants = true;

  const scenario::ExperimentResult single = scenario::run_experiment(mid_scenario(), opt);
  const scenario::FederatedResult fed =
      scenario::run_federated_experiment(scenario::federate(mid_scenario(), 1), opt);

  ASSERT_EQ(fed.domains.size(), 1u);
  const scenario::ExperimentSummary& fs = fed.domains[0].result.summary;
  const scenario::ExperimentSummary& ss = single.summary;

  EXPECT_EQ(fs.jobs_submitted, ss.jobs_submitted);
  EXPECT_EQ(fs.jobs_completed, ss.jobs_completed);
  EXPECT_EQ(fs.cycles, ss.cycles);
  EXPECT_EQ(fs.invariant_violations, 0);
  EXPECT_DOUBLE_EQ(fs.sim_end_time_s, ss.sim_end_time_s);
  EXPECT_DOUBLE_EQ(fs.goal_met_fraction, ss.goal_met_fraction);
  EXPECT_DOUBLE_EQ(fs.tx_utility.mean(), ss.tx_utility.mean());
  EXPECT_DOUBLE_EQ(fs.lr_utility.mean(), ss.lr_utility.mean());
  EXPECT_DOUBLE_EQ(fs.equalization_gap.mean(), ss.equalization_gap.mean());
  EXPECT_DOUBLE_EQ(fs.job_utility.mean(), ss.job_utility.mean());
  EXPECT_DOUBLE_EQ(fs.completion_ratio.mean(), ss.completion_ratio.mean());
  EXPECT_EQ(fs.actions.starts, ss.actions.starts);
  EXPECT_EQ(fs.actions.suspends, ss.actions.suspends);
  EXPECT_EQ(fs.actions.resumes, ss.actions.resumes);
  EXPECT_EQ(fs.actions.migrations, ss.actions.migrations);
  EXPECT_EQ(fs.actions.instance_starts, ss.actions.instance_starts);
  EXPECT_EQ(fs.actions.instance_stops, ss.actions.instance_stops);
  EXPECT_EQ(fs.actions.resizes, ss.actions.resizes);

  // Every per-cycle and per-sample series must match point for point.
  for (const char* name :
       {"u_star", "lr_hyp_utility", "utility_gap", "tx_utility", "tx_alloc_mhz",
        "lr_alloc_mhz", "tx_demand_mhz", "lr_demand_mhz", "active_jobs", "jobs_waiting",
        "suspends", "migrations", "jobs_completed"}) {
    require_same_series(fed.domains[0].result.series, single.series, name);
  }

  // The merged federation summary of one domain is that domain's summary.
  EXPECT_EQ(fed.summary.jobs_completed, fs.jobs_completed);
  EXPECT_DOUBLE_EQ(fed.summary.tx_utility.mean(), fs.tx_utility.mean());
}

// federate() copies the whole scenario, SLOs included, so a sharded SLO
// run keeps its alerts.
TEST(FederationEquivalence, FederateKeepsSlos) {
  auto s = mid_scenario();
  s.slos.push_back({"web", 0.9, 7200.0, 1200.0, 1.0});
  s.slos.push_back({"jobs", 0.5, 14400.0, 3600.0, 1.5});
  const scenario::Scenario fs = scenario::federate(s, 3);
  ASSERT_EQ(fs.slos.size(), s.slos.size());
  for (std::size_t i = 0; i < s.slos.size(); ++i) {
    EXPECT_EQ(fs.slos[i].app, s.slos[i].app);
    EXPECT_DOUBLE_EQ(fs.slos[i].target, s.slos[i].target);
    EXPECT_DOUBLE_EQ(fs.slos[i].long_window_s, s.slos[i].long_window_s);
    EXPECT_DOUBLE_EQ(fs.slos[i].short_window_s, s.slos[i].short_window_s);
    EXPECT_DOUBLE_EQ(fs.slos[i].burn_threshold, s.slos[i].burn_threshold);
  }
}

// --- multi-domain integration ------------------------------------------------

namespace {

const scenario::FederatedResult& three_domain_run() {
  static const scenario::FederatedResult r = [] {
    // Skewed load: 3 unequal domains (the federate() split of 5 nodes is
    // 2/2/1) under the mid-scenario's crowding job stream.
    scenario::Scenario fs = scenario::federate(mid_scenario(), 3);
    scenario::ExperimentOptions opt;
    opt.validate_invariants = true;
    opt.max_sim_time_s = 2.0e6;
    return scenario::run_federated_experiment(fs, opt);
  }();
  return r;
}

}  // namespace

TEST(FederationIntegration, EveryJobRoutedToExactlyOneDomain) {
  const auto& r = three_domain_run();
  ASSERT_EQ(r.domains.size(), 3u);
  long routed = 0;
  long submitted = 0;
  for (const auto& d : r.domains) {
    routed += d.jobs_routed;
    submitted += d.result.summary.jobs_submitted;
    EXPECT_EQ(d.jobs_routed, d.result.summary.jobs_submitted) << d.name;
    EXPECT_GT(d.jobs_routed, 0) << d.name << ": router starved a domain";
  }
  EXPECT_EQ(routed, 160);
  EXPECT_EQ(submitted, 160);
  EXPECT_EQ(r.summary.jobs_submitted, 160);
  EXPECT_EQ(r.summary.jobs_completed, 160);
  EXPECT_EQ(r.summary.invariant_violations, 0);
}

TEST(FederationIntegration, EveryAppDemandSplitAcrossDomainsSumsToWhole) {
  // Each domain sees the app with a scaled trace; the scales sum to 1, so
  // the per-domain demand-curve series must sum to the single-cluster
  // demand at every cycle the domains agree on... instead of comparing
  // cycles (they are staggered), check the registered traces directly.
  sim::Engine engine;
  federation::Federation fed(engine, federation::make_router("least-loaded"));
  for (int i = 0; i < 3; ++i) {
    auto& d = fed.add_domain("d" + std::to_string(i), make_policy());
    d.world().cluster().add_nodes(i + 1, cluster::Resources{12000_mhz, 4096_mb});
  }
  workload::DemandTrace trace;
  trace.add(util::Seconds{0.0}, 12.0);
  trace.add(util::Seconds{100.0}, 24.0);
  fed.add_app(make_app_spec(0), trace);

  for (double t : {0.0, 50.0, 100.0, 500.0}) {
    double total = 0.0;
    for (std::size_t i = 0; i < 3; ++i) {
      total += fed.domain(i).world().app(util::AppId{0}).arrival_rate(util::Seconds{t});
    }
    EXPECT_NEAR(total, trace.rate_at(util::Seconds{t}), 1e-12) << "t=" << t;
  }
  // Capacity-proportional split: domain 2 (3 nodes) gets 3× domain 0's.
  const double r0 = fed.domain(0).world().app(util::AppId{0}).arrival_rate(0_s);
  const double r2 = fed.domain(2).world().app(util::AppId{0}).arrival_rate(0_s);
  EXPECT_NEAR(r2, 3.0 * r0, 1e-12);
}

TEST(FederationIntegration, ControllersRunOnStaggeredCycles) {
  const auto& r = three_domain_run();
  // Domain i's first control cycle fires at i × cycle / 3; the "active_jobs"
  // series is recorded once per cycle, so its first timestamps expose the
  // phase offsets.
  const double cycle = mid_scenario().controller.cycle_s;
  std::set<double> first_cycle_times;
  for (std::size_t i = 0; i < r.domains.size(); ++i) {
    const auto* per_cycle = r.domains[i].result.series.find("active_jobs");
    ASSERT_NE(per_cycle, nullptr);
    ASSERT_FALSE(per_cycle->empty());
    const double first = per_cycle->points().front().t;
    EXPECT_DOUBLE_EQ(first, static_cast<double>(i) * cycle / 3.0) << "domain " << i;
    first_cycle_times.insert(first);
    // And the cadence stays at the configured period.
    if (per_cycle->size() >= 2) {
      EXPECT_DOUBLE_EQ(per_cycle->points()[1].t - per_cycle->points()[0].t, cycle);
    }
  }
  EXPECT_EQ(first_cycle_times.size(), 3u) << "domains fired in lockstep";
}

TEST(FederationIntegration, AggregatedMetricsEqualSumOfDomains) {
  const auto& r = three_domain_run();
  // Summary counters are sums of the per-domain summaries.
  long jobs = 0;
  long cycles = 0;
  long starts = 0;
  long suspends = 0;
  std::size_t tx_samples = 0;
  for (const auto& d : r.domains) {
    jobs += d.result.summary.jobs_completed;
    cycles += d.result.summary.cycles;
    starts += d.result.summary.actions.starts;
    suspends += d.result.summary.actions.suspends;
    tx_samples += d.result.summary.tx_utility.count();
  }
  EXPECT_EQ(r.summary.jobs_completed, jobs);
  EXPECT_EQ(r.summary.cycles, cycles);
  EXPECT_EQ(r.summary.actions.starts, starts);
  EXPECT_EQ(r.summary.actions.suspends, suspends);
  EXPECT_EQ(r.summary.tx_utility.count(), tx_samples);

  // The fed_* sampled series equal the sum of the per-domain sampled
  // series at every shared sample instant.
  const auto* fed_tx = r.series.find("fed_tx_alloc_mhz");
  const auto* fed_lr = r.series.find("fed_lr_alloc_mhz");
  ASSERT_NE(fed_tx, nullptr);
  ASSERT_NE(fed_lr, nullptr);
  for (const auto& point : fed_tx->points()) {
    double expected = 0.0;
    for (const auto& d : r.domains) {
      const auto* s = d.result.series.find("tx_alloc_mhz");
      ASSERT_NE(s, nullptr);
      expected += s->value_at(point.t);
    }
    EXPECT_NEAR(point.v, expected, 1e-9) << "t=" << point.t;
  }
  for (const auto& point : fed_lr->points()) {
    double expected = 0.0;
    for (const auto& d : r.domains) {
      const auto* s = d.result.series.find("lr_alloc_mhz");
      ASSERT_NE(s, nullptr);
      expected += s->value_at(point.t);
    }
    EXPECT_NEAR(point.v, expected, 1e-9) << "t=" << point.t;
  }
}

// --- federation core ---------------------------------------------------------

TEST(Federation, RoutesJobsUniquelyAndRemembersOwnership) {
  sim::Engine engine;
  federation::Federation fed(engine, federation::make_router("capacity-weighted"));
  for (int i = 0; i < 3; ++i) {
    auto& d = fed.add_domain("d" + std::to_string(i), make_policy());
    d.world().cluster().add_nodes(2, cluster::Resources{12000_mhz, 4096_mb});
  }
  for (unsigned id = 0; id < 12; ++id) fed.submit_job(make_job(id));

  EXPECT_EQ(fed.total_submitted(), 12u);
  for (unsigned id = 0; id < 12; ++id) {
    ASSERT_TRUE(fed.job_routed(util::JobId{id}));
    const std::size_t owner = fed.job_domain(util::JobId{id});
    // The job exists in its owner domain and nowhere else.
    for (std::size_t d = 0; d < fed.domain_count(); ++d) {
      EXPECT_EQ(fed.domain(d).world().job_exists(util::JobId{id}), d == owner);
    }
  }
  // Equal capacity ⇒ the weighted round-robin spreads jobs evenly.
  const auto counts = fed.jobs_per_domain();
  for (long c : counts) EXPECT_EQ(c, 4);
  EXPECT_THROW(fed.submit_job(make_job(0)), std::invalid_argument);
}

TEST(Federation, BrownoutReroutesJobsAndResplitsDemand) {
  sim::Engine engine;
  federation::Federation fed(engine, federation::make_router("least-loaded"));
  for (int i = 0; i < 2; ++i) {
    auto& d = fed.add_domain("d" + std::to_string(i), make_policy());
    d.world().cluster().add_nodes(2, cluster::Resources{12000_mhz, 4096_mb});
  }
  fed.add_app(make_app_spec(0), workload::DemandTrace{10.0});
  EXPECT_DOUBLE_EQ(fed.domain(0).world().app(util::AppId{0}).arrival_rate(0_s), 5.0);

  fed.set_domain_weight(0, 0.0);  // drain domain 0
  EXPECT_DOUBLE_EQ(fed.domain(0).world().app(util::AppId{0}).arrival_rate(0_s), 0.0);
  EXPECT_DOUBLE_EQ(fed.domain(1).world().app(util::AppId{0}).arrival_rate(0_s), 10.0);
  for (unsigned id = 0; id < 4; ++id) fed.submit_job(make_job(id));
  EXPECT_EQ(fed.jobs_per_domain()[0], 0);
  EXPECT_EQ(fed.jobs_per_domain()[1], 4);

  fed.set_domain_weight(0, 1.0);  // recover: demand re-splits evenly
  EXPECT_DOUBLE_EQ(fed.domain(0).world().app(util::AppId{0}).arrival_rate(0_s), 5.0);
}

TEST(Federation, LifecycleMisuseThrows) {
  sim::Engine engine;
  federation::Federation fed(engine, federation::make_router("least-loaded"));
  EXPECT_THROW(fed.submit_job(make_job(0)), std::logic_error);
  EXPECT_THROW(fed.add_app(make_app_spec(0), workload::DemandTrace{1.0}), std::logic_error);
  auto& d = fed.add_domain("d0", make_policy());
  d.world().cluster().add_nodes(1, cluster::Resources{12000_mhz, 4096_mb});
  fed.add_app(make_app_spec(0), workload::DemandTrace{1.0});
  EXPECT_THROW(fed.add_domain("late", make_policy()), std::logic_error);
  EXPECT_THROW(fed.set_domain_weight(0, 1.5), std::invalid_argument);
  fed.start();
  EXPECT_THROW(fed.start(), std::logic_error);
}

// --- routers -----------------------------------------------------------------

namespace {

std::vector<federation::DomainStatus> make_status(const std::vector<double>& capacities,
                                                  const std::vector<double>& loads) {
  std::vector<federation::DomainStatus> out;
  for (std::size_t i = 0; i < capacities.size(); ++i) {
    federation::DomainStatus s;
    s.index = i;
    s.capacity = util::CpuMhz{capacities[i]};
    s.effective = util::CpuMhz{capacities[i]};
    s.offered_load = util::CpuMhz{loads[i]};
    s.load_ratio = loads[i] / capacities[i];
    out.push_back(s);
  }
  return out;
}

}  // namespace

TEST(Routers, LeastLoadedPicksLowestRelativeLoad) {
  federation::LeastLoadedRouter router;
  // Domain 1 has more absolute load but more headroom relative to size.
  const auto status = make_status({10000.0, 40000.0}, {8000.0, 16000.0});
  EXPECT_EQ(router.route_job(make_job(0), status), 1u);
  const auto shares = router.demand_shares(make_app_spec(0), status);
  EXPECT_NEAR(shares[0], 0.2, 1e-12);
  EXPECT_NEAR(shares[1], 0.8, 1e-12);
}

TEST(Routers, LeastLoadedSkipsDrainedDomains) {
  federation::LeastLoadedRouter router;
  auto status = make_status({10000.0, 10000.0}, {0.0, 5000.0});
  status[0].effective = util::CpuMhz{0.0};  // drained
  EXPECT_EQ(router.route_job(make_job(0), status), 1u);
}

TEST(Routers, CapacityWeightedConvergesToWeights) {
  federation::CapacityWeightedRouter router;
  const auto status = make_status({30000.0, 10000.0}, {0.0, 0.0});
  std::vector<int> counts(2, 0);
  for (unsigned i = 0; i < 400; ++i) ++counts[router.route_job(make_job(i), status)];
  EXPECT_EQ(counts[0], 300);  // exactly 3:1 over any aligned window
  EXPECT_EQ(counts[1], 100);
}

TEST(Routers, CapacityWeightedForfeitsStaleCreditOnDrain) {
  // Regression: accumulated round-robin entitlement must not route jobs
  // to a domain after it is drained.
  federation::CapacityWeightedRouter router;
  auto status = make_status({10000.0, 10000.0, 10000.0}, {0.0, 0.0, 0.0});
  for (unsigned i = 0; i < 2; ++i) (void)router.route_job(make_job(i), status);
  status[2].effective = util::CpuMhz{0.0};  // drain the credit-rich domain
  for (unsigned i = 2; i < 20; ++i) {
    EXPECT_NE(router.route_job(make_job(i), status), 2u) << "job " << i;
  }
  status[2].effective = util::CpuMhz{10000.0};  // recovery: back in rotation
  std::set<std::size_t> seen;
  for (unsigned i = 20; i < 26; ++i) seen.insert(router.route_job(make_job(i), status));
  EXPECT_TRUE(seen.count(2));
}

TEST(FederationIntegration, ExplicitZeroPhaseOffsetIsHonored) {
  // first_cycle_at_s = 0 is an explicit phase request, not "unset": the
  // domain must fire at t=0 in phase with domain 0 instead of being
  // auto-staggered.
  scenario::Scenario fs = scenario::federate(mid_scenario(), 3);
  fs.domains[1].first_cycle_at_s = 0.0;
  scenario::ExperimentOptions opt;
  opt.horizon_override_s = 5000.0;
  const auto r = scenario::run_federated_experiment(fs, opt);
  const double cycle = mid_scenario().controller.cycle_s;
  const std::vector<double> expected_first{0.0, 0.0, 2.0 * cycle / 3.0};
  for (std::size_t i = 0; i < 3; ++i) {
    const auto* per_cycle = r.domains[i].result.series.find("active_jobs");
    ASSERT_NE(per_cycle, nullptr);
    ASSERT_FALSE(per_cycle->empty());
    EXPECT_DOUBLE_EQ(per_cycle->points().front().t, expected_first[i]) << "domain " << i;
  }
}

TEST(Routers, StickyIsStableAndRespectsDrains) {
  federation::StickyRouter router;
  const auto status = make_status({10000.0, 10000.0, 10000.0}, {0.0, 0.0, 0.0});
  for (unsigned id = 0; id < 32; ++id) {
    const auto a = router.route_job(make_job(id), status);
    const auto b = router.route_job(make_job(id), status);
    EXPECT_EQ(a, b) << "routing not stable for job " << id;
  }
  // All of an app's demand lands on one home domain.
  const auto shares = router.demand_shares(make_app_spec(4), status);
  EXPECT_DOUBLE_EQ(shares[0] + shares[1] + shares[2], 1.0);
  EXPECT_DOUBLE_EQ(*std::max_element(shares.begin(), shares.end()), 1.0);
  // Draining the home domain moves the demand, deterministically.
  auto drained = status;
  drained[1].effective = util::CpuMhz{0.0};
  const auto shares2 = router.demand_shares(make_app_spec(1), drained);
  EXPECT_DOUBLE_EQ(shares2[1], 0.0);
  EXPECT_DOUBLE_EQ(shares2[2], 1.0);  // linear probe to the next healthy
}

TEST(Routers, FactoryRejectsUnknownNames) {
  EXPECT_THROW(federation::make_router("round-robin-2000"), std::invalid_argument);
  EXPECT_EQ(federation::make_router("sticky")->name(), "sticky");
}

// --- drain + re-route regression ---------------------------------------------

// Regression for the sticky-affinity drain interplay: once a drained
// (weight-0) domain's jobs are migrated away, it must receive no further
// sticky hits — not from new arrivals (the router probes past it), not
// from the migration manager (evacuees must never bounce back) — until
// it recovers, after which sticky homes flow there again.
TEST(FederationIntegration, DrainedStickyDomainHostsNothingUntilRecovery) {
  auto base = scenario::section3_scaled(0.2);
  base.seed = 42;
  scenario::Scenario fs = scenario::federate(base, 3, "sticky");
  fs.weight_events.push_back({1, 12000.0, 0.0});
  fs.weight_events.push_back({1, 30000.0, 1.0});
  fs.migration.enabled = true;
  fs.migration.policy = "drain";
  fs.migration.check_interval_s = 120.0;

  scenario::ExperimentOptions opt;
  opt.validate_invariants = true;
  opt.max_sim_time_s = 2.0e6;
  const auto r = scenario::run_federated_experiment(fs, opt);

  EXPECT_EQ(r.summary.jobs_completed, 160);
  EXPECT_EQ(r.summary.invariant_violations, 0);
  EXPECT_GT(r.migration.started, 0);
  EXPECT_EQ(r.migration.started, r.migration.completed);

  // Inside the drain window (allowing the evacuation a couple of
  // manager ticks), the drained domain hosts nothing at all.
  const auto* running = r.domains[1].result.series.find("jobs_running");
  const auto* active = r.domains[1].result.series.find("active_jobs");
  ASSERT_NE(running, nullptr);
  ASSERT_NE(active, nullptr);
  for (const auto& p : running->points()) {
    if (p.t >= 14400.0 && p.t < 30000.0) {
      EXPECT_EQ(p.v, 0.0) << "sticky hit on a drained domain at t=" << p.t;
    }
  }
  for (const auto& p : active->points()) {
    if (p.t >= 14400.0 && p.t < 30000.0) {
      EXPECT_EQ(p.v, 0.0) << "job stuck in a drained domain at t=" << p.t;
    }
  }

  // After recovery the domain's sticky homes route there again.
  bool hosted_after_recovery = false;
  for (const auto& p : running->points()) {
    if (p.t > 30600.0 && p.v > 0.0) hosted_after_recovery = true;
  }
  EXPECT_TRUE(hosted_after_recovery) << "recovered domain never received work again";
}

// --- routing snapshot caches ---------------------------------------------------
//
// Federation::status answers each domain in O(1): the tx part of
// Domain::offered_cpu_load is cached between trace breakpoints and job
// routing reuses one snapshot buffer. These pin the cached answers bit
// for bit against the from-scratch reference.

namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Records what the router saw on the last route_job call.
class RecordingRouter final : public federation::DomainRouter {
 public:
  std::vector<double> weight;
  std::vector<std::size_t> active;

  std::size_t route_job(const workload::JobSpec&,
                        const std::vector<federation::DomainStatus>& domains) override {
    weight.clear();
    active.clear();
    for (const auto& d : domains) {
      weight.push_back(d.weight);
      active.push_back(d.active_jobs);
    }
    return 0;
  }
  std::vector<double> demand_shares(const workload::TxAppSpec&,
                                    const std::vector<federation::DomainStatus>& domains) override {
    return std::vector<double>(domains.size(), 1.0);
  }
  std::string name() const override { return "recording"; }
};

}  // namespace

TEST(FederationStatusCache, OfferedLoadMatchesRecomputeAroundBreakpointsAndResplits) {
  sim::Engine engine;
  federation::Federation fed(engine, federation::make_router("least-loaded"));
  for (int i = 0; i < 3; ++i) {
    auto& d = fed.add_domain("d" + std::to_string(i), make_policy());
    d.world().cluster().add_nodes(2 + i, cluster::Resources{util::CpuMhz{12000.7}, 4096_mb});
  }
  // Breakpoints shared (t=100) and staggered, with rates whose split
  // products round, so a stale or reordered sum would show.
  workload::DemandTrace t0;
  t0.add(0_s, 3.3);
  t0.add(util::Seconds{100.0}, 7.1);
  t0.add(util::Seconds{250.0}, 1.9);
  workload::DemandTrace t1;
  t1.add(util::Seconds{50.0}, 4.4);
  t1.add(util::Seconds{100.0}, 0.7);
  t1.add(util::Seconds{300.0}, 5.5);
  fed.add_app(make_app_spec(0), t0);
  fed.add_app(make_app_spec(1), t1);
  for (unsigned id = 0; id < 9; ++id) {
    workload::JobSpec job = make_job(id);
    job.max_speed = util::CpuMhz{1000.0 + 333.3 * id};
    fed.submit_job(job);
  }

  const auto check = [&](double t, const std::string& what) {
    for (std::size_t d = 0; d < fed.domain_count(); ++d) {
      const util::Seconds now{t};
      EXPECT_EQ(bits(fed.domain(d).offered_cpu_load(now).get()),
                bits(fed.domain(d).offered_cpu_load_recomputed(now).get()))
          << what << " (t=" << t << ") domain " << d;
    }
  };
  const auto before = [](double b) { return std::nextafter(b, -1e300); };
  const auto after = [](double b) { return std::nextafter(b, 1e300); };

  check(10.0, "before the first breakpoint of app 1");
  check(60.0, "between breakpoints");
  check(before(100.0), "just before a shared breakpoint");
  check(100.0, "on a shared breakpoint");
  check(after(100.0), "just after a shared breakpoint");
  check(before(100.0), "back before the breakpoint");
  check(100.0, "on the breakpoint again");
  check(before(250.0), "just before a staggered breakpoint");
  check(250.0, "on a staggered breakpoint");
  check(after(300.0), "past the last breakpoint");
  check(1e9, "far past the last breakpoint");

  // A weight change re-splits demand at the same query time: the cached
  // loads must not survive it.
  const double pre_weight = fed.domain(1).offered_cpu_load(120_s).get();
  fed.set_domain_weight(1, 0.4);
  EXPECT_NE(fed.domain(1).offered_cpu_load(120_s).get(), pre_weight);
  check(120.0, "after set_domain_weight");

  // A node crash re-splits demand without a weight change (what
  // FaultInjector::crash_node does).
  const double pre_crash = fed.domain(2).offered_cpu_load(120_s).get();
  fed.domain(2).world().cluster().set_power_state(util::NodeId{0}, cluster::PowerState::kFailed);
  fed.resplit_demand();
  EXPECT_NE(fed.domain(2).offered_cpu_load(120_s).get(), pre_crash);
  check(120.0, "after a fault resplit");
  check(after(250.0), "after a fault resplit, next window");
}

TEST(FederationStatusCache, ReusedRoutingSnapshotRewritesEveryField) {
  sim::Engine engine;
  auto router = std::make_unique<RecordingRouter>();
  RecordingRouter* rec = router.get();
  federation::Federation fed(engine, std::move(router));
  for (int i = 0; i < 3; ++i) {
    auto& d = fed.add_domain("d" + std::to_string(i), make_policy());
    d.world().cluster().add_nodes(1, cluster::Resources{12000_mhz, 4096_mb});
  }
  fed.set_domain_weight(1, 0.5);
  fed.submit_job(make_job(0));
  EXPECT_EQ(rec->weight, (std::vector<double>{1.0, 0.5, 1.0}));
  EXPECT_EQ(rec->active, (std::vector<std::size_t>{0, 0, 0}));

  // The next route must see the new weight and count in the reused
  // buffer, not the last call's answers.
  fed.set_domain_weight(1, 1.0);
  fed.submit_job(make_job(1));
  EXPECT_EQ(rec->weight, (std::vector<double>{1.0, 1.0, 1.0}));
  EXPECT_EQ(rec->active, (std::vector<std::size_t>{1, 0, 0}));
}

// --- routing table differential ------------------------------------------------
//
// The persistent routing table refreshes only the domains whose change
// counter moved or whose tx window closed. These runs drive every source
// of status change — idle-park power with cap throttling, node crashes
// and recoveries, a domain blackout, drain and brownout weight events,
// drain and rebalance migrations, tx trace breakpoints, explicit machine
// classes — and check, at every arrival, the table the router is handed
// against a fresh fill_status, and the pick against the reference.

namespace {

/// Name of the first field where `got` differs from `want` (doubles bit
/// for bit); empty when they agree.
std::string first_difference(const federation::DomainStatus& got,
                             const federation::DomainStatus& want) {
  if (got.index != want.index) return "index";
  if (bits(got.weight) != bits(want.weight)) return "weight";
  if (bits(got.capacity.get()) != bits(want.capacity.get())) return "capacity";
  if (bits(got.effective.get()) != bits(want.effective.get())) return "effective";
  if (bits(got.offered_load.get()) != bits(want.offered_load.get())) return "offered_load";
  if (bits(got.load_ratio) != bits(want.load_ratio)) return "load_ratio";
  if (got.active_jobs != want.active_jobs) return "active_jobs";
  if (got.classes.size() != want.classes.size()) return "classes";
  for (std::size_t c = 0; c < got.classes.size(); ++c) {
    const cluster::MachineClass& a = got.classes[c];
    const cluster::MachineClass& b = want.classes[c];
    if (a.name != b.name || a.arch != b.arch || a.cores != b.cores ||
        bits(a.core_mhz) != bits(b.core_mhz) || bits(a.mem_mb) != bits(b.mem_mb) ||
        bits(a.speed_factor) != bits(b.speed_factor) || a.accel != b.accel) {
      return "classes[" + std::to_string(c) + "]";
    }
  }
  if (got.class_headroom.size() != want.class_headroom.size()) return "class_headroom";
  for (std::size_t c = 0; c < got.class_headroom.size(); ++c) {
    if (bits(got.class_headroom[c].get()) != bits(want.class_headroom[c].get())) {
      return "class_headroom[" + std::to_string(c) + "]";
    }
  }
  return "";
}

/// Routes with a real router and checks every route_job call: the table
/// against a fresh fill, the pick against the reference scan (least-
/// loaded) or a second instance of the same router fed the fresh fill.
class CheckingRouter final : public federation::DomainRouter {
 public:
  explicit CheckingRouter(const std::string& name)
      : inner_(federation::make_router(name)),
        shadow_(federation::make_router(name)),
        least_loaded_(name == "least-loaded") {}

  federation::Federation* fed{nullptr};
  long routes{0};
  long constrained{0};
  long mismatches{0};
  std::string first_mismatch;

  std::size_t route_job(const workload::JobSpec& spec,
                        const std::vector<federation::DomainStatus>& table) override {
    const double now = fed->engine().now().get();
    std::vector<federation::DomainStatus> fresh;
    fed->fill_status(fed->engine().now(), fresh);
    ++routes;
    if (!spec.constraint.empty()) ++constrained;
    if (table.size() != fresh.size()) note("t=" + std::to_string(now) + " table size");
    for (std::size_t i = 0; i < table.size() && i < fresh.size(); ++i) {
      const std::string field = first_difference(table[i], fresh[i]);
      if (!field.empty()) {
        note("t=" + std::to_string(now) + " job " + std::to_string(spec.id.get()) + " domain " +
             std::to_string(i) + " field " + field);
      }
    }
    const std::size_t got = inner_->route_job(spec, table);
    const std::size_t want = least_loaded_
                                 ? federation::LeastLoadedRouter::reference_route(spec, fresh)
                                 : shadow_->route_job(spec, fresh);
    if (got != want) {
      note("t=" + std::to_string(now) + " job " + std::to_string(spec.id.get()) + " routed to " +
           std::to_string(got) + ", reference " + std::to_string(want));
    }
    return got;
  }
  std::vector<double> demand_shares(const workload::TxAppSpec& app,
                                    const std::vector<federation::DomainStatus>& table) override {
    return inner_->demand_shares(app, table);
  }
  std::string name() const override { return inner_->name(); }

 private:
  void note(const std::string& what) {
    if (mismatches++ == 0) first_mismatch = what;
  }

  std::unique_ptr<federation::DomainRouter> inner_;
  std::unique_ptr<federation::DomainRouter> shadow_;
  bool least_loaded_;
};

cluster::MachineClass pool_class(const std::string& name, const std::string& arch,
                                 double core_mhz, double speed_factor) {
  cluster::MachineClass c;
  c.name = name;
  c.arch = arch;
  c.cores = 4;
  c.core_mhz = core_mhz;
  c.mem_mb = 8192.0;
  c.speed_factor = speed_factor;
  return c;
}

struct RigCounts {
  long routes{0};
  long constrained{0};
  long mismatches{0};
  std::string first_mismatch;
  long pstate_changes{0};
  long parks{0};
  long node_crashes{0};
  long blackouts{0};
  long migrations{0};
};

/// Four domains (two with x86 + arm class pools, two scalar) under every
/// subsystem that moves a status input, routed by `router`.
RigCounts run_routing_rig(const std::string& router, std::uint64_t seed) {
  sim::Engine engine;
  auto checker = std::make_unique<CheckingRouter>(router);
  CheckingRouter* check = checker.get();
  federation::Federation fed(engine, std::move(checker));
  check->fed = &fed;

  scenario::ClusterSpec pools;
  pools.classes = {{pool_class("x86", "x86_64", 3000.0, 1.0), 2},
                   {pool_class("arm", "arm64", 2000.0, 0.9), 2}};
  scenario::ClusterSpec scalar;
  scalar.nodes = 3;
  std::vector<std::size_t> nodes_per_domain;
  for (int i = 0; i < 4; ++i) {
    auto& d = fed.add_domain("d" + std::to_string(i), make_policy());
    scenario::populate_cluster(d.world().cluster(), i < 2 ? pools : scalar);
    nodes_per_domain.push_back(d.world().cluster().node_count());
  }

  // Tx demand with staggered breakpoints; one app is constrained to x86.
  // They are sparse on purpose: every breakpoint refills every entry, so
  // dense ones would hide a missing counter bump (a power tick's P-state
  // change, for one, is found only with windows this long).
  for (unsigned a = 0; a < 2; ++a) {
    workload::TxAppSpec spec = make_app_spec(a);
    if (a == 1) spec.constraint.arch = "x86_64";
    workload::DemandTrace trace;
    for (int k = 0; k < 20; ++k) {
      trace.add(util::Seconds{2500.0 * k + 700.0 * a}, 0.5 + 0.37 * ((k * 7 + a) % 5));
    }
    fed.add_app(spec, trace);
  }

  // Power: idle parking, and a cap that throttles a fully awake domain.
  scenario::PowerSpec power;
  power.enabled = true;
  power.check_interval_s = 300.0;
  power.idle_timeout_s = 900.0;
  power.cap_w = 700.0;
  std::vector<std::unique_ptr<power::PowerManager>> power_mgrs;
  for (std::size_t i = 0; i < fed.domain_count(); ++i) {
    power_mgrs.push_back(scenario::make_power_manager(engine, fed.domain(i).world(), power,
                                                      600.0, -1.0,
                                                      static_cast<sim::ShardId>(i)));
  }

  migration::MigrationOptions mig_opts;
  mig_opts.check_interval = util::Seconds{120.0};
  migration::MigrationManager mig(fed, migration::TransferModel{125.0, 2.0},
                                  migration::make_migration_policy("drain+rebalance"), mig_opts);

  // Faults: stochastic node crashes plus one explicit blackout.
  const double horizon = 40000.0;
  scenario::FaultSpec faults;
  faults.enabled = true;
  faults.checkpoint_interval_s = 600.0;
  faults.node_mttf_s = 12000.0;
  faults.node_mttr_s = 1500.0;
  faults.events.push_back({"blackout", 3, 0, 0, 16000.0, 3000.0, 1.0});
  std::vector<faults::DomainHooks> hooks;
  for (std::size_t i = 0; i < fed.domain_count(); ++i) {
    hooks.push_back({&fed.domain(i).world(), &fed.domain(i).controller(), power_mgrs[i].get()});
  }
  faults::FaultOptions fault_opts;
  fault_opts.checkpoint_interval_s = faults.checkpoint_interval_s;
  faults::FaultInjector injector(
      engine, std::move(hooks),
      scenario::build_fault_schedule(faults, seed, horizon, nodes_per_domain), fault_opts);
  injector.set_federation(&fed);
  injector.set_migration(&mig);

  // Drain and brownout weight events.
  const auto weight_at = [&](double t, std::size_t d, double w) {
    engine.schedule_at(util::Seconds{t}, sim::EventPriority::kWorkloadArrival,
                       [&fed, d, w] { fed.set_domain_weight(d, w); });
  };
  weight_at(6000.0, 2, 0.0);
  weight_at(11000.0, 2, 1.0);
  weight_at(9000.0, 0, 0.5);
  weight_at(21000.0, 0, 1.0);

  // Jobs: a third need x86, a fifth need fast cores (excludes arm).
  util::Rng rng(seed);
  workload::JobTemplate tmpl;
  tmpl.work = util::MhzSeconds{2.0e6};
  tmpl.work_cv = 0.5;
  tmpl.goal_stretch = 4.0;
  workload::PoissonArrivals arrivals{util::Seconds{0.0}, util::Seconds{80.0}, 300};
  std::vector<workload::JobSpec> jobs = workload::generate_jobs(arrivals, tmpl, rng);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (j % 3 == 0) jobs[j].constraint.arch = "x86_64";
    if (j % 5 == 0) jobs[j].constraint.min_core_mhz = 2500.0;
    engine.schedule_at(jobs[j].submit_time, sim::EventPriority::kWorkloadArrival,
                       [&fed, spec = jobs[j]] { fed.submit_job(spec); });
  }

  fed.start();
  mig.start();
  for (auto& mgr : power_mgrs) mgr->start();
  injector.start();
  engine.run_until(util::Seconds{horizon});

  RigCounts out;
  out.routes = check->routes;
  out.constrained = check->constrained;
  out.mismatches = check->mismatches;
  out.first_mismatch = check->first_mismatch;
  for (const auto& mgr : power_mgrs) {
    out.pstate_changes += mgr->stats().pstate_changes;
    out.parks += mgr->stats().parks;
  }
  const faults::DomainFaultStats totals = injector.totals(engine.now());
  out.node_crashes = totals.node_crashes;
  out.blackouts = totals.blackouts;
  out.migrations = mig.stats().completed;
  return out;
}

}  // namespace

TEST(RoutingTable, EqualsFreshFillAtEveryArrival) {
  for (const std::string router : {"least-loaded", "capacity-weighted", "sticky"}) {
    for (const std::uint64_t seed : {3u, 11u}) {
      const RigCounts r = run_routing_rig(router, seed);
      const std::string run = router + " seed " + std::to_string(seed);
      EXPECT_EQ(r.routes, 300) << run;
      EXPECT_EQ(r.mismatches, 0) << run << ": first at " << r.first_mismatch;
      // Non-vacuity: every change source fired.
      EXPECT_GT(r.constrained, 0) << run;
      EXPECT_GT(r.pstate_changes, 0) << run;
      EXPECT_GT(r.parks, 0) << run;
      EXPECT_GT(r.node_crashes, 0) << run;
      EXPECT_GT(r.blackouts, 0) << run;
      EXPECT_GT(r.migrations, 0) << run;
    }
  }
}
