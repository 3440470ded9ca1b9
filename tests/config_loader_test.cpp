// Tests for the config-driven scenario loader.

#include "scenario/config_loader.hpp"

#include <gtest/gtest.h>

#include "scenario/experiment.hpp"

using namespace heteroplace;

TEST(ConfigLoader, EmptyConfigYieldsSection3Defaults) {
  const auto s = scenario::scenario_from_config(util::Config{});
  const auto ref = scenario::section3_scenario();
  EXPECT_EQ(s.cluster.nodes, ref.cluster.nodes);
  EXPECT_DOUBLE_EQ(s.cluster.cpu_per_node_mhz, ref.cluster.cpu_per_node_mhz);
  EXPECT_EQ(s.jobs.count, ref.jobs.count);
  EXPECT_DOUBLE_EQ(s.jobs.mean_interarrival_s, ref.jobs.mean_interarrival_s);
  EXPECT_DOUBLE_EQ(s.controller.cycle_s, ref.controller.cycle_s);
  ASSERT_EQ(s.apps.size(), 1u);
  EXPECT_DOUBLE_EQ(s.apps[0].trace.rate_at(util::Seconds{0.0}), 24.0);
}

TEST(ConfigLoader, OverridesApply) {
  const auto cfg = util::Config::from_string(
      "nodes = 10\n"
      "cycle_s = 300\n"
      "jobs.count = 50\n"
      "jobs.work_mhz_s = 1.2e7\n"
      "jobs.utility_shape = sigmoid\n"
      "app.0.lambda = 12\n"
      "app.0.rt_goal_s = 0.5\n");
  const auto s = scenario::scenario_from_config(cfg);
  EXPECT_EQ(s.cluster.nodes, 10);
  EXPECT_DOUBLE_EQ(s.controller.cycle_s, 300.0);
  EXPECT_EQ(s.jobs.count, 50);
  EXPECT_DOUBLE_EQ(s.jobs.tmpl.work.get(), 1.2e7);
  EXPECT_EQ(s.jobs.utility_shape, "sigmoid");
  EXPECT_DOUBLE_EQ(s.apps[0].trace.rate_at(util::Seconds{0.0}), 12.0);
  EXPECT_DOUBLE_EQ(s.apps[0].spec.rt_goal.get(), 0.5);
}

TEST(ConfigLoader, MultipleApps) {
  const auto cfg = util::Config::from_string(
      "apps = 2\n"
      "app.0.name = gold\n"
      "app.0.importance = 2\n"
      "app.1.name = silver\n"
      "app.1.lambda = 6\n");
  const auto s = scenario::scenario_from_config(cfg);
  ASSERT_EQ(s.apps.size(), 2u);
  EXPECT_EQ(s.apps[0].spec.name, "gold");
  EXPECT_DOUBLE_EQ(s.apps[0].spec.importance, 2.0);
  EXPECT_EQ(s.apps[1].spec.name, "silver");
  EXPECT_DOUBLE_EQ(s.apps[1].trace.rate_at(util::Seconds{0.0}), 6.0);
  EXPECT_EQ(s.apps[0].spec.id.get(), 0u);
  EXPECT_EQ(s.apps[1].spec.id.get(), 1u);
}

TEST(ConfigLoader, ZeroAppsAllowed) {
  const auto cfg = util::Config::from_string("apps = 0\n");
  const auto s = scenario::scenario_from_config(cfg);
  EXPECT_TRUE(s.apps.empty());
}

TEST(ConfigLoader, UnknownKeyRejected) {
  const auto cfg = util::Config::from_string("nodez = 10\n");
  EXPECT_THROW((void)scenario::scenario_from_config(cfg), util::ConfigError);
}

TEST(ConfigLoader, UnknownAppKeyRejected) {
  const auto cfg = util::Config::from_string("app.0.lamda = 10\n");  // typo
  EXPECT_THROW((void)scenario::scenario_from_config(cfg), util::ConfigError);
}

TEST(ConfigLoader, MalformedValueRejected) {
  const auto cfg = util::Config::from_string("nodes = many\n");
  EXPECT_THROW((void)scenario::scenario_from_config(cfg), util::ConfigError);
}

TEST(ConfigLoader, AppCountOutOfRangeRejected) {
  EXPECT_THROW(
      (void)scenario::scenario_from_config(util::Config::from_string("apps = 1000\n")),
      util::ConfigError);
}

TEST(ConfigLoader, RoundTripsThroughConfigText) {
  const auto cfg = util::Config::from_string(
      "name = roundtrip\n"
      "nodes = 7\n"
      "apps = 2\n"
      "app.0.lambda = 9\n"
      "app.1.rt_goal_s = 3\n");
  const auto s1 = scenario::scenario_from_config(cfg);
  const std::string text = scenario::scenario_to_config(s1);
  const auto s2 = scenario::scenario_from_config(util::Config::from_string(text));
  EXPECT_EQ(s2.name, "roundtrip");
  EXPECT_EQ(s2.cluster.nodes, 7);
  ASSERT_EQ(s2.apps.size(), 2u);
  EXPECT_DOUBLE_EQ(s2.apps[0].trace.rate_at(util::Seconds{0.0}), 9.0);
  EXPECT_DOUBLE_EQ(s2.apps[1].spec.rt_goal.get(), 3.0);
}

TEST(ConfigLoader, LoadedScenarioActuallyRuns) {
  const auto cfg = util::Config::from_string(
      "name = mini\n"
      "nodes = 3\n"
      "jobs.count = 6\n"
      "jobs.work_mhz_s = 3e6\n"
      "app.0.lambda = 2\n"
      "app.0.rt_goal_s = 6\n");
  const auto s = scenario::scenario_from_config(cfg);
  scenario::ExperimentOptions opt;
  opt.validate_invariants = true;
  const auto r = scenario::run_experiment(s, opt);
  EXPECT_EQ(r.summary.jobs_completed, 6);
  EXPECT_EQ(r.summary.invariant_violations, 0);
}

TEST(ConfigLoader, FederatedDefaultsToOneDomain) {
  const auto fs = scenario::federated_scenario_from_config(util::Config{});
  ASSERT_EQ(fs.domains.size(), 1u);
  EXPECT_EQ(fs.domains[0].cluster.nodes, scenario::section3_scenario().cluster.nodes);
  EXPECT_EQ(fs.router, "least-loaded");
  EXPECT_DOUBLE_EQ(fs.domains[0].first_cycle_at_s, -1.0);  // auto-stagger
}

TEST(ConfigLoader, FederatedDomainsSplitAndOverride) {
  const auto cfg = util::Config::from_string(
      "nodes = 10\n"
      "domains = 3\n"
      "router = sticky\n"
      "domain.0.name = primary\n"
      "domain.0.nodes = 6\n"
      "domain.1.cpu_per_node_mhz = 6000\n"
      "domain.2.first_cycle_at_s = 150\n");
  const auto fs = scenario::federated_scenario_from_config(cfg);
  ASSERT_EQ(fs.domains.size(), 3u);
  EXPECT_EQ(fs.router, "sticky");
  EXPECT_EQ(fs.domains[0].name, "primary");
  EXPECT_EQ(fs.domains[0].cluster.nodes, 6);
  // Unoverridden domains keep the even split of the global pool (10 → 4/3/3).
  EXPECT_EQ(fs.domains[1].cluster.nodes, 3);
  EXPECT_DOUBLE_EQ(fs.domains[1].cluster.cpu_per_node_mhz, 6000.0);
  EXPECT_EQ(fs.domains[2].cluster.nodes, 3);
  EXPECT_DOUBLE_EQ(fs.domains[2].first_cycle_at_s, 150.0);
}

TEST(ConfigLoader, FederatedExplicitNodesBeatTheEvenSplit) {
  // Regression: 2 global nodes over 4 domains is fine when every domain
  // gets an explicit node count — the even-split default must not be
  // validated before the overrides apply.
  const auto fs = scenario::federated_scenario_from_config(util::Config::from_string(
      "nodes = 2\n"
      "domains = 4\n"
      "domain.0.nodes = 1\n"
      "domain.1.nodes = 1\n"
      "domain.2.nodes = 1\n"
      "domain.3.nodes = 1\n"));
  ASSERT_EQ(fs.domains.size(), 4u);
  for (const auto& d : fs.domains) EXPECT_EQ(d.cluster.nodes, 1);
  // And a domain left at zero nodes fails loudly, as a ConfigError.
  EXPECT_THROW((void)scenario::federated_scenario_from_config(
                   util::Config::from_string("nodes = 2\ndomains = 4\n")),
               util::ConfigError);
}

TEST(ConfigLoader, FederatedRejectsUnknownRouterAtLoadTime) {
  EXPECT_THROW((void)scenario::federated_scenario_from_config(
                   util::Config::from_string("domains = 2\nrouter = stickyy\n")),
               util::ConfigError);
}

TEST(ConfigLoader, FederatedRejectsBadDomainKeys) {
  EXPECT_THROW((void)scenario::federated_scenario_from_config(
                   util::Config::from_string("domains = 0\n")),
               util::ConfigError);
  EXPECT_THROW((void)scenario::federated_scenario_from_config(
                   util::Config::from_string("domains = 2\ndomain.0.nodez = 1\n")),
               util::ConfigError);
  // Domain keys are not part of the single-cluster schema.
  EXPECT_THROW((void)scenario::scenario_from_config(
                   util::Config::from_string("domains = 2\n")),
               util::ConfigError);
}

TEST(ConfigLoader, FederatedDomainCountCoversTheMacroShape) {
  // The 100-domain fed_aligned / perf_macro shape is writable as a config
  // file; the bound on `domains` is a sanity cap, not a design limit.
  const auto fs = scenario::federated_scenario_from_config(
      util::Config::from_string("nodes = 5000\ndomains = 100\nbandwidth.99.0 = 50\n"));
  ASSERT_EQ(fs.domains.size(), 100u);
  EXPECT_EQ(fs.domains[99].cluster.nodes, 50);
  ASSERT_EQ(fs.migration.links.size(), 1u);
  EXPECT_EQ(fs.migration.links[0].from, 99u);
  EXPECT_EQ(fs.migration.links[0].to, 0u);

  for (const char* bad : {"domains = 0\n", "domains = 4097\n"}) {
    EXPECT_THROW((void)scenario::federated_scenario_from_config(util::Config::from_string(bad)),
                 util::ConfigError)
        << bad;
  }
}

TEST(ConfigLoader, FederatedScenarioActuallyRuns) {
  const auto cfg = util::Config::from_string(
      "name = mini-fed\n"
      "nodes = 4\n"
      "domains = 2\n"
      "jobs.count = 6\n"
      "jobs.work_mhz_s = 3e6\n"
      "app.0.lambda = 2\n"
      "app.0.rt_goal_s = 6\n");
  const auto fs = scenario::federated_scenario_from_config(cfg);
  scenario::ExperimentOptions opt;
  opt.validate_invariants = true;
  const auto r = scenario::run_federated_experiment(fs, opt);
  EXPECT_EQ(r.summary.jobs_completed, 6);
  EXPECT_EQ(r.summary.invariant_violations, 0);
}

TEST(NoisyMonitoring, EqualizationSurvivesMeasurementNoise) {
  // The controller sees λ through a noisy monitor + EWMA; equalization
  // quality degrades gracefully rather than collapsing.
  auto s = scenario::section3_scaled(0.12);
  s.jobs.count = 20;
  scenario::ExperimentOptions noisy;
  noisy.lambda_noise_cv = 0.3;
  noisy.validate_invariants = true;
  const auto r = scenario::run_experiment(s, noisy);
  EXPECT_EQ(r.summary.jobs_completed, 20);
  EXPECT_EQ(r.summary.invariant_violations, 0);
  EXPECT_LT(r.summary.equalization_gap.mean(), 0.25);
}

TEST(NoisyMonitoring, NoiseChangesTheTrajectoryDeterministically) {
  auto s = scenario::section3_scaled(0.12);
  s.jobs.count = 15;
  scenario::ExperimentOptions noisy;
  noisy.lambda_noise_cv = 0.5;
  const auto a = scenario::run_experiment(s, noisy);
  const auto b = scenario::run_experiment(s, noisy);
  // Same seed ⇒ identical even with noise (noise stream is seeded).
  EXPECT_DOUBLE_EQ(a.summary.tx_utility.mean(), b.summary.tx_utility.mean());
  // And the noisy run differs from the clean one.
  const auto clean = scenario::run_experiment(s, {});
  EXPECT_NE(a.summary.tx_utility.mean(), clean.summary.tx_utility.mean());
}
