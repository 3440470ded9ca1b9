// Tests for scenario builders, the experiment runner, and reporting.

#include "scenario/experiment.hpp"
#include "scenario/federation_experiment.hpp"
#include "scenario/report.hpp"
#include "scenario/scenario.hpp"
#include "util/config.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

using namespace heteroplace;

TEST(ScenarioBuilders, Section3MatchesThePaper) {
  const auto s = scenario::section3_scenario();
  EXPECT_EQ(s.cluster.nodes, 25);
  EXPECT_DOUBLE_EQ(s.cluster.cpu_per_node_mhz, 12000.0);  // 4 × 3 GHz
  EXPECT_EQ(s.jobs.count, 800);
  EXPECT_DOUBLE_EQ(s.jobs.mean_interarrival_s, 260.0);
  EXPECT_DOUBLE_EQ(s.controller.cycle_s, 600.0);
  // Memory: exactly 3 job VMs fit per node (the paper's constraint).
  const int slots = static_cast<int>(s.cluster.mem_per_node_mb / s.jobs.tmpl.memory.get());
  EXPECT_EQ(slots, 3);
  // One constant transactional workload.
  ASSERT_EQ(s.apps.size(), 1u);
  EXPECT_DOUBLE_EQ(s.apps[0].trace.rate_at(util::Seconds{0.0}),
                   s.apps[0].trace.rate_at(util::Seconds{1e5}));
  // Each job's max speed is one processor.
  EXPECT_DOUBLE_EQ(s.jobs.tmpl.max_speed.get(), 3000.0);
}

TEST(ScenarioBuilders, ScaledKeepsStructure) {
  const auto s = scenario::section3_scaled(0.2);
  EXPECT_EQ(s.cluster.nodes, 5);
  EXPECT_EQ(s.jobs.count, 160);
  EXPECT_DOUBLE_EQ(s.cluster.cpu_per_node_mhz, 12000.0);
  const auto full = scenario::section3_scaled(1.0);
  EXPECT_EQ(full.cluster.nodes, 25);
}

TEST(ScenarioBuilders, ServiceDifferentiationHasTwoClasses) {
  const auto s = scenario::service_differentiation_scenario();
  ASSERT_EQ(s.apps.size(), 2u);
  EXPECT_GT(s.apps[0].spec.importance, s.apps[1].spec.importance);
  EXPECT_LT(s.apps[0].spec.rt_goal.get(), s.apps[1].spec.rt_goal.get());
}

TEST(PolicyNames, RoundTrip) {
  using scenario::PolicyKind;
  for (auto p : {PolicyKind::kUtilityDriven, PolicyKind::kStaticPartition,
                 PolicyKind::kProportionalEqual, PolicyKind::kProportionalDemand}) {
    EXPECT_EQ(scenario::policy_from_string(scenario::to_string(p)), p);
  }
  EXPECT_THROW((void)scenario::policy_from_string("bogus"), std::invalid_argument);
}

namespace {
scenario::Scenario tiny_scenario() {
  auto s = scenario::section3_scaled(0.12);  // 3 nodes
  s.name = "tiny";
  s.jobs.count = 12;
  s.seed = 11;
  return s;
}
}  // namespace

TEST(Experiment, TinyRunCompletesAllJobsWithCleanInvariants) {
  scenario::ExperimentOptions opt;
  opt.validate_invariants = true;
  const auto r = scenario::run_experiment(tiny_scenario(), opt);
  EXPECT_EQ(r.summary.jobs_submitted, 12);
  EXPECT_EQ(r.summary.jobs_completed, 12);
  EXPECT_EQ(r.summary.invariant_violations, 0);
  EXPECT_GT(r.summary.cycles, 0);
  EXPECT_GT(r.summary.sim_end_time_s, 0.0);
}

TEST(Experiment, SeriesContainTheFigureSignals) {
  const auto r = scenario::run_experiment(tiny_scenario());
  for (const char* name :
       {"tx_utility", "lr_hyp_utility", "u_star", "tx_alloc_mhz", "tx_demand_mhz",
        "lr_alloc_mhz", "lr_demand_mhz", "jobs_running", "jobs_pending"}) {
    const auto* s = r.series.find(name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_FALSE(s->empty()) << name;
  }
}

TEST(Experiment, HorizonOverrideStopsEarly) {
  scenario::ExperimentOptions opt;
  opt.horizon_override_s = 1800.0;
  const auto r = scenario::run_experiment(tiny_scenario(), opt);
  EXPECT_DOUBLE_EQ(r.summary.sim_end_time_s, 1800.0);
  EXPECT_LT(r.summary.jobs_completed, 12);
}

TEST(Experiment, RunnerRejectsANonPositiveSampleInterval) {
  // A zero interval would reschedule the sampling tick at the same
  // instant forever; a negative one would schedule it in the past.
  for (const double dt : {0.0, -5.0}) {
    auto s = scenario::section3_scaled(0.08);
    s.sample_interval_s = dt;
    EXPECT_THROW((void)scenario::run_federated_experiment(s), std::invalid_argument) << dt;
  }
}

TEST(Experiment, RunnerRejectsRepeatedNames) {
  // Per-domain and per-app series are keyed by name: a repeat would
  // merge two series into one.
  auto two_domains = scenario::federate(scenario::section3_scaled(0.08), 2);
  two_domains.domains[1].name = two_domains.domains[0].name;
  EXPECT_THROW((void)scenario::run_federated_experiment(two_domains), util::ConfigError);

  auto two_apps = scenario::section3_scaled(0.08);
  two_apps.apps.push_back(two_apps.apps.front());
  two_apps.apps.back().spec.id = util::AppId{1};
  EXPECT_THROW((void)scenario::run_federated_experiment(two_apps), util::ConfigError);
}

TEST(Experiment, DeterministicForSameSeed) {
  const auto a = scenario::run_experiment(tiny_scenario());
  const auto b = scenario::run_experiment(tiny_scenario());
  EXPECT_DOUBLE_EQ(a.summary.sim_end_time_s, b.summary.sim_end_time_s);
  EXPECT_DOUBLE_EQ(a.summary.job_utility.mean(), b.summary.job_utility.mean());
  EXPECT_EQ(a.summary.actions.suspends, b.summary.actions.suspends);
}

TEST(Experiment, DifferentSeedsDiffer) {
  auto s1 = tiny_scenario();
  auto s2 = tiny_scenario();
  s2.seed = 99;
  const auto a = scenario::run_experiment(s1);
  const auto b = scenario::run_experiment(s2);
  // Continuous outcome metrics differ (end time is quantized by the
  // run-to-completion chunking, so compare utilities instead).
  EXPECT_NE(a.summary.job_utility.mean(), b.summary.job_utility.mean());
}

TEST(Experiment, BaselinePoliciesRunToCompletion) {
  for (auto p : {scenario::PolicyKind::kStaticPartition,
                 scenario::PolicyKind::kProportionalEqual,
                 scenario::PolicyKind::kProportionalDemand}) {
    scenario::ExperimentOptions opt;
    opt.policy = p;
    opt.validate_invariants = true;
    const auto r = scenario::run_experiment(tiny_scenario(), opt);
    EXPECT_EQ(r.summary.invariant_violations, 0) << scenario::to_string(p);
    EXPECT_EQ(r.summary.jobs_completed, 12) << scenario::to_string(p);
  }
}

TEST(Report, SummaryCsvRowMatchesHeaderArity) {
  const auto r = scenario::run_experiment(tiny_scenario());
  const std::string header = scenario::summary_csv_header();
  const std::string row = scenario::summary_csv_row(r.summary);
  const auto count_commas = [](const std::string& s) {
    return std::count(s.begin(), s.end(), ',');
  };
  EXPECT_EQ(count_commas(header), count_commas(row));
}

TEST(Report, PrintSummaryMentionsKeyFields) {
  const auto r = scenario::run_experiment(tiny_scenario());
  std::ostringstream os;
  scenario::print_summary(os, r.summary);
  const std::string text = os.str();
  EXPECT_NE(text.find("jobs:"), std::string::npos);
  EXPECT_NE(text.find("equalization gap"), std::string::npos);
  EXPECT_NE(text.find("utility-driven"), std::string::npos);
}

TEST(Report, SeriesCsvThinning) {
  const auto r = scenario::run_experiment(tiny_scenario());
  std::ostringstream full;
  std::ostringstream thin;
  scenario::print_series_csv(full, r.series, {"tx_utility"}, 1);
  scenario::print_series_csv(thin, r.series, {"tx_utility"}, 4);
  const auto lines = [](const std::string& s) {
    return std::count(s.begin(), s.end(), '\n');
  };
  EXPECT_GT(lines(full.str()), lines(thin.str()));
}
