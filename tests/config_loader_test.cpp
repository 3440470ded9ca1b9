// Tests for the config-driven scenario loader.

#include "scenario/config_loader.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "scenario/experiment.hpp"
#include "scenario/federation_experiment.hpp"
#include "scenario/result_digest.hpp"

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

namespace {

/// The message a ConfigError from loading `text` carries ("" if none).
std::string load_error(const std::string& text) {
  try {
    (void)scenario::scenario_from_config(util::Config::from_string(text));
  } catch (const util::ConfigError& e) {
    return e.what();
  }
  return "";
}

/// Sets HETEROPLACE_FORCE_THREADS to `value` (unsets it for nullptr) for
/// one scope and restores the caller's value after: CI's ThreadSanitizer
/// job runs the suite with it set.
class ForceThreadsEnv {
 public:
  explicit ForceThreadsEnv(const char* value) {
    if (const char* v = std::getenv(kName)) saved_ = v;
    set(value);
  }
  ~ForceThreadsEnv() { set(saved_ ? saved_->c_str() : nullptr); }
  ForceThreadsEnv(const ForceThreadsEnv&) = delete;
  ForceThreadsEnv& operator=(const ForceThreadsEnv&) = delete;

 private:
  static constexpr const char* kName = "HETEROPLACE_FORCE_THREADS";
  static void set(const char* value) {
    if (value != nullptr) {
      ::setenv(kName, value, 1);
    } else {
      ::unsetenv(kName);
    }
  }
  std::optional<std::string> saved_;
};

/// The message of the std::invalid_argument effective_engine_threads
/// throws ("" if none). Starts no thread.
std::string force_threads_error() {
  try {
    (void)scenario::effective_engine_threads(1);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

}  // namespace

TEST(ConfigLoader, EngineThreadsBounded) {
  // engine.threads = 0, 257 and 1000000 are RejectsValuesNoRunCanUse's.
  const int max = scenario::kMaxEngineThreads;
  EXPECT_EQ(scenario::scenario_from_config(
                util::Config::from_string("engine.threads = " + std::to_string(max) + "\n"))
                .engine_threads,
            max);

  // HETEROPLACE_FORCE_THREADS: a plain integer in the same range.
  {
    const ForceThreadsEnv unset(nullptr);
    EXPECT_EQ(scenario::effective_engine_threads(0), 1);
    EXPECT_EQ(scenario::effective_engine_threads(7), 7);
  }
  const std::pair<const char*, int> valid[] = {{"1", 1}, {"4", 4}, {"256", 256}};
  for (const auto& [text, threads] : valid) {
    const ForceThreadsEnv forced(text);
    EXPECT_EQ(scenario::effective_engine_threads(7), threads) << text;
  }
  for (const char* text : {"", "0", "-4", "4x", "abc", " 4", "4 ", "+4", "257", "1000000",
                           "99999999999"}) {
    const ForceThreadsEnv forced(text);
    EXPECT_EQ(force_threads_error().rfind("HETEROPLACE_FORCE_THREADS=", 0), 0u)
        << "'" << text << "' -> '" << force_threads_error() << "'";
  }
}

TEST(ConfigLoader, RejectsValuesNoRunCanUse) {
  // Each would hang the sampler (interval 0), fail mid-run with an error
  // that names no key, or load and run without complaint.
  const std::pair<const char*, const char*> cases[] = {
      {"sample_interval_s = 0\n", "sample_interval_s:"},
      {"sample_interval_s = -5\n", "sample_interval_s:"},
      {"cycle_s = 0\n", "cycle_s:"},
      {"cycle_s = -600\n", "cycle_s:"},
      {"horizon_s = -10\n", "horizon_s:"},
      {"latency.start_job = -1\n", "latency.start_job:"},
      {"latency.suspend = -3\n", "latency.suspend:"},
      {"latency.resume = -1\n", "latency.resume:"},
      {"latency.migrate = -1\n", "latency.migrate:"},
      {"latency.start_instance = -1\n", "latency.start_instance:"},
      {"jobs.count = -5\n", "jobs.count:"},
      {"jobs.tail_count = -1\n", "jobs.tail_count:"},
      {"engine.threads = 0\n", "engine.threads:"},
      {"engine.threads = 257\n", "engine.threads:"},
      {"engine.threads = 1000000\n", "engine.threads:"},
  };
  for (const auto& [text, key] : cases) {
    EXPECT_EQ(load_error(text).rfind(key, 0), 0u) << text << " -> '" << load_error(text) << "'";
  }
  // The boundary values stay legal: 0 = run to completion / instant
  // action / no jobs.
  EXPECT_EQ(load_error("horizon_s = 0\nlatency.suspend = 0\njobs.count = 0\n"), "");
}

TEST(ConfigLoader, RejectsRepeatedNames) {
  // Per-domain and per-app series are keyed by name, and slo.jobs.*
  // already means the batch job stream. The error names the second key.
  const std::pair<const char*, const char*> cases[] = {
      {"domains = 3\ndomain.0.name = x\ndomain.2.name = x\n", "domain.2.name:"},
      {"apps = 2\napp.0.name = w\napp.1.name = w\n", "app.1.name:"},
      {"apps = 2\napp.1.name = jobs\n", "app.1.name:"},
  };
  for (const auto& [text, key] : cases) {
    EXPECT_EQ(load_error(text).rfind(key, 0), 0u) << text << " -> '" << load_error(text) << "'";
  }
}

namespace {

std::uint64_t run_digest(const scenario::Scenario& s) {
  return scenario::digest(scenario::run_federated_experiment(s));
}

/// dump -> reload -> run gives the same digest, and the reloaded scenario
/// dumps to the same text. Returns the original's result.
scenario::FederatedResult expect_round_trip(const scenario::Scenario& s,
                                            const std::string& what) {
  SCOPED_TRACE(what);
  const std::string text = scenario::scenario_to_config(s);
  const scenario::Scenario back = scenario::scenario_from_config(util::Config::from_string(text));
  EXPECT_EQ(scenario::scenario_to_config(back), text);
  auto result = scenario::run_federated_experiment(s);
  EXPECT_GT(result.summary.jobs_completed, 0);
  EXPECT_EQ(run_digest(back), scenario::digest(result)) << text;
  return result;
}

scenario::Scenario load(const std::string& text) {
  return scenario::scenario_from_config(util::Config::from_string(text));
}

}  // namespace

TEST(ConfigRoundTrip, BuiltScenariosReloadToTheSameDigest) {
  expect_round_trip(scenario::section3_scenario(), "section3");
  // 0.3 scales the job work and the web rate to values that print with
  // more than 6 significant digits.
  expect_round_trip(scenario::section3_scaled(0.3), "section3_scaled(0.3)");
  expect_round_trip(scenario::service_differentiation_scenario(), "service differentiation");
}

TEST(ConfigRoundTrip, EverySubsystemReloadsToTheSameDigest) {
  auto s = scenario::section3_scaled(0.2);
  s.power.enabled = true;
  s.power.policy = "idle-park";
  s.power.idle_timeout_s = 900.0;
  s.power.cap_w = 1500.0;
  s.faults.enabled = true;
  s.faults.checkpoint_interval_s = 1200.0;
  s.faults.node_mttf_s = 40000.0;
  s.faults.node_mttr_s = 1500.0;
  s.faults.until_s = 60000.0;
  s.faults.events.push_back({"node-crash", 0, 1, 0, 5000.0, 2000.0, 1.0});
  s.controller.latencies.start_job = util::Seconds{45.0};
  s.controller.latencies.suspend_job = util::Seconds{20.0};
  s.controller.latencies.migrate_job = util::Seconds{100.0};
  s.controller.solver.allow_migration = false;
  s.controller.solver.protect_completion_horizon_s = 900.0;
  s.jobs.tail_count = 20;
  s.jobs.tail_mean_interarrival_s = 700.0;
  s.jobs.tmpl.importance = 1.7;
  s.engine_threads = 2;
  s.slos.push_back({"jobs", 0.5, 20000.0, 4000.0, 1.5});
  s.slos.push_back({"web", 0.9, 7200.0, 1200.0, 2.0});
  expect_round_trip(s, "every subsystem");
  // The dump must carry every one of these settings: they change the run.
  EXPECT_NE(run_digest(s), run_digest(scenario::section3_scaled(0.2)));
}

TEST(ConfigRoundTrip, ClassesAndConstraintsReloadToTheSameDigest) {
  expect_round_trip(load("name = two-class\n"
                         "classes = x86,gpu\n"
                         "class.x86.arch = x86_64\n"
                         "class.x86.cores = 4\n"
                         "class.x86.core_mhz = 3000\n"
                         "class.x86.mem_mb = 4096\n"
                         "class.x86.count = 3\n"
                         "class.gpu.arch = x86_64\n"
                         "class.gpu.cores = 8\n"
                         "class.gpu.core_mhz = 2400\n"
                         "class.gpu.mem_mb = 8192\n"
                         "class.gpu.speed_factor = 0.85\n"
                         "class.gpu.accel = gpu\n"
                         "class.gpu.count = 2\n"
                         "jobs.count = 24\n"
                         "jobs.work_mhz_s = 6e6\n"
                         "jobs.constraint.arch = x86_64\n"
                         "jobs.constraint.min_core_mhz = 2000\n"
                         "app.0.lambda = 3\n"
                         "app.0.rt_goal_s = 5\n"
                         "app.0.constraint.accel = gpu\n"),
                    "two classes");
}

TEST(ConfigRoundTrip, ThreeDomainConfigsReloadToTheSameDigest) {
  // Shared: migration, power with a per-domain cap, staggered phases,
  // and link-down plus blackout events.
  const std::string common =
      "domains = 3\n"
      "router = capacity-weighted\n"
      "horizon_s = 20000\n"
      "jobs.count = 40\n"
      "jobs.mean_interarrival_s = 300\n"
      "jobs.work_mhz_s = 4e6\n"
      "app.0.lambda = 3.3\n"
      "app.0.rt_goal_s = 4\n"
      "domain.0.name = east\n"
      "domain.1.first_cycle_at_s = 150\n"
      "domain.2.power_cap_w = 900\n"
      "power.enabled = true\n"
      "power.cap_w = 1200\n"
      "migration.enabled = true\n"
      "migration.policy = drain+rebalance\n"
      "fault.enabled = true\n"
      "fault.checkpoint_interval_s = 900\n"
      "fault.events = 2\n"
      "fault.event.0.kind = link-down\n"
      "fault.event.0.from = 0\n"
      "fault.event.0.to = 2\n"
      "fault.event.0.at_s = 3000\n"
      "fault.event.0.duration_s = 900\n"
      "fault.event.0.severity = 0.5\n"
      "fault.event.1.kind = blackout\n"
      "fault.event.1.domain = 1\n"
      "fault.event.1.at_s = 8000\n"
      "fault.event.1.duration_s = 1800\n";
  const std::string scalar =
      "nodes = 7\n"
      "domain.0.nodes = 3\n"
      "domain.2.nodes = 1\n";
  const std::string pooled =
      "classes = big,small\n"
      "class.big.cores = 4\n"
      "class.big.core_mhz = 3000\n"
      "class.big.mem_mb = 4096\n"
      "class.big.count = 3\n"
      "class.small.cores = 2\n"
      "class.small.core_mhz = 2500\n"
      "class.small.mem_mb = 4096\n"
      "class.small.count = 4\n"
      "domain.0.class.big.count = 3\n"
      "domain.1.class.big.count = 0\n"
      "domain.2.class.small.count = 2\n";
  const std::string uplink =
      "migration.link_mode = uplink\n"
      "uplink_bandwidth.0 = 40\n"
      "uplink_bandwidth.2 = 60.5\n"
      "link_latency.0.1 = 3.25\n";
  const std::string p2p =
      "migration.link_mode = p2p\n"
      "bandwidth.0.1 = 80\n"
      "bandwidth.2.0 = 33.3\n"
      "link_latency.1.2 = 0.7\n";
  for (const auto& [sizing, sizing_text] : {std::pair{"scalar", scalar}, {"pooled", pooled}}) {
    for (const auto& [mode, mode_text] : {std::pair{"uplink", uplink}, {"p2p", p2p}}) {
      const auto s = load(common + sizing_text + mode_text);
      ASSERT_EQ(s.domains.size(), 3u);
      const auto r = expect_round_trip(s, std::string(sizing) + " / " + mode);
      EXPECT_EQ(r.faults.link_faults, 1);
      EXPECT_EQ(r.faults.blackouts, 1);
    }
  }
}

TEST(ConfigRoundTrip, StateWithoutAKeyIsRejectedNotDropped) {
  auto diurnal = scenario::section3_scaled(0.2);
  diurnal.apps[0].trace.add(util::Seconds{3600.0}, 2.0);
  EXPECT_THROW((void)scenario::scenario_to_config(diurnal), util::ConfigError);

  auto drained = scenario::federate(scenario::section3_scaled(0.2), 2);
  drained.weight_events.push_back({1, 3600.0, 0.0});
  EXPECT_THROW((void)scenario::scenario_to_config(drained), util::ConfigError);
}

TEST(ConfigKeys, EveryKeyIsDocumentedInTheReadme) {
  std::ifstream in(std::string(HETEROPLACE_SOURCE_DIR) + "/README.md");
  ASSERT_TRUE(in) << "README.md not found";
  const std::string readme{std::istreambuf_iterator<char>(in), {}};
  const auto keys = scenario::scenario_config_keys();
  EXPECT_GT(keys.size(), 100u);
  for (const std::string& key : keys) {
    EXPECT_NE(readme.find("`" + key + "`"), std::string::npos) << key << " has no README row";
  }

  // And the other way: every backticked entry in the first cell of a
  // `| key |` table is a key, or a `prefix.*` glob matching at least one,
  // so a deleted key's row cannot linger.
  const std::set<std::string> known(keys.begin(), keys.end());
  const auto documents_a_key = [&](const std::string& entry) {
    if (known.count(entry) > 0) return true;
    if (!entry.ends_with(".*")) return false;
    const std::string prefix = entry.substr(0, entry.size() - 1);
    return std::any_of(keys.begin(), keys.end(),
                       [&](const std::string& k) { return k.starts_with(prefix); });
  };
  std::istringstream lines(readme);
  bool in_table = false;
  int rows = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.starts_with("| key |")) {
      in_table = true;
      continue;
    }
    if (!line.starts_with("|")) in_table = false;
    if (!in_table) continue;
    const std::string cell = line.substr(1, line.find('|', 1) - 1);
    for (std::size_t open = cell.find('`'); open != std::string::npos;
         open = cell.find('`', open)) {
      const std::size_t close = cell.find('`', open + 1);
      ASSERT_NE(close, std::string::npos) << line;
      const std::string entry = cell.substr(open + 1, close - open - 1);
      EXPECT_TRUE(documents_a_key(entry)) << "README row `" << entry << "` is not a config key";
      ++rows;
      open = close + 1;
    }
  }
  EXPECT_GT(rows, 100);  // the tables were found
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
  const auto fs = scenario::scenario_from_config(util::Config{});
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
  const auto fs = scenario::scenario_from_config(cfg);
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
  const auto fs = scenario::scenario_from_config(util::Config::from_string(
      "nodes = 2\n"
      "domains = 4\n"
      "domain.0.nodes = 1\n"
      "domain.1.nodes = 1\n"
      "domain.2.nodes = 1\n"
      "domain.3.nodes = 1\n"));
  ASSERT_EQ(fs.domains.size(), 4u);
  for (const auto& d : fs.domains) EXPECT_EQ(d.cluster.nodes, 1);
  // And a domain left at zero nodes fails loudly, as a ConfigError.
  EXPECT_THROW((void)scenario::scenario_from_config(
                   util::Config::from_string("nodes = 2\ndomains = 4\n")),
               util::ConfigError);
}

TEST(ConfigLoader, FederatedRejectsUnknownRouterAtLoadTime) {
  EXPECT_THROW((void)scenario::scenario_from_config(
                   util::Config::from_string("domains = 2\nrouter = stickyy\n")),
               util::ConfigError);
}

TEST(ConfigLoader, FederatedRejectsBadDomainKeys) {
  EXPECT_THROW((void)scenario::scenario_from_config(
                   util::Config::from_string("domains = 0\n")),
               util::ConfigError);
  EXPECT_THROW((void)scenario::scenario_from_config(
                   util::Config::from_string("domains = 2\ndomain.0.nodez = 1\n")),
               util::ConfigError);
  // One loader reads every key: `domains` splits the cluster.
  EXPECT_EQ(scenario::scenario_from_config(util::Config::from_string("domains = 2\n"))
                .domains.size(),
            2u);
}

TEST(ConfigLoader, RunExperimentRejectsMultiDomainScenarios) {
  const auto two = scenario::federate(scenario::section3_scaled(0.2), 2);
  EXPECT_THROW((void)scenario::run_experiment(two), std::invalid_argument);
  // One domain, whether filled or left empty, is a single-world run.
  EXPECT_NO_THROW((void)scenario::run_experiment(scenario::federate(
      scenario::section3_scaled(0.08), 1)));
}

TEST(ConfigLoader, FederatedDomainCountCoversTheMacroShape) {
  // The 100-domain fed_aligned / perf_macro shape is writable as a config
  // file; the bound on `domains` is a sanity cap, not a design limit.
  const auto fs = scenario::scenario_from_config(
      util::Config::from_string("nodes = 5000\ndomains = 100\nbandwidth.99.0 = 50\n"));
  ASSERT_EQ(fs.domains.size(), 100u);
  EXPECT_EQ(fs.domains[99].cluster.nodes, 50);
  ASSERT_EQ(fs.migration.links.size(), 1u);
  EXPECT_EQ(fs.migration.links[0].from, 99u);
  EXPECT_EQ(fs.migration.links[0].to, 0u);

  for (const char* bad : {"domains = 0\n", "domains = 4097\n"}) {
    EXPECT_THROW((void)scenario::scenario_from_config(util::Config::from_string(bad)),
                 util::ConfigError)
        << bad;
  }
}

TEST(ConfigLoader, MultiDomainScenarioActuallyRuns) {
  const auto cfg = util::Config::from_string(
      "name = mini-fed\n"
      "nodes = 4\n"
      "domains = 2\n"
      "jobs.count = 6\n"
      "jobs.work_mhz_s = 3e6\n"
      "app.0.lambda = 2\n"
      "app.0.rt_goal_s = 6\n");
  const auto fs = scenario::scenario_from_config(cfg);
  scenario::ExperimentOptions opt;
  opt.validate_invariants = true;
  const auto r = scenario::run_federated_experiment(fs, opt);
  EXPECT_EQ(r.summary.jobs_completed, 6);
  EXPECT_EQ(r.summary.invariant_violations, 0);
}
