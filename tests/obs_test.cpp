// Observability layer tests: trace recorder ring bounding and Chrome
// JSON export, trace mode parsing, the metrics registry (counter /
// gauge / histogram semantics, Prometheus text round-trip, JSON
// snapshot), fail-loud obs.* spec validation in the config loader,
// and the invariance contracts the tentpole promises — an obs-enabled
// run is digest-identical to an obs-off run (single-world and
// federated, serial and parallel), and the recorded trace file is
// byte-identical across engine thread counts.

#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace_check.hpp"
#include "scenario/config_loader.hpp"
#include "scenario/experiment.hpp"
#include "scenario/federation_experiment.hpp"
#include "scenario/obs_factory.hpp"
#include "scenario/result_digest.hpp"
#include "util/config.hpp"

using namespace heteroplace;

namespace {

std::string temp_path(const std::string& name) { return ::testing::TempDir() + name; }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace

// --- trace recorder ----------------------------------------------------------

TEST(TraceRecorder, ModeParsing) {
  EXPECT_EQ(obs::trace_mode_from_string("off"), obs::TraceMode::kOff);
  EXPECT_EQ(obs::trace_mode_from_string("ring"), obs::TraceMode::kRing);
  EXPECT_EQ(obs::trace_mode_from_string("stream"), obs::TraceMode::kStream);
  EXPECT_THROW((void)obs::trace_mode_from_string("perfetto"), std::invalid_argument);
}

TEST(TraceRecorder, RingBoundsMemoryAndCountsDrops) {
  obs::TraceRecorder::Options opts;
  opts.mode = obs::TraceMode::kRing;
  opts.ring_capacity = 4;
  obs::TraceRecorder tr(opts);
  for (int i = 0; i < 10; ++i) {
    tr.instant(0, obs::Lane::kController, "tick", static_cast<double>(i));
  }
  EXPECT_EQ(tr.recorded(), 4u);
  EXPECT_EQ(tr.dropped(), 6u);
  // Oldest-first snapshot: the survivors are ticks 6..9.
  const std::vector<obs::TraceEvent> evs = tr.snapshot();
  ASSERT_EQ(evs.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(evs[static_cast<std::size_t>(i)].ts_s, 6.0 + i);
  }
}

TEST(TraceRecorder, WriteJsonIsValidChromeTrace) {
  obs::TraceRecorder::Options opts;
  opts.mode = obs::TraceMode::kRing;
  obs::TraceRecorder tr(opts);
  tr.set_process_name(0, "global");
  tr.set_process_name(1, "dc0");
  tr.begin(1, obs::Lane::kController, "cycle", 10.0, {{"apps", 2.0}});
  tr.instant(1, obs::Lane::kExecutor, "job_start", 10.0, {{"job", 7.0}});
  tr.end(1, obs::Lane::kController, "cycle", 10.5);
  tr.async_begin(0, obs::Lane::kMigration, "migration", 42, 11.0, {{"from", 0.0}, {"to", 1.0}});
  tr.async_end(0, obs::Lane::kMigration, "migration", 42, 15.0);
  std::ostringstream os;
  tr.write_json(os);
  const std::vector<std::string> problems = obs::validate_chrome_trace(os.str());
  EXPECT_TRUE(problems.empty()) << (problems.empty() ? "" : problems.front());
}

TEST(TraceRecorder, ValidatorRejectsUnbalancedSpans) {
  obs::TraceRecorder::Options opts;
  opts.mode = obs::TraceMode::kRing;
  obs::TraceRecorder tr(opts);
  tr.begin(0, obs::Lane::kController, "cycle", 1.0);  // never ended
  std::ostringstream os;
  tr.write_json(os);
  EXPECT_FALSE(obs::validate_chrome_trace(os.str()).empty());
}

// --- metrics registry --------------------------------------------------------

TEST(Metrics, CounterGaugeHistogramSemantics) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("jobs_total", "jobs seen");
  c.inc();
  c.inc(2);
  EXPECT_EQ(c.value(), 3u);
  // Re-registering the same (name, labels) returns the same instrument.
  EXPECT_EQ(&reg.counter("jobs_total", "jobs seen"), &c);
  // Same name, different type: fail loudly.
  EXPECT_THROW((void)reg.gauge("jobs_total", "oops"), std::invalid_argument);

  obs::Gauge& g = reg.gauge("queue_depth", "current depth");
  g.set(2.5);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);

  obs::Histogram& h = reg.histogram("rt_seconds", "response time", {1.0, 2.0, 4.0});
  h.observe(0.5);
  h.observe(3.0);
  h.observe(100.0);  // +Inf bucket
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 103.5);
  const std::vector<std::uint64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 0u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);

  EXPECT_THROW((void)obs::Histogram({2.0, 2.0}), std::invalid_argument);
}

TEST(Metrics, PrometheusTextRoundTrips) {
  obs::MetricsRegistry reg;
  reg.counter("jobs_total", "jobs seen").inc(3);
  reg.counter("routed_total", "per-domain routes", "domain=\"dc0\"").inc(7);
  reg.gauge("queue_depth", "current depth").set(2.5);
  obs::Histogram& h = reg.histogram("rt_seconds", "response time", {1.0, 4.0});
  h.observe(0.5);
  h.observe(2.0);
  h.observe(9.0);

  const std::map<std::string, double> parsed = obs::parse_prometheus_text(reg.prometheus_text());
  EXPECT_DOUBLE_EQ(parsed.at("jobs_total"), 3.0);
  EXPECT_DOUBLE_EQ(parsed.at("routed_total{domain=\"dc0\"}"), 7.0);
  EXPECT_DOUBLE_EQ(parsed.at("queue_depth"), 2.5);
  // Histogram samples are cumulative, Prometheus-style.
  EXPECT_DOUBLE_EQ(parsed.at("rt_seconds_bucket{le=\"1\"}"), 1.0);
  EXPECT_DOUBLE_EQ(parsed.at("rt_seconds_bucket{le=\"4\"}"), 2.0);
  EXPECT_DOUBLE_EQ(parsed.at("rt_seconds_bucket{le=\"+Inf\"}"), 3.0);
  EXPECT_DOUBLE_EQ(parsed.at("rt_seconds_sum"), 11.5);
  EXPECT_DOUBLE_EQ(parsed.at("rt_seconds_count"), 3.0);

  EXPECT_THROW((void)obs::parse_prometheus_text("not a sample line\n"), std::invalid_argument);
}

TEST(Metrics, HelpTypeCommentsAndLabelEscaping) {
  obs::MetricsRegistry reg;
  // A hostile domain name: backslash, quote and newline must all be
  // escaped per the exposition spec, and survive the parse round-trip.
  const std::string nasty = "dc\\0\"east\nwing";
  reg.counter("routed_total", "per-domain routes", obs::prometheus_label("domain", nasty)).inc(5);
  reg.gauge("queue_depth", "current depth").set(1.0);

  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# HELP routed_total per-domain routes"), std::string::npos);
  EXPECT_NE(text.find("# TYPE routed_total counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE queue_depth gauge"), std::string::npos);
  // The raw newline must not appear inside the sample line.
  EXPECT_NE(text.find("\\n"), std::string::npos);

  const auto parsed = obs::parse_prometheus_text(text);
  EXPECT_DOUBLE_EQ(parsed.at("routed_total{domain=\"dc\\\\0\\\"east\\nwing\"}"), 5.0);
  EXPECT_EQ(obs::prometheus_label("k", "a\\b\"c\nd"), "k=\"a\\\\b\\\"c\\nd\"");
}

TEST(Metrics, JsonSnapshotParses) {
  obs::MetricsRegistry reg;
  reg.counter("jobs_total", "jobs seen").inc(3);
  reg.histogram("rt_seconds", "response time", {1.0}).observe(0.5);
  const obs::JsonValue doc = obs::parse_json(reg.json());
  ASSERT_EQ(doc.type, obs::JsonValue::Type::kObject);
  EXPECT_NE(doc.find("jobs_total"), nullptr);
  EXPECT_NE(doc.find("rt_seconds"), nullptr);
}

// --- trace validator: counters and async arcs --------------------------------

namespace {

std::string wrap_events(const std::string& events) {
  return "{\"traceEvents\":[" + events + "]}";
}

}  // namespace

TEST(TraceCheck, CounterEventsNeedNumericArgs) {
  const std::string good = wrap_events(
      "{\"name\":\"queue\",\"ph\":\"C\",\"ts\":0,\"pid\":0,\"tid\":0,"
      "\"args\":{\"depth\":3,\"inflight\":1.5}}");
  EXPECT_TRUE(obs::validate_chrome_trace(good).empty());

  const std::string no_args = wrap_events(
      "{\"name\":\"queue\",\"ph\":\"C\",\"ts\":0,\"pid\":0,\"tid\":0}");
  auto problems = obs::validate_chrome_trace(no_args);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("has no args object"), std::string::npos);

  const std::string bad_arg = wrap_events(
      "{\"name\":\"queue\",\"ph\":\"C\",\"ts\":0,\"pid\":0,\"tid\":0,"
      "\"args\":{\"depth\":\"three\"}}");
  problems = obs::validate_chrome_trace(bad_arg);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("is not numeric"), std::string::npos);
}

TEST(TraceCheck, AsyncArcsMustBalancePerIdAndCat) {
  // A second begin for the same (cat, id) before the end is an emission bug.
  const std::string overlap = wrap_events(
      "{\"name\":\"m\",\"ph\":\"b\",\"cat\":\"migration\",\"id\":7,\"ts\":0,\"pid\":0,\"tid\":0},"
      "{\"name\":\"m\",\"ph\":\"b\",\"cat\":\"migration\",\"id\":7,\"ts\":1,\"pid\":0,\"tid\":0}");
  auto problems = obs::validate_chrome_trace(overlap);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("overlapping async begin"), std::string::npos);

  const std::string dangling_end = wrap_events(
      "{\"name\":\"m\",\"ph\":\"e\",\"cat\":\"migration\",\"id\":7,\"ts\":0,\"pid\":0,\"tid\":0}");
  problems = obs::validate_chrome_trace(dangling_end);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("with no open begin"), std::string::npos);

  // Distinct ids (or cats) are independent arcs; an arc still open at the
  // horizon (migration in flight) is legitimate.
  const std::string ok = wrap_events(
      "{\"name\":\"m\",\"ph\":\"b\",\"cat\":\"migration\",\"id\":7,\"ts\":0,\"pid\":0,\"tid\":0},"
      "{\"name\":\"m\",\"ph\":\"b\",\"cat\":\"migration\",\"id\":8,\"ts\":1,\"pid\":0,\"tid\":0},"
      "{\"name\":\"m\",\"ph\":\"e\",\"cat\":\"migration\",\"id\":7,\"ts\":2,\"pid\":0,\"tid\":0}");
  EXPECT_TRUE(obs::validate_chrome_trace(ok).empty());
}

// --- profiler ----------------------------------------------------------------

TEST(Profiler, ReportsPhasesInEnumOrderWithCallCounts) {
  obs::Profiler p;
  p.add(obs::Phase::kPolicySolve, 500, 2);
  p.add(obs::Phase::kControllerCycle, 1000);
  p.add(obs::Phase::kPolicySolve, 250);
  const obs::ProfileReport rep = p.report();
  ASSERT_EQ(rep.size(), 2u);  // untouched phases are omitted
  EXPECT_EQ(rep[0].name, obs::phase_name(obs::Phase::kControllerCycle));
  EXPECT_EQ(rep[0].calls, 1u);
  EXPECT_EQ(rep[0].total_ns, 1000u);
  EXPECT_EQ(rep[1].name, obs::phase_name(obs::Phase::kPolicySolve));
  EXPECT_EQ(rep[1].calls, 3u);
  EXPECT_EQ(rep[1].total_ns, 750u);
}

// --- spec validation and config surface --------------------------------------

TEST(ObsSpecValidation, FailsLoudly) {
  scenario::ObsSpec spec;
  spec.trace = "chrome";
  EXPECT_THROW(scenario::validate_obs_spec(spec), util::ConfigError);

  spec = {};
  spec.trace = "ring";
  spec.trace_ring_capacity = 0;
  EXPECT_THROW(scenario::validate_obs_spec(spec), util::ConfigError);

  spec = {};
  spec.trace = "stream";  // no path
  EXPECT_THROW(scenario::validate_obs_spec(spec), util::ConfigError);

  spec = {};
  spec.metrics_path = "/nonexistent-dir-xyz/metrics.prom";
  EXPECT_THROW(scenario::validate_obs_spec(spec), util::ConfigError);

  // A default spec is valid and constructs an empty bundle.
  spec = {};
  scenario::validate_obs_spec(spec);
  EXPECT_FALSE(scenario::make_observability(spec).any());
}

TEST(ObsConfig, KeysParseForOneAndManyDomains) {
  const std::string trace_path = temp_path("cfg_trace.json");
  const std::string cfg_text = "obs.trace = ring\nobs.trace_ring_capacity = 1024\n"
                               "obs.trace_path = " + trace_path + "\n"
                               "obs.trace_engine = true\nobs.profile = true\n";
  const auto s = scenario::scenario_from_config(util::Config::from_string(cfg_text));
  EXPECT_EQ(s.obs.trace, "ring");
  EXPECT_EQ(s.obs.trace_ring_capacity, 1024);
  EXPECT_EQ(s.obs.trace_path, trace_path);
  EXPECT_TRUE(s.obs.trace_engine);
  EXPECT_TRUE(s.obs.profile);

  const auto fs = scenario::scenario_from_config(
      util::Config::from_string("domains = 2\n" + cfg_text));
  EXPECT_EQ(fs.obs.trace, "ring");
  EXPECT_TRUE(fs.obs.profile);

  // Defaults: everything off.
  EXPECT_FALSE(scenario::scenario_from_config(util::Config{}).obs.any());
}

TEST(ObsConfig, DeadKeysRejected) {
  // trace-dependent keys with obs.trace=off are configuration mistakes.
  EXPECT_THROW((void)scenario::scenario_from_config(
                   util::Config::from_string("obs.trace_path = x.json\n")),
               util::ConfigError);
  EXPECT_THROW((void)scenario::scenario_from_config(
                   util::Config::from_string("obs.trace_ring_capacity = 64\n")),
               util::ConfigError);
  const std::string stream_path = temp_path("cfg_stream.json");
  EXPECT_THROW((void)scenario::scenario_from_config(util::Config::from_string(
                   "obs.trace = stream\nobs.trace_path = " + stream_path +
                   "\nobs.trace_ring_capacity = 64\n")),
               util::ConfigError);
  EXPECT_THROW((void)scenario::scenario_from_config(
                   util::Config::from_string("obs.trace = bogus\n")),
               util::ConfigError);
}

// --- invariance contracts ----------------------------------------------------

namespace {

/// Small federated scenario with every subsystem on and aligned control
/// phases, so the parallel engine really batches and every trace lane
/// (controller, executor, router, migration, power, faults) emits.
scenario::Scenario everything_on_scenario() {
  auto base = scenario::section3_scaled(0.2);  // 5 nodes
  base.seed = 42;
  base.horizon_s = 30000.0;
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
  return fs;
}

}  // namespace

TEST(Profiler, FederatedRunAccumulatesAllPhasesAndEngineRows) {
  // One shared profiler accumulates across the three domains' controller
  // cycles (worker threads, relaxed atomics) plus the serial spine.
  auto fs = everything_on_scenario();
  fs.engine_threads = 4;
  fs.obs.profile = true;
  const auto res = scenario::run_federated_experiment(fs, scenario::ExperimentOptions{});
  ASSERT_FALSE(res.profile.empty());

  const auto calls_of = [&](const std::string& name) -> std::uint64_t {
    for (const auto& row : res.profile) {
      if (row.name == name) return row.calls;
    }
    return 0;
  };
  // Three domains x (horizon / cycle) control cycles all fold into one row.
  EXPECT_GT(calls_of(obs::phase_name(obs::Phase::kControllerCycle)), 100u);
  EXPECT_GT(calls_of(obs::phase_name(obs::Phase::kPolicySolve)), 0u);
  EXPECT_GT(calls_of(obs::phase_name(obs::Phase::kMigrationTick)), 0u);
  EXPECT_GT(calls_of(obs::phase_name(obs::Phase::kPowerTick)), 0u);
  EXPECT_GT(calls_of(obs::phase_name(obs::Phase::kFaultEvent)), 0u);
  EXPECT_GT(calls_of(obs::phase_name(obs::Phase::kSampling)), 0u);
  // The runner appends engine/* rows from sim::EngineTiming.
  EXPECT_GT(calls_of("engine/serial_spine"), 0u);
  EXPECT_GT(calls_of("engine/batch_exec"), 0u);
}

TEST(ObsInvariance, SingleWorldObsOnIsDigestIdentical) {
  auto s = scenario::section3_scaled(0.15);
  s.seed = 7;
  s.horizon_s = 20000.0;
  s.power.enabled = true;
  scenario::ExperimentOptions opt;

  for (int threads : {1, 4}) {
    s.engine_threads = threads;
    s.obs = {};
    const auto off = scenario::digest(scenario::run_experiment(s, opt));
    s.obs.trace = "ring";
    s.obs.profile = true;
    s.obs.metrics_json_path = temp_path("single_metrics.json");
    const auto res = scenario::run_experiment(s, opt);
    EXPECT_EQ(scenario::digest(res), off) << "threads=" << threads;
    // The profile actually measured something and stayed out of the digest.
    EXPECT_FALSE(res.profile.empty());
  }
}

TEST(ObsInvariance, FederatedObsOnIsDigestIdentical) {
  auto fs = everything_on_scenario();
  scenario::ExperimentOptions opt;

  for (int threads : {1, 4}) {
    fs.engine_threads = threads;
    fs.obs = {};
    const auto off = scenario::digest(scenario::run_federated_experiment(fs, opt));
    fs.obs.trace = "ring";
    fs.obs.profile = true;
    fs.obs.metrics_path = temp_path("fed_metrics.prom");
    const auto res = scenario::run_federated_experiment(fs, opt);
    EXPECT_EQ(scenario::digest(res), off) << "threads=" << threads;
  }

  // The exported snapshot is real Prometheus text with live instruments.
  const auto parsed = obs::parse_prometheus_text(read_file(temp_path("fed_metrics.prom")));
  EXPECT_GT(parsed.at("federation_routed_jobs_total"), 0.0);
  EXPECT_GT(parsed.at("run_jobs_completed"), 0.0);
}

TEST(ObsInvariance, TraceFileByteIdenticalAcrossThreadCounts) {
  auto fs = everything_on_scenario();
  scenario::ExperimentOptions opt;
  fs.obs.trace = "ring";  // trace_engine stays off: that lane is exempt

  fs.engine_threads = 1;
  fs.obs.trace_path = temp_path("trace_t1.json");
  (void)scenario::run_federated_experiment(fs, opt);

  fs.engine_threads = 4;
  fs.obs.trace_path = temp_path("trace_t4.json");
  const auto res = scenario::run_federated_experiment(fs, opt);
  // The parallel run must actually have exercised the staging/merge path.
  EXPECT_GT(res.engine.parallel_batches, 0u);

  const std::string t1 = read_file(temp_path("trace_t1.json"));
  const std::string t4 = read_file(temp_path("trace_t4.json"));
  ASSERT_FALSE(t1.empty());
  EXPECT_EQ(t1, t4);
  EXPECT_TRUE(obs::validate_chrome_trace(t1).empty());
}

TEST(ObsInvariance, StreamedTraceValidates) {
  auto s = scenario::section3_scaled(0.15);
  s.seed = 7;
  s.horizon_s = 15000.0;
  s.obs.trace = "stream";
  s.obs.trace_path = temp_path("stream_trace.json");
  const auto res = scenario::run_experiment(s, scenario::ExperimentOptions{});
  EXPECT_GT(res.summary.jobs_completed, 0);
  const std::vector<std::string> problems =
      obs::validate_chrome_trace_file(s.obs.trace_path);
  EXPECT_TRUE(problems.empty()) << (problems.empty() ? "" : problems.front());
}

// --- emission-path pins -------------------------------------------------------

namespace {

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Runs the body with HETEROPLACE_FORCE_THREADS unset, so a pin taken at
/// engine.threads=1 holds under a forced-threads CI job too (the
/// engine_parallel_batches_total gauge depends on the thread count).
class UnforcedThreads {
 public:
  UnforcedThreads() {
    if (const char* v = std::getenv("HETEROPLACE_FORCE_THREADS")) saved_ = v;
    ::unsetenv("HETEROPLACE_FORCE_THREADS");
  }
  ~UnforcedThreads() {
    if (!saved_.empty()) ::setenv("HETEROPLACE_FORCE_THREADS", saved_.c_str(), 1);
  }
  UnforcedThreads(const UnforcedThreads&) = delete;
  UnforcedThreads& operator=(const UnforcedThreads&) = delete;

 private:
  std::string saved_;
};

/// everything_on_scenario() with every dump on: trace ring, both metrics
/// snapshots, SLA JSON/CSV (one SLO) and the audit ring, at threads=1.
scenario::Scenario all_dumps_scenario(const std::string& tag) {
  auto fs = everything_on_scenario();
  fs.engine_threads = 1;
  fs.slos.push_back({"web", 0.9, 7200.0, 1200.0, 1.0});
  fs.obs.trace = "ring";
  fs.obs.trace_path = temp_path(tag + "_trace.json");
  fs.obs.metrics_path = temp_path(tag + "_metrics.prom");
  fs.obs.metrics_json_path = temp_path(tag + "_metrics.json");
  fs.obs.sla_report_path = temp_path(tag + "_sla.json");
  fs.obs.sla_report_csv_path = temp_path(tag + "_sla.csv");
  fs.obs.audit = "ring";
  fs.obs.audit_path = temp_path(tag + "_audit.json");
  return fs;
}

}  // namespace

TEST(ObsInvariance, DumpsPinned) {
  // Every sink's end-of-run dump, pinned byte for byte: a refactor of the
  // emission path must leave all six files unchanged.
  const UnforcedThreads unforced;
  const auto fs = all_dumps_scenario("pin");
  (void)scenario::run_federated_experiment(fs, scenario::ExperimentOptions{});
  const std::pair<std::string, std::uint64_t> pins[] = {
      {fs.obs.trace_path, 0xd8b163b0be74004fULL},
      {fs.obs.metrics_path, 0xd1df26c74edc137cULL},
      {fs.obs.metrics_json_path, 0xa4c6908221df4297ULL},
      {fs.obs.sla_report_path, 0xa0a1acc47505bba4ULL},
      {fs.obs.sla_report_csv_path, 0xbefdcbac658ba32fULL},
      {fs.obs.audit_path, 0xe97386e46e13429aULL},
  };
  for (const auto& [path, want] : pins) {
    const std::string bytes = read_file(path);
    ASSERT_FALSE(bytes.empty()) << path;
    EXPECT_EQ(fnv1a64(bytes), want) << path << " 0x" << std::hex << fnv1a64(bytes);
  }
}

namespace {

/// What one run's dumps say: trace events by "<ph>:<name>", metrics
/// families summed over their label sets, and SLA-ledger job records.
struct SinkCounts {
  std::map<std::string, int> trace;
  std::map<std::string, double> metrics;
  int ledger_jobs{0};

  [[nodiscard]] int family(const std::string& name) const {
    double total = 0.0;
    for (const auto& [sample, v] : metrics) {
      if (sample == name || sample.rfind(name + "{", 0) == 0) total += v;
    }
    return static_cast<int>(total);
  }
};

SinkCounts run_and_count(scenario::Scenario fs) {
  fs.obs.trace_ring_capacity = 1L << 20;  // nothing drops
  (void)scenario::run_federated_experiment(fs, scenario::ExperimentOptions{});
  SinkCounts c;
  const obs::JsonValue doc = obs::parse_json(read_file(fs.obs.trace_path));
  for (const obs::JsonValue& ev : doc.find("traceEvents")->array) {
    if (ev.find("ph")->string == "M") continue;
    ++c.trace[ev.find("ph")->string + ":" + ev.find("name")->string];
  }
  c.metrics = obs::parse_prometheus_text(read_file(fs.obs.metrics_path));
  c.ledger_jobs = static_cast<int>(
      obs::parse_json(read_file(fs.obs.sla_report_path)).find("jobs")->array.size());
  return c;
}

}  // namespace

TEST(ObsInvariance, SinksAgreeOnControlEventCounts) {
  // One event, every sink: the trace's events, the SLA ledger's records
  // and the metrics counters must count the same control events.
  SinkCounts c = run_and_count(all_dumps_scenario("agree"));
  const int completed = c.trace["i:job_completed"];
  EXPECT_GT(completed, 0);
  EXPECT_EQ(completed, c.ledger_jobs);
  EXPECT_EQ(completed, c.family("run_jobs_completed"));

  EXPECT_GT(c.trace["b:migration"], 0);
  EXPECT_EQ(c.trace["b:migration"], c.family("migration_moves_started_total"));
  EXPECT_EQ(c.trace["i:move_completed"], c.family("migration_moves_completed_total"));

  const int faults = c.trace["i:node-crash"] + c.trace["i:link-down"] + c.trace["i:blackout"];
  EXPECT_EQ(faults, 2);
  EXPECT_EQ(faults, c.family("faults_injected_total"));

  // The everything-on scenario never idles a node, so power transitions
  // are checked on a diurnal two-domain run that parks overnight and
  // wakes for the next day's peak.
  scenario::Scenario s = scenario::section3_scaled(0.4);
  s.seed = 11;
  workload::DemandTrace diurnal;
  for (int day = 0; day < 2; ++day) {
    diurnal.add(util::Seconds{day * 86400.0}, 1.5);
    diurnal.add(util::Seconds{day * 86400.0 + 28800.0}, 14.0);
    diurnal.add(util::Seconds{day * 86400.0 + 64800.0}, 1.5);
  }
  s.apps[0].trace = diurnal;
  s.jobs.count = 30;
  s.jobs.mean_interarrival_s = 700.0;
  s.jobs.tmpl.work = util::MhzSeconds{6.0e6};
  s.horizon_s = 2.0 * 86400.0;
  s.power.enabled = true;
  s.power.idle_timeout_s = 1800.0;
  s.power.min_active_nodes = 2;
  scenario::Scenario power = scenario::federate(s, 2);
  const scenario::Scenario dumps = all_dumps_scenario("agree_power");
  power.slos = dumps.slos;
  power.obs = dumps.obs;
  c = run_and_count(power);
  EXPECT_GT(c.trace["i:park"], 0);
  EXPECT_EQ(c.trace["i:park"], c.family("power_parks_total"));
  EXPECT_GT(c.trace["i:wake"], 0);
  EXPECT_EQ(c.trace["i:wake"], c.family("power_wakes_total"));
  EXPECT_EQ(c.trace["i:job_completed"], c.ledger_jobs);
  EXPECT_EQ(c.trace["i:job_completed"], c.family("run_jobs_completed"));
}
