// heteroplace_bench: the repo benchmark. See README.md for the workloads,
// the metrics and how to read the output.
//
// Usage (run from the repo root; bench/e2e/run.sh builds and calls it):
//   heteroplace_bench [--workload=NAME|all] [--seed=N] [--reps=N]
//                     [--seconds=S] [--traced | --trace=0|1]
// Options take `--opt=value` or `--opt value`.
//
// The parent process never simulates. Each measurement runs in a fresh
// child (fork + exec of this binary) whose environment pins OpenMP to one
// thread, so peak RSS and allocator state belong to one workload and the
// process tree runs no more threads than the engine's worker pool. The
// child reports over a pipe, one record per line:
//   m <name> <value>   a number          s <name> <t0_us> <t1_us>  a span
//   f <text>           a failed check    n <attempted> <failed>    run counts
//   d <hex>            the result digest
// The parent adds the cross-run checks and the metrics that compare two
// children, then prints every metric by name with its unit.
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "obs/sla.hpp"
#include "obs/trace_check.hpp"
#include "scenario/federation_experiment.hpp"
#include "scenario/result_digest.hpp"
#include "workloads.hpp"

#ifndef HETEROPLACE_BENCH_BUILD_TYPE
#define HETEROPLACE_BENCH_BUILD_TYPE "unknown"
#endif

extern char** environ;

namespace {

using namespace heteroplace;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kDefaultSeed = 20080625;
constexpr int kSetupReps = 11;
// A zero-horizon run: builds engine, domains, routers and the job stream,
// schedules the arrivals, fires the t=0 events and stops.
constexpr double kSetupHorizonS = 1e-6;
// A child stops adding timed reps past this, whatever --seconds asks, so
// a single child stays well inside three minutes.
constexpr double kChildBudgetS = 120.0;
const std::string kOutDir = "bench_out/e2e";
const std::string kBaselinePath = "bench/e2e/baseline.json";

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics, measured with tracing off.
const std::vector<MetricDef> kEndToEnd = {
    {"wall_s", "s"},          {"sim_s_per_wall_s", "sim_s/s"}, {"cpu_s", "s"},
    {"setup_s", "s"},         {"peak_rss_mb", "MB"},          {"sla_goal_met", "fraction"},
    {"tx_utility_mean", "utility"},
};

// Per-layer metrics, from the traced run (--traced / --trace 1).
const std::vector<MetricDef> kPerLayer = {
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.serial_spine_ms", "ms"},
    {"sim.serial_share", "share"},
    {"sim.batch_exec_ms", "ms"},
    {"sim.merge_barrier_ms", "ms"},
    {"sim.parallel_batches", "count"},
    {"sim.batched_share", "share"},
    {"sim.batch_width", "threads"},
    {"sim.dispatch_share", "share"},
    {"federation.arrival_ms", "ms"},
    {"federation.arrival_us_per_job", "us"},
    {"federation.routed_jobs", "count"},
    {"core.cycles", "count"},
    {"core.cycle_ms", "ms"},
    {"core.cycle_us_per_call", "us"},
    {"core.equalize_ms", "ms"},
    {"core.build_problem_ms", "ms"},
    {"core.solve_ms", "ms"},
    {"core.executor_apply_ms", "ms"},
    {"core.actions", "count"},
    {"core.actions_per_completion", "ratio"},
    {"core.invariant_violations", "count"},
    {"power.tick_ms", "ms"},
    {"power.tick_us_per_call", "us"},
    {"power.parks", "count"},
    {"power.wakes", "count"},
    {"migration.tick_ms", "ms"},
    {"migration.started", "count"},
    {"migration.completed", "count"},
    {"migration.success_ratio", "share"},
    {"migration.retries", "count"},
    {"migration.link_wait_s", "sim_s"},
    {"faults.event_ms", "ms"},
    {"faults.node_crashes", "count"},
    {"faults.blackouts", "count"},
    {"faults.jobs_reverted", "count"},
    {"faults.availability", "share"},
    {"scenario.sampling_ms", "ms"},
    {"scenario.sampling_us_per_call", "us"},
    {"scenario.digest_ms", "ms"},
    {"workload.generate_ms", "ms"},
    {"obs.traced_overhead_share", "share"},
    {"obs.sink_overhead_share", "share"},
    {"obs.sink_rss_ratio", "ratio"},
    {"sla.queue_wait_share", "share"},
    {"sla.wake_share", "share"},
    {"sla.startup_share", "share"},
    {"sla.suspend_share", "share"},
    {"sla.resume_share", "share"},
    {"sla.contention_share", "share"},
    {"sla.redo_share", "share"},
    {"sla.migration_share", "share"},
    {"sla.ratio_p50", "ratio"},
    {"sla.ratio_p99", "ratio"},
    {"sla.tx_breach_share", "share"},
};

// ---------------------------------------------------------------------------
// Arguments

struct Args {
  std::string workload{"all"};
  std::uint64_t seed{kDefaultSeed};
  int reps{3};
  double seconds{0.0};  // timed reps continue until this much time is spent
  bool traced{false};
  std::string child;    // internal: "timed" or "traced" in a re-executed child
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "heteroplace_bench: %s\n"
               "usage: heteroplace_bench [--workload=NAME|all] [--seed=N] [--reps=N]\n"
               "                         [--seconds=S] [--traced | --trace=0|1]\n",
               error.c_str());
  std::exit(2);
}

template <typename T>
T parse_number(const std::string& key, const std::string& text) {
  std::istringstream in(text);
  T v{};
  if (!(in >> v) || !in.eof()) usage("bad value '" + text + "' for --" + key);
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) usage("unexpected argument '" + arg + "'");
    arg = arg.substr(2);
    if (arg == "traced") {
      a.traced = true;
      continue;
    }
    std::string key = arg;
    std::string value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      key = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage("--" + key + " needs a value");
    }
    if (key == "workload") {
      a.workload = value;
    } else if (key == "seed") {
      a.seed = parse_number<std::uint64_t>(key, value);
    } else if (key == "reps") {
      a.reps = parse_number<int>(key, value);
      if (a.reps < 1) usage("--reps must be at least 1");
    } else if (key == "seconds") {
      a.seconds = parse_number<double>(key, value);
      if (a.seconds < 0.0) usage("--seconds must be nonnegative");
    } else if (key == "trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.traced = value == "1";
    } else if (key == "child") {
      a.child = value;
    } else {
      usage("unknown option --" + key);
    }
  }
  const auto& names = bench::workload_names();
  if (a.workload != "all" && std::find(names.begin(), names.end(), a.workload) == names.end()) {
    std::string known;
    for (const auto& n : names) known += " " + n;
    usage("unknown workload '" + a.workload + "' (known: all" + known + ")");
  }
  return a;
}

int engine_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double since_s(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Member `key` of a JSON object; throws if absent.
const obs::JsonValue& member(const obs::JsonValue& v, const std::string& key) {
  const obs::JsonValue* m = v.find(key);
  if (m == nullptr) throw std::runtime_error("json: missing key '" + key + "'");
  return *m;
}

double num(const obs::JsonValue& v, const std::string& key) { return member(v, key).number; }

/// The result digest baseline.json pins for `workload` at `seed`; 0 (no
/// pin) at any other seed than the default.
std::uint64_t pinned_digest(const std::string& workload, std::uint64_t seed) {
  if (seed != kDefaultSeed) return 0;
  const obs::JsonValue doc = obs::parse_json(read_file(kBaselinePath));
  const obs::JsonValue* w = member(doc, "workloads").find(workload);
  if (w == nullptr) return 0;
  return std::stoull(member(*w, "result_digest").string, nullptr, 16);
}

// ---------------------------------------------------------------------------
// Child side

/// Reports one line per record on stdout (the pipe to the parent).
class Reporter {
 public:
  void metric(const std::string& name, double v) {
    std::printf("m %s %s\n", name.c_str(), obs::format_double(v).c_str());
  }
  void span(const char* name, std::int64_t t0_us, std::int64_t t1_us) {
    std::printf("s %s %lld %lld\n", name, static_cast<long long>(t0_us),
                static_cast<long long>(t1_us));
  }
  void fail(const std::string& what) {
    std::printf("f %s\n", what.c_str());
    ok_ = false;
  }
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  bool ok_{true};
};

/// Output checks shared by every run; returns the failures.
std::vector<std::string> check_run(const bench::Workload& w, const scenario::FederatedResult& r,
                                   long expected_jobs, bool full_run) {
  std::vector<std::string> bad;
  const auto expect = [&bad](bool ok, const std::string& what) {
    if (!ok) bad.push_back(what);
  };
  long in_worlds = 0;
  for (const auto& d : r.domains) in_worlds += d.result.summary.jobs_submitted;
  expect(in_worlds + r.migration.in_flight == expected_jobs,
         "job conservation: " + std::to_string(in_worlds) + " in worlds + " +
             std::to_string(r.migration.in_flight) + " in flight != " +
             std::to_string(expected_jobs) + " generated");
  expect(r.summary.jobs_completed <= r.summary.jobs_submitted, "completed > submitted");
  if (!full_run) return bad;
  expect(r.summary.jobs_completed > 0, "no job completed");
  const std::string& n = w.name;
  if ((n == "fed_aligned" || n == "fed_aligned_obs") && w.scenario.engine_threads > 1) {
    expect(r.engine.parallel_batches > 0, "aligned phases formed no parallel batch");
  }
  if (n == "fed_churn") {
    expect(r.faults.node_crashes > 0, "no node crash");
    expect(r.faults.blackouts > 0, "no domain blackout");
    expect(r.migration.completed > 0, "no completed migration");
  }
  if (n.rfind("paper_x", 0) == 0) {
    expect(r.summary.goal_met_fraction < 1.0, "every job met its goal: not crowded");
  }
  return bad;
}

long jobs_due(const std::vector<workload::JobSpec>& jobs, double horizon_s) {
  if (horizon_s <= 0.0) return static_cast<long>(jobs.size());
  return static_cast<long>(std::count_if(jobs.begin(), jobs.end(), [&](const auto& j) {
    return j.submit_time.get() <= horizon_s;
  }));
}

/// Mean sampled tx utility over every app of every domain, each sample
/// floored at 0. A sample that misses its RT goal is worth nothing; the
/// floor keeps the -1000 an app scores while it has no capacity (between
/// a node crash and the next control cycle) from swamping the mean.
double tx_utility_mean(const bench::Workload& w, const scenario::FederatedResult& r) {
  double sum = 0.0;
  long n = 0;
  for (const auto& d : r.domains) {
    for (const auto& app : w.scenario.apps) {
      const util::TimeSeries* s = d.result.series.find("tx_utility_" + app.spec.name);
      if (s == nullptr) continue;
      for (const auto& p : s->points()) sum += std::max(0.0, p.v);
      n += static_cast<long>(s->size());
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto s = [](const timeval& t) { return static_cast<double>(t.tv_sec) + t.tv_usec / 1e6; };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// One timed run first, in the fresh process, so peak RSS is that of one
/// run whatever the rep count; then the setup reps; then more timed runs
/// until both --reps and --seconds (of timed runs) are met.
void child_timed(const Args& a, Reporter& rep) {
  const bench::Workload w = bench::make_workload(a.workload, a.seed, engine_threads(), kOutDir);
  const std::vector<workload::JobSpec> jobs = bench::generate_job_stream(w.scenario);
  const std::uint64_t pin = pinned_digest(a.workload, a.seed);
  const auto child_t0 = Clock::now();
  long attempted = 0;
  long failed = 0;

  std::vector<double> walls, cpus;
  double spent = 0.0;
  std::uint64_t digest = 0;
  std::optional<scenario::FederatedResult> first;
  const auto timed_rep = [&](int i) {
    ++attempted;
    const double cpu0 = cpu_seconds();
    const std::int64_t t0 = now_us();
    scenario::FederatedResult r = scenario::run_federated_experiment(w.scenario);
    const std::int64_t t1 = now_us();
    const double cpu = cpu_seconds() - cpu0;
    const double wall = static_cast<double>(t1 - t0) / 1e6;
    spent += wall;
    rep.span("run", t0, t1);

    const std::int64_t d0 = now_us();
    const std::uint64_t d = scenario::digest(r);
    rep.span("digest", d0, now_us());
    const std::int64_t k0 = now_us();
    auto bad = check_run(w, r, jobs_due(jobs, w.scenario.horizon_s), /*full_run=*/true);
    if (first && d != digest) bad.push_back("digest " + hex(d) + " != first rep " + hex(digest));
    if (pin != 0 && d != pin) bad.push_back("digest " + hex(d) + " != pinned " + hex(pin));
    rep.span("checks", k0, now_us());
    for (const auto& b : bad) rep.fail("timed rep " + std::to_string(i) + ": " + b);
    if (!bad.empty()) {
      ++failed;
      return;
    }
    if (!first) {
      digest = d;
      first = std::move(r);
    }
    walls.push_back(wall);
    cpus.push_back(cpu);
  };

  timed_rep(0);
  const double rss_mb = peak_rss_mb();

  std::vector<double> setup;
  for (int i = 0; i < kSetupReps; ++i) {
    scenario::ExperimentOptions opts;
    opts.horizon_override_s = kSetupHorizonS;
    ++attempted;
    const std::int64_t t0 = now_us();
    const scenario::FederatedResult r = scenario::run_federated_experiment(w.scenario, opts);
    const std::int64_t t1 = now_us();
    rep.span("setup", t0, t1);
    auto bad = check_run(w, r, jobs_due(jobs, kSetupHorizonS), /*full_run=*/false);
    if (r.summary.sim_end_time_s != kSetupHorizonS) bad.push_back("setup run did not stop");
    for (const auto& b : bad) rep.fail("setup rep " + std::to_string(i) + ": " + b);
    if (bad.empty()) setup.push_back(static_cast<double>(t1 - t0) / 1e6);
    else ++failed;
  }

  for (int i = 1; i < a.reps || spent < a.seconds; ++i) {
    if (i >= a.reps && since_s(child_t0) >= kChildBudgetS) break;
    timed_rep(i);
  }
  std::printf("n %ld %ld\n", attempted, failed);
  if (!first || setup.empty()) {
    rep.fail("no successful run");
    return;
  }
  std::printf("d %s\n", hex(digest).c_str());
  const double setup_s = median(setup);
  const double wall_s = median(walls) - setup_s;
  const auto& s = first->summary;
  rep.metric("setup_s", setup_s);
  rep.metric("setup_s.min", *std::min_element(setup.begin(), setup.end()));
  rep.metric("setup_s.max", *std::max_element(setup.begin(), setup.end()));
  rep.metric("rep_wall_s", median(walls));
  rep.metric("wall_s", wall_s);
  rep.metric("wall_s.min", *std::min_element(walls.begin(), walls.end()) - setup_s);
  rep.metric("wall_s.max", *std::max_element(walls.begin(), walls.end()) - setup_s);
  rep.metric("cpu_s", median(cpus));
  rep.metric("cpu_s.min", *std::min_element(cpus.begin(), cpus.end()));
  rep.metric("cpu_s.max", *std::max_element(cpus.begin(), cpus.end()));
  rep.metric("peak_rss_mb", rss_mb);
  rep.metric("sim_s_per_wall_s", s.sim_end_time_s / wall_s);
  rep.metric("sla_goal_met", s.goal_met_fraction);
  rep.metric("tx_utility_mean", tx_utility_mean(w, *first));
  rep.metric("reps", static_cast<double>(walls.size()));
}

double profile_ms(const obs::ProfileReport& p, const std::string& row) {
  for (const auto& e : p) {
    if (e.name == row) return static_cast<double>(e.total_ns) / 1e6;
  }
  return 0.0;
}

double profile_us_per_call(const obs::ProfileReport& p, const std::string& row) {
  for (const auto& e : p) {
    if (e.name == row && e.calls > 0) return static_cast<double>(e.total_ns) / 1e3 / e.calls;
  }
  return 0.0;
}

/// Sum of every sample of a metrics-snapshot family (0 when absent).
double family_total(const obs::JsonValue& snapshot, const std::string& family) {
  const obs::JsonValue* f = snapshot.find(family);
  if (f == nullptr) return 0.0;
  double total = 0.0;
  for (const auto& s : member(*f, "samples").array) total += num(s, "value");
  return total;
}

/// The "merged" object of an SLA report. Only that slice is parsed: the
/// report's per-job records, which follow it, run to tens of MB.
obs::JsonValue sla_merged(const std::string& report) {
  const std::string open = "\"merged\":";
  const std::size_t begin = report.find(open);
  const std::size_t end = report.find(",\"domains\":", begin);
  if (begin == std::string::npos || end == std::string::npos) {
    throw std::runtime_error("SLA report has no merged section");
  }
  return obs::parse_json(report.substr(begin + open.size(), end - begin - open.size()));
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// One run with the program's own profiling, metrics snapshot, SLA report
/// and invariant validation switched on; reports the per-layer metrics
/// that one child can measure.
void child_traced(const Args& a, Reporter& rep) {
  bench::Workload w = bench::make_workload(a.workload, a.seed, engine_threads(), kOutDir);
  const std::string metrics_path = kOutDir + "/" + w.name + ".metrics.json";
  const std::string sla_path = kOutDir + "/" + w.name + ".sla.json";
  w.scenario.obs.profile = true;
  w.scenario.obs.metrics_json_path = metrics_path;
  w.scenario.obs.sla_report_path = sla_path;
  scenario::ExperimentOptions opts;
  opts.validate_invariants = true;
  const std::uint64_t pin = pinned_digest(a.workload, a.seed);

  std::int64_t t0 = now_us();
  const std::vector<workload::JobSpec> jobs = bench::generate_job_stream(w.scenario);
  std::int64_t t1 = now_us();
  rep.span("generate", t0, t1);
  rep.metric("workload.generate_ms", static_cast<double>(t1 - t0) / 1e3);

  t0 = now_us();
  const scenario::FederatedResult r = scenario::run_federated_experiment(w.scenario, opts);
  t1 = now_us();
  rep.span("run", t0, t1);
  const double traced_wall_s = static_cast<double>(t1 - t0) / 1e6;

  t0 = now_us();
  const std::uint64_t d = scenario::digest(r);
  t1 = now_us();
  rep.span("digest", t0, t1);
  rep.metric("scenario.digest_ms", static_cast<double>(t1 - t0) / 1e3);
  std::printf("d %s\n", hex(d).c_str());

  t0 = now_us();
  auto bad = check_run(w, r, jobs_due(jobs, w.scenario.horizon_s), /*full_run=*/true);
  if (r.summary.invariant_violations != 0) {
    bad.push_back(std::to_string(r.summary.invariant_violations) + " invariant violations");
  }
  if (pin != 0 && d != pin) bad.push_back("digest " + hex(d) + " != pinned " + hex(pin));
  const obs::JsonValue snapshot = obs::parse_json(read_file(metrics_path));
  const obs::JsonValue merged = sla_merged(read_file(sla_path));
  rep.span("checks", t0, now_us());
  for (const auto& b : bad) rep.fail("traced run: " + b);
  std::printf("n 1 %d\n", bad.empty() ? 0 : 1);
  if (!bad.empty()) return;

  const obs::ProfileReport& p = r.profile;
  const scenario::EngineStats& e = r.engine;
  const scenario::ExperimentSummary& s = r.summary;
  const double spine_ms = static_cast<double>(e.serial_spine_ns) / 1e6;
  const double batch_ms = static_cast<double>(e.batch_exec_ns) / 1e6;
  const double barrier_ms = static_cast<double>(e.merge_barrier_ns) / 1e6;
  const double dispatch_ms = spine_ms + batch_ms + barrier_ms;
  // Profiled phases that run inside batches: sharded controller cycles and
  // power ticks, minus the part of them the spine ran serially.
  const double in_batches_ms =
      profile_ms(p, "controller/cycle") + profile_ms(p, "power/tick") -
      profile_ms(p, "engine/serial/controller") - profile_ms(p, "engine/serial/power");
  rep.metric("traced_wall_s", traced_wall_s);
  rep.metric("sim.events", static_cast<double>(e.events_executed));
  rep.metric("sim.serial_spine_ms", spine_ms);
  rep.metric("sim.serial_share", ratio(spine_ms, dispatch_ms));
  rep.metric("sim.batch_exec_ms", batch_ms);
  rep.metric("sim.merge_barrier_ms", barrier_ms);
  rep.metric("sim.parallel_batches", static_cast<double>(e.parallel_batches));
  rep.metric("sim.batched_share",
             ratio(static_cast<double>(e.batched_events), static_cast<double>(e.events_executed)));
  rep.metric("sim.batch_width", ratio(std::max(0.0, in_batches_ms), batch_ms));
  rep.metric("sim.dispatch_share", ratio(dispatch_ms / 1e3, traced_wall_s));

  const double routed = family_total(snapshot, "federation_routed_jobs_total");
  const double arrival_ms = profile_ms(p, "engine/serial/arrival");
  rep.metric("federation.arrival_ms", arrival_ms);
  rep.metric("federation.arrival_us_per_job", ratio(arrival_ms * 1e3, routed));
  rep.metric("federation.routed_jobs", routed);

  const auto& ac = s.actions;
  const double actions = static_cast<double>(ac.starts + ac.suspends + ac.resumes + ac.migrations +
                                             ac.instance_starts + ac.instance_stops + ac.resizes);
  rep.metric("core.cycles", static_cast<double>(s.cycles));
  rep.metric("core.cycle_ms", profile_ms(p, "controller/cycle"));
  rep.metric("core.cycle_us_per_call", profile_us_per_call(p, "controller/cycle"));
  rep.metric("core.equalize_ms", profile_ms(p, "policy/equalize"));
  rep.metric("core.build_problem_ms", profile_ms(p, "policy/build_problem"));
  rep.metric("core.solve_ms", profile_ms(p, "policy/solve"));
  rep.metric("core.executor_apply_ms", profile_ms(p, "executor/apply"));
  rep.metric("core.actions", actions);
  rep.metric("core.actions_per_completion", ratio(actions, static_cast<double>(s.jobs_completed)));
  rep.metric("core.invariant_violations", static_cast<double>(s.invariant_violations));

  rep.metric("power.tick_ms", profile_ms(p, "power/tick"));
  rep.metric("power.tick_us_per_call", profile_us_per_call(p, "power/tick"));
  rep.metric("power.parks", family_total(snapshot, "power_parks_total"));
  rep.metric("power.wakes", family_total(snapshot, "power_wakes_total"));

  const migration::MigrationStats& m = r.migration;
  rep.metric("migration.tick_ms", profile_ms(p, "migration/tick"));
  rep.metric("migration.started", static_cast<double>(m.started));
  rep.metric("migration.completed", static_cast<double>(m.completed));
  rep.metric("migration.success_ratio",
             ratio(static_cast<double>(m.completed), static_cast<double>(m.started)));
  rep.metric("migration.retries", static_cast<double>(m.transfer_retries));
  rep.metric("migration.link_wait_s", m.queue_wait_seconds);

  rep.metric("faults.event_ms", profile_ms(p, "faults/event"));
  rep.metric("faults.node_crashes", static_cast<double>(r.faults.node_crashes));
  rep.metric("faults.blackouts", static_cast<double>(r.faults.blackouts));
  rep.metric("faults.jobs_reverted", static_cast<double>(r.faults.jobs_reverted));
  rep.metric("faults.availability", s.availability);

  rep.metric("scenario.sampling_ms", profile_ms(p, "sampling"));
  rep.metric("scenario.sampling_us_per_call", profile_us_per_call(p, "sampling"));

  const obs::JsonValue& c = member(merged, "components");
  const double lifetime = num(c, "queue_wait_s") + num(c, "wake_excluded_s") + num(c, "startup_s") +
                          num(c, "run_full_s") + num(c, "contention_s") + num(c, "redo_s") +
                          num(c, "suspend_s") + num(c, "resume_s") + num(c, "migration_s");
  rep.metric("sla.queue_wait_share", ratio(num(c, "queue_wait_s"), lifetime));
  rep.metric("sla.wake_share", ratio(num(c, "wake_excluded_s"), lifetime));
  rep.metric("sla.startup_share", ratio(num(c, "startup_s"), lifetime));
  rep.metric("sla.suspend_share", ratio(num(c, "suspend_s"), lifetime));
  rep.metric("sla.resume_share", ratio(num(c, "resume_s"), lifetime));
  rep.metric("sla.contention_share", ratio(num(c, "contention_s"), lifetime));
  rep.metric("sla.redo_share", ratio(num(c, "redo_s"), lifetime));
  rep.metric("sla.migration_share", ratio(num(c, "migration_s"), lifetime));
  rep.metric("sla.ratio_p50", num(member(merged, "ratio_quantiles"), "p50"));
  rep.metric("sla.ratio_p99", num(member(merged, "ratio_quantiles"), "p99"));
  double samples = 0.0;
  double breaches = 0.0;
  for (const auto& app : member(merged, "tx_apps").array) {
    samples += num(app, "samples");
    breaches += num(app, "breaches");
  }
  rep.metric("sla.tx_breach_share", ratio(breaches, samples));
}

int child_main(const Args& a) {
  Reporter rep;
  try {
#ifdef _OPENMP
    // libgomp sizes its pool from the environment at load time; an
    // omp_set_num_threads() in main would not reach engine workers.
    if (omp_get_max_threads() != 1) {
      rep.fail("OpenMP runs " + std::to_string(omp_get_max_threads()) +
               " threads; the parent must export OMP_NUM_THREADS=1");
      return 1;
    }
#endif
    if (a.child == "timed") {
      child_timed(a, rep);
    } else if (a.child == "traced") {
      child_traced(a, rep);
    } else {
      usage("unknown child role '" + a.child + "'");
    }
  } catch (const std::exception& e) {
    // Includes the SLA ledger's closure assertion (std::logic_error).
    rep.fail(std::string("exception: ") + e.what());
  }
  std::fflush(stdout);
  return rep.ok() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Parent side

struct Span {
  std::string name;
  std::int64_t t0_us;
  std::int64_t t1_us;
  int pid;
};

struct ChildOutput {
  std::map<std::string, double> m;
  std::vector<Span> spans;
  std::vector<std::string> failures;
  long attempted{0};
  long failed{0};
  std::string digest;

  [[nodiscard]] double at(const std::string& key) const {
    const auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
  }
};

std::string self_exe() {
  std::error_code ec;
  const auto p = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) throw std::runtime_error("cannot resolve /proc/self/exe: " + ec.message());
  return p.string();
}

/// fork + exec this binary as a child in `role`, collect its records and
/// wait for it to end. OMP_NUM_THREADS=1 is exported before exec; the
/// engine-thread override HETEROPLACE_FORCE_THREADS is removed.
ChildOutput run_child(const std::string& role, const std::string& workload, const Args& a) {
  std::vector<std::string> args = {self_exe(),
                                   "--child=" + role,
                                   "--workload=" + workload,
                                   "--seed=" + std::to_string(a.seed),
                                   "--reps=" + std::to_string(a.reps),
                                   "--seconds=" + obs::format_double(a.seconds)};
  std::vector<std::string> env = {"OMP_NUM_THREADS=1"};
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("OMP_NUM_THREADS=", 0) == 0 || kv.rfind("HETEROPLACE_FORCE_THREADS=", 0) == 0) {
      continue;
    }
    env.push_back(kv);
  }
  std::vector<char*> argv_c, envp_c;
  for (auto& s : args) argv_c.push_back(s.data());
  argv_c.push_back(nullptr);
  for (auto& s : env) envp_c.push_back(s.data());
  envp_c.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execve(argv_c[0], argv_c.data(), envp_c.data());
    _exit(127);
  }
  close(fds[1]);
  std::string text;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n > 0) {
      text.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }

  ChildOutput out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.size() < 2) continue;
    std::istringstream f(line.substr(2));
    switch (line[0]) {
      case 'm': {
        std::string name;
        double v = 0.0;
        f >> name >> v;
        out.m[name] = v;
        break;
      }
      case 's': {
        Span s{"", 0, 0, pid};
        f >> s.name >> s.t0_us >> s.t1_us;
        out.spans.push_back(s);
        break;
      }
      case 'f':
        out.failures.push_back(workload + " (" + role + "): " + line.substr(2));
        break;
      case 'n':
        f >> out.attempted >> out.failed;
        break;
      case 'd':
        f >> out.digest;
        break;
      default:
        break;
    }
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    out.failures.push_back(workload + " (" + role + "): child exited with status " +
                           std::to_string(WIFEXITED(status) ? WEXITSTATUS(status) : -1));
    if (out.attempted == 0) out.attempted = 1;
    if (out.failed == 0) out.failed = 1;
  }
  return out;
}

struct WorkloadResult {
  std::string name;
  ChildOutput timed;
  std::optional<ChildOutput> traced;
  std::optional<ChildOutput> sink_base;  // fed_aligned, for fed_aligned_obs's obs.* ratios
  std::map<std::string, double> e2e;
  std::map<std::string, double> layers;
  std::vector<std::string> failures;
  long attempted{0};
  long failed{0};
};

WorkloadResult measure(const std::string& name, const Args& a) {
  WorkloadResult w;
  w.name = name;
  std::fprintf(stderr, "[bench] %s: timed runs (seed %llu)\n", name.c_str(),
               static_cast<unsigned long long>(a.seed));
  w.timed = run_child("timed", name, a);
  const ChildOutput& t = w.timed;
  for (const MetricDef& d : kEndToEnd) {
    if (t.m.count(d.name) != 0) w.e2e[d.name] = t.at(d.name);
  }
  w.failures = t.failures;
  w.attempted = t.attempted;
  w.failed = t.failed;
  if (!a.traced) return w;

  std::fprintf(stderr, "[bench] %s: traced run\n", name.c_str());
  w.traced = run_child("traced", name, a);
  const ChildOutput& tr = *w.traced;
  w.failures.insert(w.failures.end(), tr.failures.begin(), tr.failures.end());
  w.attempted += tr.attempted;
  w.failed += tr.failed;
  bool traced_ok = tr.failures.empty();
  const auto cross_check = [&](bool ok, const std::string& what) {
    if (ok) return;
    w.failures.push_back(name + ": " + what);
    traced_ok = false;
  };
  cross_check(tr.digest == t.digest, "traced digest " + tr.digest + " != timed " + t.digest);

  double sink_overhead = 0.0;
  double sink_rss = 1.0;
  if (name == "fed_aligned_obs") {
    std::fprintf(stderr, "[bench] %s: fed_aligned timed runs for the sink ratios\n", name.c_str());
    w.sink_base = run_child("timed", "fed_aligned", a);
    const ChildOutput& b = *w.sink_base;
    w.failures.insert(w.failures.end(), b.failures.begin(), b.failures.end());
    w.attempted += b.attempted;
    w.failed += b.failed;
    cross_check(b.digest == t.digest, "digest " + t.digest + " != fed_aligned " + b.digest);
    sink_overhead = ratio(t.at("rep_wall_s"), b.at("rep_wall_s")) - 1.0;
    sink_rss = ratio(t.at("peak_rss_mb"), b.at("peak_rss_mb"));
  }
  if (!traced_ok) {
    if (tr.failures.empty()) ++w.failed;
    return w;
  }
  for (const MetricDef& d : kPerLayer) {
    if (tr.m.count(d.name) != 0) w.layers[d.name] = tr.at(d.name);
  }
  w.layers["sim.events_per_s"] = ratio(tr.at("sim.events"), t.at("wall_s"));
  w.layers["obs.traced_overhead_share"] = ratio(tr.at("traced_wall_s"), t.at("rep_wall_s")) - 1.0;
  w.layers["obs.sink_overhead_share"] = sink_overhead;
  w.layers["obs.sink_rss_ratio"] = sink_rss;
  return w;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string metrics_object(const std::map<std::string, double>& values,
                           const std::vector<MetricDef>& defs, const ChildOutput* spread) {
  std::string out = "{";
  bool first = true;
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    if (it == values.end()) continue;
    out += (first ? "" : ", ") + quote(d.name) +
           ": {\"value\": " + obs::format_double(it->second) + ", \"unit\": " + quote(d.unit);
    const std::string lo = std::string(d.name) + ".min";
    if (spread != nullptr && spread->m.count(lo) != 0) {
      out += ", \"min\": " + obs::format_double(spread->at(lo)) +
             ", \"max\": " + obs::format_double(spread->at(std::string(d.name) + ".max"));
    }
    out += "}";
    first = false;
  }
  return out + "}";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::trunc);
  f << text;
  if (!f) throw std::runtime_error("cannot write " + path);
}

void write_outputs(const std::vector<WorkloadResult>& results, const Args& a,
                   std::int64_t start_us) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"heteroplace-e2e/v1\",\n"
     << "  \"seed\": " << a.seed << ",\n  \"reps\": " << a.reps
     << ",\n  \"seconds\": " << obs::format_double(a.seconds) << ",\n  \"traced\": "
     << (a.traced ? "true" : "false") << ",\n"
     << "  \"hardware_threads\": " << std::thread::hardware_concurrency() << ",\n"
     << "  \"engine_threads\": " << engine_threads() << ",\n"
     << "  \"omp_num_threads\": 1,\n"
     << "  \"compiler\": " << quote(compiler()) << ",\n"
     << "  \"build_type\": " << quote(HETEROPLACE_BENCH_BUILD_TYPE) << ",\n"
     << "  \"workloads\": {";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& w = results[i];
    os << (i == 0 ? "\n" : ",\n") << "    " << quote(w.name) << ": {\"runs_attempted\": "
       << w.attempted << ", \"runs_failed\": " << w.failed
       << ", \"result_digest\": " << quote(w.timed.digest)
       << ", \"reps\": " << obs::format_double(w.timed.at("reps"))
       << ",\n      \"metrics\": " << metrics_object(w.e2e, kEndToEnd, &w.timed);
    if (a.traced) os << ",\n      \"layers\": " << metrics_object(w.layers, kPerLayer, nullptr);
    os << ",\n      \"failures\": [";
    for (std::size_t k = 0; k < w.failures.size(); ++k) {
      os << (k == 0 ? "" : ", ") << quote(w.failures[k]);
    }
    os << "]}";
  }
  os << "\n  }\n}\n";
  write_text(kOutDir + "/results.json", os.str());
  if (!a.traced) return;

  std::ostringstream ls;
  ls << "{";
  for (std::size_t i = 0; i < results.size(); ++i) {
    ls << (i == 0 ? "\n" : ",\n") << "  " << quote(results[i].name) << ": "
       << metrics_object(results[i].layers, kPerLayer, nullptr);
  }
  ls << "\n}\n";
  write_text(kOutDir + "/layers.json", ls.str());

  // Chrome trace of the harness's own spans: one process per child.
  std::ostringstream ts;
  ts << "{\"traceEvents\": [";
  bool first = true;
  for (const WorkloadResult& w : results) {
    const std::vector<std::pair<const char*, const ChildOutput*>> children = {
        {"timed", &w.timed},
        {"traced", w.traced ? &*w.traced : nullptr},
        {"fed_aligned timed", w.sink_base ? &*w.sink_base : nullptr}};
    for (const auto& [role, c] : children) {
      if (c == nullptr || c->spans.empty()) continue;
      const int pid = c->spans.front().pid;
      ts << (first ? "\n" : ",\n") << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": "
         << pid << ", \"args\": {\"name\": " << quote(w.name + " " + role) << "}}";
      first = false;
      for (const Span& s : c->spans) {
        ts << ",\n{\"name\": " << quote(s.name) << ", \"ph\": \"X\", \"pid\": " << s.pid
           << ", \"tid\": 1, \"ts\": " << (s.t0_us - start_us)
           << ", \"dur\": " << (s.t1_us - s.t0_us) << "}";
      }
    }
  }
  ts << "\n]}\n";
  write_text(kOutDir + "/harness_trace.json", ts.str());
}

int parent_main(const Args& a) {
  const std::int64_t start_us = now_us();
  std::filesystem::create_directories(kOutDir);
  std::vector<std::string> names;
  if (a.workload == "all") names = bench::workload_names();
  else names = {a.workload};

  std::vector<WorkloadResult> results;
  for (const auto& n : names) results.push_back(measure(n, a));
  write_outputs(results, a, start_us);

  long attempted = 0;
  long failed = 0;
  bool correct = true;
  std::string metrics;
  const bool prefix = names.size() > 1;
  for (const WorkloadResult& w : results) {
    attempted += w.attempted;
    failed += w.failed;
    correct = correct && w.failures.empty();
    std::printf("%s: runs %ld attempted, %ld failed; digest %s\n", w.name.c_str(), w.attempted,
                w.failed, w.timed.digest.c_str());
    for (const auto& f : w.failures) std::printf("  FAIL %s\n", f.c_str());
    const auto& shown = a.traced ? w.layers : w.e2e;
    for (const MetricDef& d : a.traced ? kPerLayer : kEndToEnd) {
      const auto it = shown.find(d.name);
      if (it == shown.end()) continue;
      std::printf("  %-32s %14.6g %s\n", d.name, it->second, d.unit);
      metrics += std::string(metrics.empty() ? "" : ", ") +
                 quote(prefix ? w.name + "/" + d.name : std::string(d.name)) +
                 ": {\"value\": " + obs::format_double(it->second) +
                 ", \"unit\": " + quote(d.unit) + "}";
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted, failed, metrics.c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  if (!a.child.empty()) return child_main(a);
  try {
    return parent_main(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "heteroplace_bench: %s\n", e.what());
    return 1;
  }
}
