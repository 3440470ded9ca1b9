#include "workloads.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "util/rng.hpp"
#include "workload/arrival.hpp"
#include "workload/job_factory.hpp"

namespace heteroplace::bench {

namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr double kNodeCpuMhz = 12000.0;  // 4 processors x 3000 MHz
constexpr double kNodeMemMb = 4096.0;

// Sizes are chosen so one run takes a few seconds on a 4-core host: long
// enough to be self-averaging, short enough for several runs per
// measurement. README.md records the measured wall time of each.
constexpr int kAlignedDomains = 100;
constexpr int kAlignedNodes = 50;
constexpr double kAlignedHorizonS = 8.0 * 3600.0;
constexpr long kAlignedJobs = 47'700;  // the perf_macro arrival rate
constexpr double kAlignedCpuLoad = 0.55;

constexpr int kPaperScale = 16;

constexpr int kChurnDomains = 24;
constexpr int kChurnNodes = 16;
constexpr double kChurnHorizonS = 86400.0;
constexpr long kChurnJobs = 19'200;
constexpr double kChurnCpuLoad = 0.50;

/// Four transactional classes with phase-shifted diurnal demand (hourly
/// breakpoints, +-40% around the base rate), together ~10% of the
/// federation's CPU so the batch tier stays the dominant load (the
/// paper's regime). The same shape perf_macro uses.
std::vector<scenario::TxAppScenario> diurnal_apps(int domains, int nodes_per_domain,
                                                  double horizon_s) {
  const double total_cpu_mhz = static_cast<double>(domains) * nodes_per_domain * kNodeCpuMhz;
  const double service_demand = 5000.0;  // MHz·s per request
  const double base_rate = 0.025 * total_cpu_mhz / service_demand;
  std::vector<scenario::TxAppScenario> apps;
  for (int a = 0; a < 4; ++a) {
    scenario::TxAppScenario app;
    app.spec.id = util::AppId{static_cast<util::AppId::underlying_type>(a)};
    app.spec.name = "svc" + std::to_string(a);
    // Demand splits ~1/domains per domain, so a loose RT goal keeps the
    // per-domain instance floor modest.
    app.spec.rt_goal = util::Seconds{120.0};
    app.spec.service_demand = service_demand;
    app.spec.max_utilization = 0.9;
    app.spec.throughput_exponent = 0.5;
    app.spec.utility_cap = 0.9;
    app.spec.importance = 1.0 + 0.25 * a;
    app.spec.instance_memory = util::MemMb{1024.0};
    app.spec.min_instances = 1;
    app.spec.max_instances = nodes_per_domain;
    app.spec.max_cpu_per_instance = util::CpuMhz{kNodeCpuMhz};
    const double phase = 0.25 * a * 2.0 * kPi;
    for (double t = 0.0; t < horizon_s; t += 3600.0) {
      app.trace.add(util::Seconds{t},
                    base_rate * (1.0 + 0.4 * std::sin(2.0 * kPi * t / 86400.0 + phase)));
    }
    apps.push_back(std::move(app));
  }
  return apps;
}

/// Identical single-processor jobs arriving over 90% of the horizon, each
/// sized so the stream offers `cpu_load` of the federation's CPU.
scenario::JobStreamSpec batch_stream(int domains, int nodes_per_domain, long jobs,
                                     double horizon_s, double cpu_load) {
  const double total_cpu_mhz = static_cast<double>(domains) * nodes_per_domain * kNodeCpuMhz;
  scenario::JobStreamSpec s;
  s.count = jobs;
  s.mean_interarrival_s = 0.9 * horizon_s / static_cast<double>(jobs);
  s.tmpl.name_prefix = "batch";
  s.tmpl.work = util::MhzSeconds{cpu_load * total_cpu_mhz * s.mean_interarrival_s};
  s.tmpl.work_cv = 0.0;
  s.tmpl.max_speed = util::CpuMhz{3000.0};
  s.tmpl.memory = util::MemMb{1300.0};
  s.tmpl.goal_stretch = 2.0;
  s.utility_shape = "piecewise";
  return s;
}

scenario::DomainSpec domain(int index, int nodes, double first_cycle_at_s) {
  scenario::DomainSpec d;
  d.name = "dc" + std::to_string(index);
  d.cluster.nodes = nodes;
  d.cluster.cpu_per_node_mhz = kNodeCpuMhz;
  d.cluster.mem_per_node_mb = kNodeMemMb;
  d.first_cycle_at_s = first_cycle_at_s;
  return d;
}

/// The ROADMAP macro shape cut to a third of a day: every control phase
/// at t=0, so each 600 s boundary is a batch of same-timestamp events on
/// distinct shards.
scenario::FederatedScenario fed_aligned() {
  scenario::FederatedScenario fs;
  fs.name = "fed_aligned";
  for (int i = 0; i < kAlignedDomains; ++i) fs.domains.push_back(domain(i, kAlignedNodes, 0.0));
  fs.jobs = batch_stream(kAlignedDomains, kAlignedNodes, kAlignedJobs, kAlignedHorizonS,
                         kAlignedCpuLoad);
  fs.apps = diurnal_apps(kAlignedDomains, kAlignedNodes, kAlignedHorizonS);
  fs.controller.cycle_s = 600.0;
  fs.router = "least-loaded";
  fs.power.enabled = true;
  fs.power.policy = "idle-park";
  fs.power.idle_timeout_s = 1800.0;
  fs.horizon_s = kAlignedHorizonS;
  fs.sample_interval_s = 3600.0;
  return fs;
}

/// fed_aligned with every in-memory sink on. Only the metrics snapshot
/// reaches the disk; the trace and audit stay in their rings.
scenario::FederatedScenario fed_aligned_obs(const std::string& out_dir) {
  scenario::FederatedScenario fs = fed_aligned();
  fs.name = "fed_aligned_obs";
  fs.obs.trace = "ring";
  fs.obs.audit = "ring";
  fs.obs.metrics_json_path = out_dir + "/fed_aligned_obs.snapshot.json";
  fs.slos.push_back({"svc0", /*target=*/0.95, /*long_window_s=*/14400.0,
                     /*short_window_s=*/3600.0, /*burn_threshold=*/2.0});
  fs.slos.push_back({"jobs", /*target=*/0.5, /*long_window_s=*/86400.0,
                     /*short_window_s=*/14400.0, /*burn_threshold=*/1.5});
  return fs;
}

/// The paper's Section 3 scenario scaled kPaperScale x in one domain:
/// nodes, jobs, arrival rate and web demand all scale, job length and the
/// RT goal do not. Runs until the last job completes.
scenario::FederatedScenario paper_scaled() {
  scenario::Scenario s = scenario::section3_scenario();
  s.cluster.nodes *= kPaperScale;
  s.jobs.count *= kPaperScale;
  s.jobs.mean_interarrival_s /= kPaperScale;
  s.apps[0].trace = workload::DemandTrace{24.0 * kPaperScale};
  s.apps[0].spec.max_instances = s.cluster.nodes;
  scenario::FederatedScenario fs = scenario::federate(s, 1);
  fs.name = "paper_x" + std::to_string(kPaperScale);
  return fs;
}

/// Event-heavy churn: staggered control phases, live migration over
/// shared uplinks, one rolling 2 h maintenance drain per domain, and
/// stochastic node, link and domain faults. Blackouts are many and short
/// and checkpoints frequent so that no single fault decides a run's SLA
/// outcome: with hour-long blackouts and 30-minute checkpoints the share
/// of jobs meeting their goal varied by ~10% from seed to seed, with
/// these settings by ~2%.
scenario::FederatedScenario fed_churn() {
  scenario::FederatedScenario fs;
  fs.name = "fed_churn";
  for (int i = 0; i < kChurnDomains; ++i) fs.domains.push_back(domain(i, kChurnNodes, -1.0));
  fs.jobs = batch_stream(kChurnDomains, kChurnNodes, kChurnJobs, kChurnHorizonS, kChurnCpuLoad);
  fs.apps = diurnal_apps(kChurnDomains, kChurnNodes, kChurnHorizonS);
  fs.controller.cycle_s = 600.0;
  fs.router = "least-loaded";

  fs.migration.enabled = true;
  fs.migration.policy = "drain+rebalance";
  fs.migration.check_interval_s = 120.0;
  fs.migration.link_mode = "uplink";
  fs.migration.selection = "cost";
  for (int i = 0; i < kChurnDomains; ++i) {
    fs.migration.uplinks.push_back({static_cast<std::size_t>(i), 250.0});
  }
  const double drain_every_s = kChurnHorizonS / kChurnDomains;
  for (int i = 0; i < kChurnDomains; ++i) {
    const double at = (i + 0.5) * drain_every_s;
    fs.weight_events.push_back({static_cast<std::size_t>(i), at, 0.0});
    fs.weight_events.push_back({static_cast<std::size_t>(i), at + 7200.0, 1.0});
  }

  fs.faults.enabled = true;
  fs.faults.checkpoint_interval_s = 600.0;
  fs.faults.node_mttf_s = 86400.0;
  fs.faults.node_mttr_s = 3600.0;
  fs.faults.link_mttf_s = 43200.0;
  fs.faults.link_mttr_s = 600.0;
  fs.faults.domain_mttf_s = 86400.0;
  fs.faults.domain_mttr_s = 600.0;

  fs.power.enabled = true;
  fs.power.policy = "idle-park";
  fs.power.idle_timeout_s = 1800.0;
  fs.horizon_s = kChurnHorizonS;
  fs.sample_interval_s = 3600.0;
  return fs;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{
      "fed_aligned", "paper_x" + std::to_string(kPaperScale), "fed_churn", "fed_aligned_obs"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed, int engine_threads,
                       const std::string& out_dir) {
  Workload w;
  w.name = name;
  if (name == "fed_aligned") {
    w.scenario = fed_aligned();
  } else if (name == workload_names()[1]) {
    w.scenario = paper_scaled();
  } else if (name == "fed_churn") {
    w.scenario = fed_churn();
  } else if (name == "fed_aligned_obs") {
    w.scenario = fed_aligned_obs(out_dir);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w.scenario.seed = seed;
  w.scenario.engine_threads = engine_threads;
  return w;
}

std::vector<workload::JobSpec> generate_job_stream(const scenario::FederatedScenario& fs) {
  util::Rng rng(fs.seed);
  std::vector<workload::PhasedPoissonArrivals::Phase> phases;
  phases.push_back({util::Seconds{fs.jobs.mean_interarrival_s}, fs.jobs.count});
  if (fs.jobs.tail_count > 0 && fs.jobs.tail_mean_interarrival_s > 0.0) {
    phases.push_back({util::Seconds{fs.jobs.tail_mean_interarrival_s}, fs.jobs.tail_count});
  }
  workload::PhasedPoissonArrivals arrivals{util::Seconds{0.0}, std::move(phases)};
  return workload::generate_jobs(arrivals, fs.jobs.tmpl, rng);
}

}  // namespace heteroplace::bench
