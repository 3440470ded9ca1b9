// Macro-scale end-to-end benchmark for the parallel engine
// (ISSUE: perf_macro; results committed as BENCH_macro.json).
//
// Shape: 100 controller domains × 50 nodes, ~1M batch jobs arriving over
// one simulated week, four diurnal transactional apps split across the
// federation, power metering + idle-park per domain. All domains run
// their control cycle at the same phase (first_cycle_at_s = 0), so each
// 600 s boundary produces 100 same-timestamp kController events on
// distinct shards — exactly the batch the parallel engine dispatches to
// its worker pool. Executor passes and power ticks batch the same way.
//
// The sweep runs the identical scenario at engine.threads ∈ {1, 2, 4}
// and asserts the full-result digest (scenario/result_digest: every
// series point + summary counter, folded bit-exactly) is identical
// across all thread counts. A digest mismatch is a hard failure — this
// benchmark doubles as the macro-scale determinism pin.
//
// Methodology notes (see also bench/README.md):
//  - wall_s is best-of-1: a run is minutes long and self-averaging
//    (~100k control cycles); run-to-run noise is well under the
//    thread-scaling effects being measured.
//  - Each thread count runs in a forked child, so a case's peak_rss_mb
//    (the child's ru_maxrss) is that run's own high-water mark.
//  - hardware_threads is recorded in the JSON: speedups are only
//    meaningful where threads <= hardware_threads. On a 1-core host the
//    sweep still validates bit-identity and batch formation, and the
//    wall-clock columns quantify the (small) barrier overhead instead.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "obs/profile.hpp"
#include "scenario/federation_experiment.hpp"
#include "scenario/result_digest.hpp"
#include "scenario/scenario.hpp"
#include "util/units.hpp"
#include "workload/transactional.hpp"

namespace {

using namespace heteroplace;

struct Shape {
  const char* mode;
  int domains;
  int nodes_per_domain;
  long jobs;
  double horizon_s;
  std::vector<int> threads;
};

Shape full_shape() { return {"full", 100, 50, 1'000'000, 604800.0, {1, 2, 4}}; }
Shape smoke_shape() { return {"smoke", 8, 10, 20'000, 86400.0, {1, 2, 4}}; }

/// Four transactional classes with phase-shifted diurnal demand. Hourly
/// breakpoints over the horizon; aggregate offered CPU ≈ 10% of the
/// federation's capacity so the batch tier stays the dominant load (the
/// paper's regime) while the equalizer still has real multi-app work
/// every cycle in every domain.
std::vector<scenario::TxAppScenario> make_apps(const Shape& sh) {
  const double total_cpu_mhz =
      static_cast<double>(sh.domains) * sh.nodes_per_domain * 12000.0;
  const double service_demand = 5000.0;  // MHz·s per request
  const double per_app_cpu = 0.025 * total_cpu_mhz;
  const double base_rate = per_app_cpu / service_demand;  // req/s

  std::vector<scenario::TxAppScenario> apps;
  for (int a = 0; a < 4; ++a) {
    scenario::TxAppScenario app;
    app.spec.id = util::AppId{static_cast<util::AppId::underlying_type>(a)};
    app.spec.name = "svc" + std::to_string(a);
    // Demand is split ~1/domains per domain, so the per-domain RT floor
    // must stay modest: a loose goal keeps required instances small
    // (mirrors how section3_scaled loosens rt_goal when scaling down).
    app.spec.rt_goal = util::Seconds{120.0};
    app.spec.service_demand = service_demand;
    app.spec.max_utilization = 0.9;
    app.spec.throughput_exponent = 0.5;
    app.spec.utility_cap = 0.9;
    app.spec.importance = 1.0 + 0.25 * a;  // distinct service classes
    app.spec.instance_memory = util::MemMb{1024.0};
    app.spec.min_instances = 1;
    app.spec.max_instances = sh.nodes_per_domain;
    app.spec.max_cpu_per_instance = util::CpuMhz{12000.0};

    // Diurnal sine, ±40% around base, phase-shifted per class.
    workload::DemandTrace trace;
    const double phase = 0.25 * a * 2.0 * 3.14159265358979323846;
    for (double t = 0.0; t < sh.horizon_s; t += 3600.0) {
      const double x = 2.0 * 3.14159265358979323846 * t / 86400.0 + phase;
      trace.add(util::Seconds{t}, base_rate * (1.0 + 0.4 * std::sin(x)));
    }
    app.trace = std::move(trace);
    apps.push_back(std::move(app));
  }
  return apps;
}

scenario::Scenario macro_scenario(const Shape& sh) {
  scenario::Scenario fs;
  fs.name = std::string("perf-macro-") + sh.mode;

  for (int i = 0; i < sh.domains; ++i) {
    scenario::DomainSpec d;
    d.name = "dc" + std::to_string(i);
    d.cluster.nodes = sh.nodes_per_domain;
    d.cluster.cpu_per_node_mhz = 12000.0;
    d.cluster.mem_per_node_mb = 4096.0;
    // Aligned control phases: the whole point of the macro benchmark.
    // The default (< 0) auto-stagger would leave one controller event
    // per timestamp and no batches to parallelize.
    d.first_cycle_at_s = 0.0;
    fs.domains.push_back(std::move(d));
  }

  // Batch tier: identical single-processor jobs (the paper's stream),
  // sized for ~55% CPU / ~70% memory steady-state so the backlog stays
  // bounded while phases 3–4 of the solver see real contention.
  const double total_cpu_mhz =
      static_cast<double>(sh.domains) * sh.nodes_per_domain * 12000.0;
  fs.jobs.count = sh.jobs;
  fs.jobs.mean_interarrival_s = 0.9 * sh.horizon_s / static_cast<double>(sh.jobs);
  const double lambda = 1.0 / fs.jobs.mean_interarrival_s;
  fs.jobs.tmpl.name_prefix = "batch";
  fs.jobs.tmpl.work = util::MhzSeconds{0.55 * total_cpu_mhz / lambda};
  fs.jobs.tmpl.work_cv = 0.0;
  fs.jobs.tmpl.max_speed = util::CpuMhz{3000.0};
  fs.jobs.tmpl.memory = util::MemMb{1300.0};
  fs.jobs.tmpl.goal_stretch = 2.0;
  fs.jobs.utility_shape = "piecewise";

  fs.apps = make_apps(sh);

  fs.controller.cycle_s = 600.0;
  // Default (nonzero) action latencies: starts/suspends/resumes land as
  // future sharded events, exercising the staged-push replay path.
  fs.router = "least-loaded";

  fs.power.enabled = true;
  fs.power.policy = "idle-park";
  fs.power.idle_timeout_s = 1800.0;

  fs.horizon_s = sh.horizon_s;
  fs.sample_interval_s = 3600.0;
  fs.seed = 20080625;  // fixed: the sweep must replay one trajectory
  return fs;
}

/// Plain data, so a forked child can hand it back through a pipe.
struct CaseResult {
  int threads{0};
  double wall_s{0.0};
  std::uint64_t digest{0};
  scenario::EngineStats engine;
  long jobs_completed{0};
  double peak_rss_mb{0.0};
};
static_assert(std::is_trivially_copyable_v<CaseResult>);

CaseResult run_case(const scenario::Scenario& base, int threads, bool profile) {
  scenario::Scenario fs = base;
  fs.engine_threads = threads;
  // Per-phase wall-clock attribution (obs layer). Digest-excluded, so
  // the bit-identity sweep still holds with profiling on; the table
  // answers where the serial spine's time goes at each width.
  fs.obs.profile = profile;
  const auto t0 = std::chrono::steady_clock::now();
  const scenario::FederatedResult res = scenario::run_federated_experiment(fs);
  const auto t1 = std::chrono::steady_clock::now();

  CaseResult c;
  c.threads = threads;
  c.wall_s = std::chrono::duration<double>(t1 - t0).count();
  c.digest = scenario::digest(res);
  c.engine = res.engine;
  c.jobs_completed = res.summary.jobs_completed;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  c.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
  if (profile) std::printf("%s", obs::format_profile_report(res.profile).c_str());
  return c;
}

/// Run one case in a forked child (fresh heap, own peak RSS). The
/// parent starts no threads, so forking it is safe. nullopt if the
/// child failed.
std::optional<CaseResult> run_case_isolated(const scenario::Scenario& base,
                                            int threads, bool profile) {
  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) return std::nullopt;
  if (pid == 0) {
    close(fds[0]);
    const CaseResult c = run_case(base, threads, profile);
    std::fflush(stdout);
    const bool sent = write(fds[1], &c, sizeof c) == static_cast<ssize_t>(sizeof c);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  CaseResult c;
  const bool got = read(fds[0], &c, sizeof c) == static_cast<ssize_t>(sizeof c);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) return std::nullopt;
  return c;
}

bool write_json(const std::string& path, const Shape& sh, bool profile,
                const std::vector<CaseResult>& cases) {
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  std::ofstream out(path);
  out << "{\n";
  out << "  \"schema\": \"heteroplace-perf-macro/v1\",\n";
  out << "  \"component\": \"parallel_engine\",\n";
  out << "  \"mode\": \"" << sh.mode << "\",\n";
  out << "  \"hardware_threads\": " << std::thread::hardware_concurrency() << ",\n";
  out << "  \"profile\": " << (profile ? "true" : "false") << ",\n";
  out << "  \"scenario\": {\n";
  out << "    \"domains\": " << sh.domains << ",\n";
  out << "    \"nodes_per_domain\": " << sh.nodes_per_domain << ",\n";
  out << "    \"jobs\": " << sh.jobs << ",\n";
  out << "    \"horizon_s\": " << sh.horizon_s << ",\n";
  out << "    \"tx_apps\": 4,\n";
  out << "    \"cycle_s\": 600.0\n";
  out << "  },\n";
  char dig[32];
  std::snprintf(dig, sizeof(dig), "0x%016llx",
                static_cast<unsigned long long>(cases.front().digest));
  out << "  \"digest\": \"" << dig << "\",\n";
  out << "  \"bit_identical\": true,\n";
  out << "  \"events_executed\": " << cases.front().engine.events_executed << ",\n";
  out << "  \"jobs_completed\": " << cases.front().jobs_completed << ",\n";
  out << "  \"cases\": [\n";
  const double base = cases.front().wall_s;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    const double per_s = c.wall_s > 0.0 ? 1.0 / c.wall_s : 0.0;
    out << "    {\"threads\": " << c.threads << ", \"wall_s\": " << c.wall_s
        << ", \"speedup_vs_1\": " << base * per_s
        << ", \"events_per_s\": " << static_cast<double>(c.engine.events_executed) * per_s
        << ", \"sim_s_per_wall_s\": " << sh.horizon_s * per_s
        << ", \"peak_rss_mb\": " << c.peak_rss_mb
        << ", \"parallel_batches\": " << c.engine.parallel_batches
        << ", \"batched_events\": " << c.engine.batched_events << "}"
        << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_dir = ".";
  bool smoke = false;
  bool profile = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--out=", 6) == 0) {
      out_dir = arg + 6;
    } else if (std::strcmp(arg, "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(arg, "--profile") == 0) {
      profile = true;
    } else {
      std::fprintf(stderr, "usage: perf_macro [--out=DIR] [--smoke] [--profile]\n");
      return 2;
    }
  }

  const Shape sh = smoke ? smoke_shape() : full_shape();
  const scenario::Scenario base = macro_scenario(sh);
  std::printf("perf_macro [%s]: %d domains x %d nodes, %ld jobs over %.0f s\n", sh.mode,
              sh.domains, sh.nodes_per_domain, sh.jobs, sh.horizon_s);

  std::vector<CaseResult> cases;
  for (int threads : sh.threads) {
    const std::optional<CaseResult> run = run_case_isolated(base, threads, profile);
    if (!run) {
      std::fprintf(stderr, "FAIL: the threads=%d run did not finish\n", threads);
      return 1;
    }
    const CaseResult& c = *run;
    std::printf(
        "  threads=%d  wall=%.2fs  events=%llu  batches=%llu (%llu events)  "
        "completed=%ld  peak_rss=%.1fMB  digest=0x%016llx\n",
        c.threads, c.wall_s, static_cast<unsigned long long>(c.engine.events_executed),
        static_cast<unsigned long long>(c.engine.parallel_batches),
        static_cast<unsigned long long>(c.engine.batched_events), c.jobs_completed,
        c.peak_rss_mb, static_cast<unsigned long long>(c.digest));
    cases.push_back(c);

    if (c.digest != cases.front().digest) {
      std::fprintf(stderr,
                   "FAIL: digest diverged at threads=%d (0x%016llx vs 0x%016llx) — "
                   "threads=N is NOT bit-identical to threads=1\n",
                   threads, static_cast<unsigned long long>(c.digest),
                   static_cast<unsigned long long>(cases.front().digest));
      return 1;
    }
    if (threads > 1 && c.engine.parallel_batches == 0) {
      std::fprintf(stderr,
                   "FAIL: threads=%d executed zero parallel batches — the aligned "
                   "macro scenario must batch; the sweep is vacuous\n",
                   threads);
      return 1;
    }
  }

  // Sanity: the calibrated shape must keep the backlog bounded — a run
  // where almost nothing completes would benchmark queue churn, not
  // placement.
  if (cases.front().jobs_completed < sh.jobs / 2) {
    std::fprintf(stderr, "FAIL: only %ld of %ld jobs completed — shape miscalibrated\n",
                 cases.front().jobs_completed, sh.jobs);
    return 1;
  }

  const std::string path = out_dir + "/BENCH_macro.json";
  if (!write_json(path, sh, profile, cases)) {
    std::fprintf(stderr, "FAIL: could not write %s\n", path.c_str());
    return 1;
  }
  std::printf("PASS: bit-identical across %zu thread counts; wrote %s\n", cases.size(),
              path.c_str());
  return 0;
}
