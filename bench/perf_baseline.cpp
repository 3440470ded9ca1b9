// Perf-regression baseline for the control-cycle hot paths.
//
// Measures each optimized hot path against the seed implementation it
// replaced — the shared_ptr event queue, the seed placement solver and
// the seed (virtual-dispatch) equalizer loop are preserved under
// bench/legacy/ — and emits machine-readable BENCH_eventqueue.json /
// BENCH_equalizer.json / BENCH_solver.json. The committed copies at the
// repo root are the perf trajectory: future PRs rerun this tool and
// compare.
//
//   perf_baseline [--out=DIR] [--quick]
//
// --quick shrinks shapes and repetitions for CI smoke runs (the JSON is
// still valid; the numbers are just noisier). Timings take the minimum
// of `reps` runs, which is robust to scheduler noise on shared runners.
//
// The solver and equalizer sections also re-verify equivalence (seed vs.
// optimized plans; u* and steps against the plain bisection) on every
// shape they time and fail loudly on divergence, so the perf numbers can
// never silently come from code that changed behavior.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <utility>
#include <iostream>
#include <string>
#include <vector>

#include "core/equalizer.hpp"
#include "core/placement_solver.hpp"
#include "legacy/legacy_equalizer.hpp"
#include "legacy/legacy_event_queue.hpp"
#include "legacy/legacy_placement_solver.hpp"
#include "sim/event_queue.hpp"
#include "solver_shapes.hpp"
#include "util/rng.hpp"
#include "utility/job_utility.hpp"
#include "utility/tx_utility.hpp"
#include "workload/job.hpp"
#include "workload/transactional.hpp"

namespace {

using namespace heteroplace;
using Clock = std::chrono::steady_clock;

volatile long g_sink = 0;  // defeats dead-code elimination across runs

/// Best-of-`reps` wall time of `fn`, in nanoseconds.
double time_best_ns(int reps, const std::function<void()>& fn) {
  double best = std::numeric_limits<double>::max();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    best = std::min(best,
                    static_cast<double>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()));
  }
  return best;
}

struct Case {
  std::string name;
  double ops;  // per run, for ns/op normalization
  double seed_ns;
  double optimized_ns;
};

void write_json(const std::string& path, const std::string& component, bool quick,
                const std::vector<Case>& cases) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"schema\": \"heteroplace-perf-baseline/v1\",\n"
      << "  \"component\": \"" << component << "\",\n"
      << "  \"mode\": \"" << (quick ? "quick" : "full") << "\",\n"
      << "  \"seed_impl\": \"bench/legacy (pre-overhaul implementation)\",\n"
      << "  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    const double seed_per_op = c.seed_ns / c.ops;
    const double opt_per_op = c.optimized_ns / c.ops;
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"ops\": %.0f, \"seed_ns_per_op\": %.2f, "
                  "\"optimized_ns_per_op\": %.2f, \"speedup\": %.2f}%s\n",
                  c.name.c_str(), c.ops, seed_per_op, opt_per_op, seed_per_op / opt_per_op,
                  i + 1 < cases.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << path << "\n";
}

void print_case(const Case& c) {
  std::printf("  %-28s seed %9.1f ns/op   optimized %9.1f ns/op   speedup %5.2fx\n",
              c.name.c_str(), c.seed_ns / c.ops, c.optimized_ns / c.ops,
              c.seed_ns / c.optimized_ns);
}

// ---- event queue ------------------------------------------------------------

std::vector<Case> bench_eventqueue(bool quick) {
  std::vector<Case> cases;

  // The 1M-event shape is the production-scale regime the ROADMAP
  // targets; it is also where the seed's per-record allocations and
  // pointer-chasing comparisons hurt the most.
  const auto shapes =
      quick ? std::vector<int>{16384} : std::vector<int>{16384, 65536, 262144, 1048576};
  for (const int n : shapes) {
    const int reps = quick ? 3 : (n >= 262144 ? 3 : 7);
    // Event times are pregenerated so the measurement covers the queue,
    // not the RNG; both implementations consume identical sequences.
    util::Rng rng(3);
    std::vector<double> times(static_cast<std::size_t>(2 * n));
    for (auto& t : times) t = rng.uniform(0.0, 1e6);

    // push_pop: schedule n at random times, drain.
    const auto seed_pp = time_best_ns(reps, [n, &times] {
      bench::legacy::LegacyEventQueue q;
      for (int i = 0; i < n; ++i) {
        q.push(times[i], sim::EventPriority::kStateTransition, [] { g_sink = g_sink + 1; });
      }
      while (!q.empty()) q.pop().callback();
    });
    const auto opt_pp = time_best_ns(reps, [n, &times] {
      sim::EventQueue q;
      for (int i = 0; i < n; ++i) {
        q.push(times[i], sim::EventPriority::kStateTransition, [] { g_sink = g_sink + 1; });
      }
      while (!q.empty()) q.pop().callback();
    });
    cases.push_back({"push_pop_" + std::to_string(n), 2.0 * n, seed_pp, opt_pp});

    // cancel churn: the controller's reschedule pattern — every handle
    // cancelled and re-pushed once, then drain.
    const auto seed_cc = time_best_ns(reps, [n, &times] {
      bench::legacy::LegacyEventQueue q;
      std::vector<bench::legacy::LegacyEventHandle> handles;
      handles.reserve(n);
      for (int i = 0; i < n; ++i) {
        handles.push_back(
            q.push(times[i], sim::EventPriority::kStateTransition, [] { g_sink = g_sink + 1; }));
      }
      for (int i = 0; i < n; ++i) {
        handles[i].cancel();
        handles[i] =
            q.push(times[n + i], sim::EventPriority::kStateTransition, [] { g_sink = g_sink + 1; });
      }
      while (!q.empty()) q.pop();
    });
    const auto opt_cc = time_best_ns(reps, [n, &times] {
      sim::EventQueue q;
      std::vector<sim::EventHandle> handles;
      handles.reserve(n);
      for (int i = 0; i < n; ++i) {
        handles.push_back(
            q.push(times[i], sim::EventPriority::kStateTransition, [] { g_sink = g_sink + 1; }));
      }
      for (int i = 0; i < n; ++i) {
        handles[i].cancel();
        handles[i] =
            q.push(times[n + i], sim::EventPriority::kStateTransition, [] { g_sink = g_sink + 1; });
      }
      while (!q.empty()) q.pop();
    });
    cases.push_back({"cancel_churn_" + std::to_string(n), 4.0 * n, seed_cc, opt_cc});
  }
  return cases;
}

// ---- equalizer --------------------------------------------------------------

/// Contended equalize calls, each timed against the seed virtual-dispatch
/// loop. A cold case passes no hint; a `_warm` case passes the u* of the
/// same population at 2% less capacity, as a previous cycle's slightly
/// stale answer. Every case is first checked against the plain bisection
/// (u*, iteration count), and `results_ok` turns false on divergence.
std::vector<Case> bench_equalizer(bool quick, bool& results_ok) {
  const int reps = quick ? 3 : 5;
  std::vector<Case> cases;
  results_ok = true;
  struct Shape {
    int n_jobs;
    bool warm;
  };
  const auto shapes = quick ? std::vector<Shape>{{256, false}, {1024, true}}
                            : std::vector<Shape>{{256, false}, {1024, false}, {4096, false},
                                                 {1024, true}};

  for (const auto& [n_jobs, warm] : shapes) {
    util::Rng rng(7);
    std::vector<workload::Job> jobs;
    jobs.reserve(n_jobs);
    for (int i = 0; i < n_jobs; ++i) {
      workload::JobSpec spec;
      spec.id = util::JobId{static_cast<unsigned>(i)};
      spec.work = util::MhzSeconds{rng.uniform(1.0e7, 6.0e7)};
      spec.max_speed = util::CpuMhz{3000.0};
      spec.importance = rng.chance(0.25) ? 2.0 : 1.0;
      spec.submit_time = util::Seconds{rng.uniform(0.0, 50000.0)};
      spec.completion_goal = util::Seconds{2.0 * spec.nominal_length().get()};
      jobs.emplace_back(std::move(spec));
    }
    std::vector<workload::TxApp> apps;
    for (int a = 0; a < 4; ++a) {
      workload::TxAppSpec spec;
      spec.id = util::AppId{static_cast<unsigned>(a)};
      spec.rt_goal = util::Seconds{1.2};
      spec.service_demand = 5000.0;
      apps.emplace_back(spec, workload::DemandTrace{12.0 + 8.0 * a});
    }
    const utility::JobUtilityModel job_model;
    const utility::TxUtilityModel tx_model;
    const util::Seconds now{60000.0};
    std::vector<core::JobConsumer> jc;
    std::vector<core::TxConsumer> tc;
    jc.reserve(jobs.size());
    tc.reserve(apps.size());
    for (const auto& j : jobs) jc.emplace_back(j, job_model, now);
    for (const auto& app : apps) tc.emplace_back(app, tx_model, now);
    std::vector<const core::UtilityConsumer*> consumers;
    for (const auto& c : jc) consumers.push_back(&c);
    for (const auto& c : tc) consumers.push_back(&c);

    // ~30% of total demand: firmly in the contended regime.
    const util::CpuMhz capacity{n_jobs * 550.0};
    const double hint = warm ? core::equalize(consumers, capacity * 0.98).u_star
                             : std::numeric_limits<double>::quiet_NaN();
    const std::string name =
        "equalize_" + std::to_string(n_jobs) + "j_4a" + (warm ? "_warm" : "");

    const auto opt = core::equalize(consumers, capacity, hint);
    const auto ref = bench::legacy::equalize_bisect(consumers, capacity);
    if (opt.u_star != ref.u_star || opt.iterations != ref.iterations) {
      std::cerr << "FATAL: equalize diverges from the plain bisection at " << name << "\n";
      results_ok = false;
    }
    std::printf("  %-28s %d passes for %d bisection steps\n", name.c_str(), opt.passes,
                opt.iterations);

    const auto seed_ns = time_best_ns(reps, [&] {
      const auto r = bench::legacy::equalize_virtual(consumers, capacity);
      g_sink = g_sink + r.iterations;
    });
    const auto opt_ns = time_best_ns(reps, [&] {
      const auto r = core::equalize(consumers, capacity, hint);
      g_sink = g_sink + r.iterations;
    });
    cases.push_back({name, static_cast<double>(consumers.size()), seed_ns, opt_ns});
  }
  return cases;
}

// ---- placement solver -------------------------------------------------------

bool plans_equal(const core::SolverResult& a, const core::SolverResult& b) {
  if (a.plan.jobs.size() != b.plan.jobs.size()) return false;
  if (a.plan.instances.size() != b.plan.instances.size()) return false;
  for (std::size_t i = 0; i < a.plan.jobs.size(); ++i) {
    if (a.plan.jobs[i].job != b.plan.jobs[i].job) return false;
    if (a.plan.jobs[i].node != b.plan.jobs[i].node) return false;
    if (std::fabs(a.plan.jobs[i].cpu.get() - b.plan.jobs[i].cpu.get()) > 1e-6) return false;
  }
  for (std::size_t i = 0; i < a.plan.instances.size(); ++i) {
    if (a.plan.instances[i].app != b.plan.instances[i].app) return false;
    if (a.plan.instances[i].node != b.plan.instances[i].node) return false;
    if (std::fabs(a.plan.instances[i].cpu.get() - b.plan.instances[i].cpu.get()) > 1e-6) {
      return false;
    }
  }
  return true;
}

std::vector<Case> bench_solver(bool quick, bool& plans_ok) {
  const int reps = quick ? 3 : 5;
  std::vector<Case> cases;
  plans_ok = true;
  const auto shapes = quick
                          ? std::vector<std::pair<int, int>>{{16, 500}}
                          : std::vector<std::pair<int, int>>{{16, 500}, {64, 2000}, {128, 4000}};
  for (const auto& [nodes, jobs_n] : shapes) {
    const auto problem = bench::make_placement_problem(nodes, jobs_n);
    if (!plans_equal(bench::legacy::solve_placement_legacy(problem),
                     core::solve_placement(problem))) {
      std::cerr << "FATAL: optimized solver diverges from seed at " << nodes << "n/" << jobs_n
                << "j\n";
      plans_ok = false;
    }
    const auto seed_ns = time_best_ns(reps, [&] {
      const auto r = bench::legacy::solve_placement_legacy(problem);
      g_sink = g_sink + r.stats.jobs_placed;
    });
    const auto opt_ns = time_best_ns(reps, [&] {
      const auto r = core::solve_placement(problem);
      g_sink = g_sink + r.stats.jobs_placed;
    });
    cases.push_back({"solve_" + std::to_string(nodes) + "n_" + std::to_string(jobs_n) + "j",
                     1.0, seed_ns, opt_ns});
  }
  return cases;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_dir = ".";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_dir = arg.substr(6);
    } else if (arg == "--quick") {
      quick = true;
    } else {
      std::cerr << "usage: perf_baseline [--out=DIR] [--quick]\n";
      return 2;
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);

  std::cout << "== event queue (seed = bench/legacy shared_ptr queue) ==\n";
  const auto eq_cases = bench_eventqueue(quick);
  for (const auto& c : eq_cases) print_case(c);
  write_json(out_dir + "/BENCH_eventqueue.json", "eventqueue", quick, eq_cases);

  std::cout << "== equalizer (seed = virtual-dispatch loop) ==\n";
  bool eq_ok = false;
  const auto eqz_cases = bench_equalizer(quick, eq_ok);
  for (const auto& c : eqz_cases) print_case(c);
  write_json(out_dir + "/BENCH_equalizer.json", "equalizer", quick, eqz_cases);

  std::cout << "== placement solver (seed = bench/legacy solver) ==\n";
  bool plans_ok = false;
  const auto sol_cases = bench_solver(quick, plans_ok);
  for (const auto& c : sol_cases) print_case(c);
  write_json(out_dir + "/BENCH_solver.json", "solver", quick, sol_cases);

  if (!plans_ok || !eq_ok) return 1;
  return 0;
}
