// Micro-benchmarks (google-benchmark) for the controller's two solve
// stages: hypothetical-utility equalization and discrete placement.
//
// The paper's controller must finish well within its 600 s control cycle;
// these benchmarks document the actual cost and its scaling in the number
// of jobs and nodes (the paper notes the naive schedule-enumeration
// alternative is exponential — this shows the approximation is cheap).

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/equalizer.hpp"
#include "core/placement_solver.hpp"
#include "legacy/legacy_equalizer.hpp"
#include "solver_shapes.hpp"
#include "util/rng.hpp"
#include "utility/job_utility.hpp"
#include "utility/tx_utility.hpp"
#include "workload/job.hpp"
#include "workload/transactional.hpp"

namespace {

using namespace heteroplace;

std::vector<workload::Job> make_jobs(int n, util::Rng& rng) {
  std::vector<workload::Job> jobs;
  jobs.reserve(n);
  for (int i = 0; i < n; ++i) {
    workload::JobSpec spec;
    spec.id = util::JobId{static_cast<unsigned>(i)};
    spec.work = util::MhzSeconds{rng.uniform(1.0e7, 6.0e7)};
    spec.max_speed = util::CpuMhz{3000.0};
    spec.memory = util::MemMb{1300.0};
    spec.submit_time = util::Seconds{rng.uniform(0.0, 50000.0)};
    spec.completion_goal = util::Seconds{2.0 * spec.nominal_length().get()};
    jobs.emplace_back(std::move(spec));
  }
  return jobs;
}

workload::TxApp make_app() {
  workload::TxAppSpec spec;
  spec.id = util::AppId{0};
  spec.name = "web";
  spec.rt_goal = util::Seconds{1.2};
  spec.service_demand = 5000.0;
  return workload::TxApp{spec, workload::DemandTrace{24.0}};
}

void BM_EqualizeJobs(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(7);
  const auto jobs = make_jobs(n, rng);
  const auto app = make_app();
  const utility::JobUtilityModel job_model;
  const utility::TxUtilityModel tx_model;
  const util::Seconds now{60000.0};

  std::vector<core::JobConsumer> jc;
  jc.reserve(jobs.size());
  for (const auto& j : jobs) jc.emplace_back(j, job_model, now);
  core::TxConsumer tc(app, tx_model, now);
  std::vector<const core::UtilityConsumer*> consumers;
  for (const auto& c : jc) consumers.push_back(&c);
  consumers.push_back(&tc);

  const util::CpuMhz capacity{300000.0};
  for (auto _ : state) {
    auto result = core::equalize(consumers, capacity);
    benchmark::DoNotOptimize(result.u_star);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_EqualizeJobs)->RangeMultiplier(4)->Range(16, 4096)->Complexity();

void BM_EqualizeJobsVirtualPath(benchmark::State& state) {
  // The seed equalizer loop (per-consumer virtual dispatch, no curve
  // cache), for the BENCH_equalizer.json trajectory.
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(7);
  const auto jobs = make_jobs(n, rng);
  const auto app = make_app();
  const utility::JobUtilityModel job_model;
  const utility::TxUtilityModel tx_model;
  const util::Seconds now{60000.0};

  std::vector<core::JobConsumer> jc;
  jc.reserve(jobs.size());
  for (const auto& j : jobs) jc.emplace_back(j, job_model, now);
  core::TxConsumer tc(app, tx_model, now);
  std::vector<const core::UtilityConsumer*> consumers;
  for (const auto& c : jc) consumers.push_back(&c);
  consumers.push_back(&tc);

  const util::CpuMhz capacity{300000.0};
  for (auto _ : state) {
    auto result = bench::legacy::equalize_virtual(consumers, capacity);
    benchmark::DoNotOptimize(result.u_star);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_EqualizeJobsVirtualPath)->RangeMultiplier(4)->Range(16, 4096)->Complexity();

void BM_SolvePlacement(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const int jobs_n = static_cast<int>(state.range(1));
  const auto problem = bench::make_placement_problem(nodes, jobs_n);
  for (auto _ : state) {
    auto result = core::solve_placement(problem);
    benchmark::DoNotOptimize(result.plan.jobs.size());
  }
  state.SetComplexityN(nodes);
}
// Oversubscribed scaling: 4 job candidates per node (the seed shapes).
// One shape family per benchmark — the Complexity() fit is only
// meaningful when jobs grow proportionally with N.
BENCHMARK(BM_SolvePlacement)
    ->Args({25, 100})
    ->Args({50, 200})
    ->Args({100, 400})
    ->Args({200, 800})
    ->Args({400, 1600})
    ->Complexity();

void BM_SolvePlacementDenseQueue(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const int jobs_n = static_cast<int>(state.range(1));
  const auto problem = bench::make_placement_problem(nodes, jobs_n);
  for (auto _ : state) {
    auto result = core::solve_placement(problem);
    benchmark::DoNotOptimize(result.plan.jobs.size());
  }
}
// Dense queues (~31 candidates per node, up to 128 nodes / 4000 jobs):
// the waiting list dwarfs the slot count and admission dominates.
// Same shapes as BENCH_solver.json (bench/perf_baseline.cpp).
BENCHMARK(BM_SolvePlacementDenseQueue)
    ->Args({16, 500})
    ->Args({64, 2000})
    ->Args({128, 4000});

void BM_TxInverse(benchmark::State& state) {
  const utility::TxUtilityModel model;
  workload::TxAppSpec spec;
  spec.rt_goal = util::Seconds{1.2};
  spec.service_demand = 5000.0;
  double u = -1.0;
  for (auto _ : state) {
    u += 0.01;
    if (u > 0.89) u = -1.0;
    benchmark::DoNotOptimize(model.alloc_for_utility(spec, 24.0, u));
  }
}
BENCHMARK(BM_TxInverse);

}  // namespace

BENCHMARK_MAIN();
