// Tests for the workload substrate: jobs, arrivals, demand traces.

#include "workload/arrival.hpp"
#include "workload/job.hpp"
#include "workload/job_factory.hpp"
#include "workload/transactional.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

using namespace heteroplace;
using namespace heteroplace::util::literals;
using util::Seconds;
using workload::Job;
using workload::JobPhase;
using workload::JobSpec;

namespace {
JobSpec basic_spec() {
  JobSpec s;
  s.id = util::JobId{1};
  s.work = util::MhzSeconds{3.0e6};
  s.max_speed = 3000_mhz;
  s.memory = 1300_mb;
  s.submit_time = 100_s;
  s.completion_goal = 2000_s;
  return s;
}
}  // namespace

// --- Job progress accounting ---------------------------------------------------

TEST(Job, NominalLength) { EXPECT_DOUBLE_EQ(basic_spec().nominal_length().get(), 1000.0); }

TEST(Job, AccumulatesWorkWhileRunning) {
  Job j(basic_spec());
  j.set_phase(100_s, JobPhase::kStarting);
  j.set_phase(160_s, JobPhase::kRunning);
  j.set_speed(160_s, 3000_mhz);
  j.advance_to(260_s);
  EXPECT_DOUBLE_EQ(j.done().get(), 3000.0 * 100.0);
  EXPECT_DOUBLE_EQ(j.remaining().get(), 3.0e6 - 3.0e5);
  EXPECT_FALSE(j.finished());
}

TEST(Job, NoProgressWhilePendingOrSuspended) {
  Job j(basic_spec());
  j.advance_to(500_s);
  EXPECT_DOUBLE_EQ(j.done().get(), 0.0);
  j.set_phase(500_s, JobPhase::kStarting);
  j.set_phase(560_s, JobPhase::kRunning);
  j.set_speed(560_s, 1000_mhz);
  j.set_phase(660_s, JobPhase::kSuspending);  // speed zeroed
  j.advance_to(1000_s);
  EXPECT_DOUBLE_EQ(j.done().get(), 1000.0 * 100.0);
}

TEST(Job, SpeedChangeSplitsIntegration) {
  Job j(basic_spec());
  j.set_phase(100_s, JobPhase::kStarting);
  j.set_phase(100_s, JobPhase::kRunning);
  j.set_speed(100_s, 1000_mhz);
  j.set_speed(200_s, 2000_mhz);  // after 100 s at 1000
  j.advance_to(300_s);           // plus 100 s at 2000
  EXPECT_DOUBLE_EQ(j.done().get(), 1000.0 * 100 + 2000.0 * 100);
}

TEST(Job, ProgressClampsAtTotalWork) {
  Job j(basic_spec());
  j.set_phase(100_s, JobPhase::kStarting);
  j.set_phase(100_s, JobPhase::kRunning);
  j.set_speed(100_s, 3000_mhz);
  j.advance_to(100000_s);
  EXPECT_DOUBLE_EQ(j.done().get(), 3.0e6);
  EXPECT_TRUE(j.finished());
}

TEST(Job, SpeedAboveMaxRejected) {
  Job j(basic_spec());
  j.set_phase(100_s, JobPhase::kStarting);
  j.set_phase(100_s, JobPhase::kRunning);
  EXPECT_THROW(j.set_speed(100_s, 3500_mhz), std::invalid_argument);
}

TEST(Job, TimeBackwardsThrows) {
  Job j(basic_spec());
  j.advance_to(500_s);
  EXPECT_THROW(j.advance_to(400_s), std::logic_error);
}

TEST(Job, PredictedCompletion) {
  Job j(basic_spec());
  EXPECT_DOUBLE_EQ(j.predicted_completion(100_s, 3000_mhz).get(), 1100.0);
  EXPECT_DOUBLE_EQ(j.predicted_completion(100_s, 1000_mhz).get(), 3100.0);
  EXPECT_TRUE(std::isinf(j.predicted_completion(100_s, 0_mhz).get()));
}

TEST(Job, GoalTimeIsSubmitPlusGoal) {
  const Job j(basic_spec());
  EXPECT_DOUBLE_EQ(j.goal_time().get(), 2100.0);
}

TEST(Job, ChurnCounters) {
  Job j(basic_spec());
  j.count_suspend();
  j.count_suspend();
  j.count_migrate();
  EXPECT_EQ(j.suspend_count(), 2);
  EXPECT_EQ(j.migrate_count(), 1);
}

// --- Arrival processes -----------------------------------------------------------

TEST(Arrivals, PoissonCountAndMean) {
  util::Rng rng(42);
  workload::PoissonArrivals p(0_s, 260_s, 1000);
  double last = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const auto t = p.next(rng);
    ASSERT_TRUE(t.has_value());
    ASSERT_GE(t->get(), last);
    last = t->get();
  }
  EXPECT_FALSE(p.next(rng).has_value());
  // Mean inter-arrival ≈ 260 (last/total).
  EXPECT_NEAR(last / 1000.0, 260.0, 30.0);
}

TEST(Arrivals, PoissonUnboundedKeepsProducing) {
  util::Rng rng(1);
  workload::PoissonArrivals p(0_s, 10_s, -1);
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(p.next(rng).has_value());
}

TEST(Arrivals, PhasedSwitchesRate) {
  util::Rng rng(7);
  workload::PhasedPoissonArrivals p(
      0_s, {{Seconds{10.0}, 100}, {Seconds{1000.0}, 100}});
  std::vector<double> times;
  while (const auto t = p.next(rng)) times.push_back(t->get());
  ASSERT_EQ(times.size(), 200u);
  const double first_phase = times[99];
  const double second_phase = times[199] - times[99];
  EXPECT_LT(first_phase, 2500.0);     // ~100×10
  EXPECT_GT(second_phase, 50000.0);   // ~100×1000
}

TEST(Arrivals, UniformIsDeterministic) {
  util::Rng rng(0);
  workload::UniformArrivals u(100_s, 50_s, 3);
  EXPECT_DOUBLE_EQ(u.next(rng)->get(), 150.0);
  EXPECT_DOUBLE_EQ(u.next(rng)->get(), 200.0);
  EXPECT_DOUBLE_EQ(u.next(rng)->get(), 250.0);
  EXPECT_FALSE(u.next(rng).has_value());
}

// --- Demand trace ------------------------------------------------------------------

TEST(DemandTrace, ConstantRate) {
  const workload::DemandTrace t(24.0);
  EXPECT_DOUBLE_EQ(t.rate_at(0_s), 24.0);
  EXPECT_DOUBLE_EQ(t.rate_at(1e6_s), 24.0);
}

TEST(DemandTrace, PiecewiseSteps) {
  workload::DemandTrace t;
  t.add(0_s, 10.0);
  t.add(100_s, 20.0);
  t.add(200_s, 5.0);
  EXPECT_DOUBLE_EQ(t.rate_at(0_s), 10.0);
  EXPECT_DOUBLE_EQ(t.rate_at(99_s), 10.0);
  EXPECT_DOUBLE_EQ(t.rate_at(100_s), 20.0);
  EXPECT_DOUBLE_EQ(t.rate_at(250_s), 5.0);
  EXPECT_EQ(t.change_times().size(), 3u);
}

TEST(DemandTrace, RejectsNegativeRateAndBackwardsTime) {
  workload::DemandTrace t;
  t.add(10_s, 1.0);
  EXPECT_THROW(t.add(5_s, 2.0), std::invalid_argument);
  EXPECT_THROW(t.add(20_s, -1.0), std::invalid_argument);
}

TEST(DemandTrace, EmptyTraceIsZero) {
  const workload::DemandTrace t;
  EXPECT_DOUBLE_EQ(t.rate_at(0_s), 0.0);
  EXPECT_TRUE(t.empty());
}

TEST(DemandTrace, ScaledMultipliesEveryRate) {
  workload::DemandTrace t;
  t.add(0_s, 10.0);
  t.add(100_s, 20.0);
  const auto half = t.scaled(0.5);
  EXPECT_DOUBLE_EQ(half.rate_at(0_s), 5.0);
  EXPECT_DOUBLE_EQ(half.rate_at(150_s), 10.0);
  EXPECT_EQ(half.change_times().size(), 2u);
  // Factor 1 reproduces the trace exactly (the federation's 1-domain case).
  const auto same = t.scaled(1.0);
  EXPECT_DOUBLE_EQ(same.rate_at(0_s), 10.0);
  EXPECT_DOUBLE_EQ(same.rate_at(100_s), 20.0);
  // Factor 0 drains the trace without dropping breakpoints.
  EXPECT_DOUBLE_EQ(t.scaled(0.0).rate_at(100_s), 0.0);
  EXPECT_THROW((void)t.scaled(-0.1), std::invalid_argument);
}

// --- DemandTrace::window_at ------------------------------------------------------------
//
// window_at(t) = {rate, lo, hi}: rate == rate_at(t), lo <= t <= hi, and
// the rate holds on the whole open interval (lo, hi). Callers cache a
// rate until the query time leaves (lo, hi), so a window that is one
// ulp too wide is a stale read.

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double up(double x) { return std::nextafter(x, kInf); }
double down(double x) { return std::nextafter(x, -kInf); }

/// The contract at `t`, probed at both ends of (lo, hi) and inside it.
void expect_window_contract(const workload::DemandTrace& trace, double t) {
  const workload::DemandTrace::RateWindow w = trace.window_at(util::Seconds{t});
  EXPECT_EQ(w.rate, trace.rate_at(util::Seconds{t})) << "t=" << t;
  EXPECT_LE(w.lo, t);
  EXPECT_GE(w.hi, t);
  std::vector<double> probes;
  if (w.lo > -kInf) probes.push_back(up(w.lo));
  if (w.hi < kInf) probes.push_back(down(w.hi));
  if (w.lo > -kInf && w.hi < kInf) probes.push_back(w.lo + (w.hi - w.lo) / 2.0);
  for (double p : probes) {
    if (p <= w.lo || p >= w.hi) continue;  // empty open interval
    EXPECT_EQ(trace.rate_at(util::Seconds{p}), w.rate) << "t=" << t << " probe=" << p;
  }
}

}  // namespace

TEST(DemandTraceWindow, EmptyTraceIsZeroEverywhere) {
  const workload::DemandTrace t;
  const auto w = t.window_at(42_s);
  EXPECT_EQ(w.rate, 0.0);
  EXPECT_EQ(w.lo, -kInf);
  EXPECT_EQ(w.hi, kInf);
}

TEST(DemandTraceWindow, BeforeTheFirstBreakpoint) {
  workload::DemandTrace t;
  t.add(10_s, 3.0);
  t.add(20_s, 5.0);
  const auto w = t.window_at(4_s);
  EXPECT_EQ(w.rate, 3.0);
  EXPECT_EQ(w.lo, -kInf);
  EXPECT_EQ(w.hi, 10.0);
  expect_window_contract(t, 4.0);
  expect_window_contract(t, down(10.0));
}

TEST(DemandTraceWindow, ExactlyOnABreakpoint) {
  workload::DemandTrace t;
  t.add(0_s, 1.0);
  t.add(10_s, 2.0);
  t.add(20_s, 3.0);
  const auto on = t.window_at(10_s);
  EXPECT_EQ(on.rate, 2.0);
  EXPECT_EQ(on.lo, 10.0);
  EXPECT_EQ(on.hi, 20.0);
  // Just before it the previous step holds, and its window ends there.
  const auto below = t.window_at(util::Seconds{down(10.0)});
  EXPECT_EQ(below.rate, 1.0);
  EXPECT_EQ(below.hi, 10.0);
  // Past the last breakpoint the window is unbounded above.
  const auto last = t.window_at(20_s);
  EXPECT_EQ(last.rate, 3.0);
  EXPECT_EQ(last.lo, 20.0);
  EXPECT_EQ(last.hi, kInf);
  for (double x : {0.0, up(0.0), 5.0, down(10.0), 10.0, up(10.0), 20.0, 1e9}) {
    expect_window_contract(t, x);
  }
}

TEST(DemandTraceWindow, DuplicateBreakpointsAtTheFront) {
  // rate_at returns front().rate exactly at front().from, and the last
  // duplicate's rate just after it; the window must not span both.
  workload::DemandTrace t;
  t.add(5_s, 1.0);
  t.add(5_s, 7.0);
  t.add(15_s, 2.0);
  const auto at = t.window_at(5_s);
  EXPECT_EQ(at.rate, 1.0);
  EXPECT_EQ(at.lo, -kInf);
  EXPECT_EQ(at.hi, 5.0);
  const auto just_after = t.window_at(util::Seconds{up(5.0)});
  EXPECT_EQ(just_after.rate, 7.0);
  EXPECT_EQ(just_after.lo, 5.0);
  EXPECT_EQ(just_after.hi, 15.0);
  EXPECT_EQ(t.rate_at(util::Seconds{up(5.0)}), 7.0);
  for (double x : {0.0, down(5.0), 5.0, up(5.0), 10.0, 15.0}) expect_window_contract(t, x);
}

TEST(DemandTraceWindow, ScaledViewsScaleTheRateNotTheWindow) {
  workload::DemandTrace t;
  t.add(0_s, 10.1);
  t.add(100_s, 20.3);
  t.add(200_s, 5.7);
  const auto third = t.scaled(1.0 / 3.0);
  const auto twice = third.scaled(0.7);  // folds the first factor first
  for (double x : {0.0, 50.0, 100.0, up(100.0), 150.0, 200.0, 1e6}) {
    const auto base = t.window_at(util::Seconds{x});
    for (const workload::DemandTrace* view : {&third, &twice}) {
      const auto w = view->window_at(util::Seconds{x});
      EXPECT_EQ(w.lo, base.lo) << x;
      EXPECT_EQ(w.hi, base.hi) << x;
      expect_window_contract(*view, x);
    }
    EXPECT_EQ(third.window_at(util::Seconds{x}).rate, base.rate * (1.0 / 3.0)) << x;
  }
}

// --- TxApp ---------------------------------------------------------------------------

TEST(TxApp, OfferedLoadIsLambdaTimesDemand) {
  workload::TxAppSpec spec;
  spec.id = util::AppId{0};
  spec.service_demand = 5000.0;
  const workload::TxApp app(spec, workload::DemandTrace{24.0});
  EXPECT_DOUBLE_EQ(app.offered_load(0_s).get(), 120000.0);
}

// --- Job factory -------------------------------------------------------------------------

TEST(JobFactory, GeneratesIdenticalJobsFromTemplate) {
  util::Rng rng(42);
  workload::UniformArrivals arrivals(0_s, 260_s, 10);
  workload::JobTemplate tmpl;
  tmpl.work = util::MhzSeconds{4.8e7};
  tmpl.goal_stretch = 2.0;
  const auto jobs = workload::generate_jobs(arrivals, tmpl, rng);
  ASSERT_EQ(jobs.size(), 10u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].id.get(), i);
    EXPECT_DOUBLE_EQ(jobs[i].work.get(), 4.8e7);
    EXPECT_DOUBLE_EQ(jobs[i].completion_goal.get(), 2.0 * 16000.0);
    EXPECT_DOUBLE_EQ(jobs[i].submit_time.get(), 260.0 * (i + 1));
  }
}

TEST(JobFactory, VariableWorkHasRequestedSpread) {
  util::Rng rng(42);
  workload::UniformArrivals arrivals(0_s, 1_s, 4000);
  workload::JobTemplate tmpl;
  tmpl.work = util::MhzSeconds{1.0e6};
  tmpl.work_cv = 0.5;
  const auto jobs = workload::generate_jobs(arrivals, tmpl, rng);
  double sum = 0.0;
  double sq = 0.0;
  for (const auto& j : jobs) {
    sum += j.work.get();
    sq += j.work.get() * j.work.get();
  }
  const double mean = sum / jobs.size();
  const double cv = std::sqrt(sq / jobs.size() - mean * mean) / mean;
  EXPECT_NEAR(mean, 1.0e6, 0.05e6);
  EXPECT_NEAR(cv, 0.5, 0.05);
}

TEST(JobFactory, FirstIdOffset) {
  util::Rng rng(1);
  workload::UniformArrivals arrivals(0_s, 1_s, 3);
  const auto jobs = workload::generate_jobs(arrivals, workload::JobTemplate{}, rng, 100);
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].id.get(), 100u);
  EXPECT_EQ(jobs[2].id.get(), 102u);
}
