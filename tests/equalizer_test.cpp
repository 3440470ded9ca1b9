// Tests for the hypothetical-utility equalizer — the paper's core
// resource arbiter. Uses both synthetic consumers (closed-form checks)
// and real job/app consumers.

#include "core/equalizer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "util/rng.hpp"

using namespace heteroplace;
using core::EqualizeResult;
using core::UtilityConsumer;
using util::CpuMhz;

namespace {

/// Synthetic consumer with linear utility u = u_max − slope·(1 − ω/demand):
/// u(0) = u_max − slope, u(demand) = u_max. Closed-form inverse.
class LinearConsumer final : public UtilityConsumer {
 public:
  LinearConsumer(double demand, double u_max, double slope)
      : demand_(demand), u_max_(u_max), slope_(slope) {}

  double utility_at(CpuMhz alloc) const override {
    const double frac = std::min(alloc.get() / demand_, 1.0);
    return u_max_ - slope_ * (1.0 - frac);
  }
  CpuMhz alloc_for_utility(double u) const override {
    if (u >= u_max_) return CpuMhz{demand_};
    const double frac = 1.0 - (u_max_ - u) / slope_;
    return CpuMhz{std::clamp(frac, 0.0, 1.0) * demand_};
  }
  CpuMhz demand_max() const override { return CpuMhz{demand_}; }
  double utility_max() const override { return u_max_; }

 private:
  double demand_, u_max_, slope_;
};

std::vector<const UtilityConsumer*> ptrs(const std::vector<LinearConsumer>& cs) {
  std::vector<const UtilityConsumer*> out;
  for (const auto& c : cs) out.push_back(&c);
  return out;
}

}  // namespace

TEST(Equalizer, EmptyConsumersIsEmptyResult) {
  const auto r = core::equalize({}, CpuMhz{1000.0});
  EXPECT_TRUE(r.allocations.empty());
  EXPECT_FALSE(r.contended);
}

TEST(Equalizer, UncontendedGivesEveryoneFullDemand) {
  std::vector<LinearConsumer> cs = {{1000.0, 0.9, 2.0}, {2000.0, 0.8, 2.0}};
  const auto r = core::equalize(ptrs(cs), CpuMhz{5000.0});
  EXPECT_FALSE(r.contended);
  EXPECT_DOUBLE_EQ(r.allocations[0].alloc.get(), 1000.0);
  EXPECT_DOUBLE_EQ(r.allocations[1].alloc.get(), 2000.0);
  EXPECT_DOUBLE_EQ(r.allocations[0].utility, 0.9);
  EXPECT_DOUBLE_EQ(r.allocations[1].utility, 0.8);
  EXPECT_DOUBLE_EQ(r.total_demand.get(), 3000.0);
}

TEST(Equalizer, ContendedEqualizesIdenticalConsumers) {
  std::vector<LinearConsumer> cs = {{2000.0, 1.0, 2.0}, {2000.0, 1.0, 2.0}};
  const auto r = core::equalize(ptrs(cs), CpuMhz{2000.0});
  EXPECT_TRUE(r.contended);
  // Symmetric: each gets half the capacity, utilities equal.
  EXPECT_NEAR(r.allocations[0].alloc.get(), 1000.0, 1.0);
  EXPECT_NEAR(r.allocations[1].alloc.get(), 1000.0, 1.0);
  EXPECT_NEAR(r.allocations[0].utility, r.allocations[1].utility, 1e-6);
  EXPECT_NEAR(r.u_star, 1.0 - 2.0 * 0.5, 1e-3);  // u at half demand
}

TEST(Equalizer, UtilitiesEqualizedAcrossAsymmetricConsumers) {
  // Different demands and slopes: at u*, each allocation is its inverse.
  std::vector<LinearConsumer> cs = {{3000.0, 0.9, 1.5}, {1000.0, 0.8, 3.0}, {2000.0, 1.0, 2.0}};
  const auto r = core::equalize(ptrs(cs), CpuMhz{3000.0});
  ASSERT_TRUE(r.contended);
  for (std::size_t i = 0; i < cs.size(); ++i) {
    if (r.allocations[i].alloc.get() < cs[i].demand_max().get() - 1.0) {
      EXPECT_NEAR(r.allocations[i].utility, r.u_star, 1e-3) << "consumer " << i;
    }
  }
  EXPECT_LE(r.total.get(), 3000.0 + 1e-6);
  EXPECT_GT(r.total.get(), 3000.0 * 0.999);  // uses all capacity
}

TEST(Equalizer, ConsumerThatCannotReachUStarIsClampedAtDemand) {
  // One consumer's max utility is below what the others reach.
  std::vector<LinearConsumer> cs = {{1000.0, 0.2, 1.0}, {2000.0, 1.0, 1.0}, {2000.0, 1.0, 1.0}};
  const auto r = core::equalize(ptrs(cs), CpuMhz{4200.0});
  ASSERT_TRUE(r.contended);
  EXPECT_GT(r.u_star, 0.2);
  // The weak consumer is clamped at its full demand and sits below u*.
  EXPECT_NEAR(r.allocations[0].alloc.get(), 1000.0, 1.0);
  EXPECT_NEAR(r.allocations[0].utility, 0.2, 1e-6);
  EXPECT_LT(r.allocations[0].utility, r.u_star);
}

TEST(Equalizer, MoreCapacityNeverLowersMinUtility) {
  // The max-min objective: the minimum achieved utility (not u*, which is
  // only defined up to clamping) is monotone in capacity and continuous
  // across the contended/uncontended boundary.
  std::vector<LinearConsumer> cs = {{3000.0, 0.9, 2.0}, {1500.0, 0.7, 1.0}, {2500.0, 1.0, 3.0}};
  double last = -1e9;
  for (double cap = 500.0; cap <= 8000.0; cap += 250.0) {
    const auto r = core::equalize(ptrs(cs), CpuMhz{cap});
    double min_u = 1e300;
    for (const auto& a : r.allocations) min_u = std::min(min_u, a.utility);
    ASSERT_GE(min_u, last - 1e-4) << "capacity " << cap;
    last = min_u;
  }
}

TEST(Equalizer, SingleConsumerGetsMinOfDemandAndCapacity) {
  std::vector<LinearConsumer> cs = {{2000.0, 0.9, 1.0}};
  const auto uncontended = core::equalize(ptrs(cs), CpuMhz{5000.0});
  EXPECT_DOUBLE_EQ(uncontended.allocations[0].alloc.get(), 2000.0);
  const auto contended = core::equalize(ptrs(cs), CpuMhz{800.0});
  EXPECT_NEAR(contended.allocations[0].alloc.get(), 800.0, 1.0);
}

TEST(Equalizer, StealingDirection) {
  // Paper: "continuously stealing resources from the more satisfied...
  // to be given to the less satisfied". Shrink capacity: the satisfied
  // (low-demand, high-utility) consumer's allocation shrinks first in
  // relative terms — both end at the same utility.
  std::vector<LinearConsumer> cs = {{1000.0, 1.0, 0.5},   // satisfied cheaply
                                    {4000.0, 1.0, 0.5}};  // needs a lot
  const auto r = core::equalize(ptrs(cs), CpuMhz{2500.0});
  ASSERT_TRUE(r.contended);
  EXPECT_NEAR(r.allocations[0].utility, r.allocations[1].utility, 1e-3);
  // Allocation is uneven (proportional to demand here) but utility even —
  // the paper's headline observation.
  EXPECT_NEAR(r.allocations[1].alloc.get() / r.allocations[0].alloc.get(), 4.0, 0.1);
}

// Property: random consumer populations — feasibility and equalization.
class EqualizerFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EqualizerFuzz, FeasibleAndEqualized) {
  util::Rng rng(GetParam());
  std::vector<LinearConsumer> cs;
  const int n = 2 + static_cast<int>(rng.uniform_int(0, 40));
  double total_demand = 0.0;
  for (int i = 0; i < n; ++i) {
    const double demand = rng.uniform(100.0, 5000.0);
    cs.emplace_back(demand, rng.uniform(0.3, 1.0), rng.uniform(0.5, 4.0));
    total_demand += demand;
  }
  const double capacity = rng.uniform(0.2, 1.4) * total_demand;
  const auto r = core::equalize(ptrs(cs), CpuMhz{capacity});

  // Feasibility.
  ASSERT_LE(r.total.get(), capacity * (1.0 + 1e-6));
  // Per-consumer bounds.
  for (std::size_t i = 0; i < cs.size(); ++i) {
    ASSERT_GE(r.allocations[i].alloc.get(), -1e-9);
    ASSERT_LE(r.allocations[i].alloc.get(), cs[i].demand_max().get() + 1e-6);
  }
  if (r.contended) {
    // KKT-style equalization conditions: interior consumers sit at u*;
    // consumers clamped at full demand sit at or below u*; consumers
    // clamped at zero (already satisfied when starved) sit at or above.
    for (std::size_t i = 0; i < cs.size(); ++i) {
      const double alloc = r.allocations[i].alloc.get();
      const double u = r.allocations[i].utility;
      const bool at_demand = alloc >= cs[i].demand_max().get() * (1.0 - 1e-5);
      const bool at_zero = alloc <= 1e-6;
      if (at_demand) {
        ASSERT_LE(u, r.u_star + 5e-3) << "consumer " << i;
      } else if (at_zero) {
        ASSERT_GE(u, r.u_star - 5e-3) << "consumer " << i;
      } else {
        ASSERT_NEAR(u, r.u_star, 5e-3) << "consumer " << i;
      }
    }
    // Capacity essentially exhausted (equalization is water-tight).
    ASSERT_GT(r.total.get(), capacity * 0.995);
  } else {
    ASSERT_NEAR(r.total.get(), total_demand, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EqualizerFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 42u));

// ---- Replayed bisection vs the seed loop ------------------------------------
// core::equalize decides every midpoint of the seed loop's plain bisection
// (bench::legacy::equalize_virtual) either from the bracket of points it
// has evaluated or by evaluating it. Its flat curves mirror
// JobUtilityModel::speed_for_utility and TxUtilityModel::alloc_for_utility
// operation for operation, so with jobs preceding apps in the consumer
// vector both sum in the same order: the result must equal the oracle's
// bit for bit whatever hint starts its search.

#include <bit>
#include <limits>
#include <string>

#include "legacy/legacy_equalizer.hpp"
#include "utility/job_utility.hpp"
#include "utility/tx_utility.hpp"
#include "utility/utility_fn.hpp"
#include "workload/job.hpp"
#include "workload/transactional.hpp"

namespace {

struct RealPopulation {
  std::vector<heteroplace::workload::Job> jobs;
  std::vector<heteroplace::workload::TxApp> apps;
  heteroplace::utility::JobUtilityModel job_model;
  heteroplace::utility::TxUtilityModel tx_model;
  std::vector<heteroplace::core::JobConsumer> jc;
  std::vector<heteroplace::core::TxConsumer> tc;
  std::vector<const UtilityConsumer*> consumers;

  RealPopulation(int n_jobs, int n_apps, std::uint64_t seed) {
    using namespace heteroplace;
    util::Rng rng(seed);
    const util::Seconds now{60000.0};
    for (int i = 0; i < n_jobs; ++i) {
      workload::JobSpec spec;
      spec.id = util::JobId{static_cast<unsigned>(i)};
      spec.work = util::MhzSeconds{rng.uniform(1.0e7, 6.0e7)};
      spec.max_speed = CpuMhz{3000.0};
      spec.importance = rng.chance(0.3) ? 2.0 : 1.0;
      spec.submit_time = util::Seconds{rng.uniform(0.0, 50000.0)};
      spec.completion_goal = util::Seconds{2.0 * spec.nominal_length().get()};
      jobs.emplace_back(std::move(spec));
    }
    for (int a = 0; a < n_apps; ++a) {
      workload::TxAppSpec spec;
      spec.id = util::AppId{static_cast<unsigned>(a)};
      spec.rt_goal = util::Seconds{rng.uniform(0.5, 2.0)};
      spec.service_demand = rng.uniform(2000.0, 8000.0);
      spec.importance = rng.chance(0.5) ? 1.5 : 1.0;
      apps.emplace_back(spec, workload::DemandTrace{rng.uniform(5.0, 40.0)});
    }
    jc.reserve(jobs.size());
    tc.reserve(apps.size());
    for (const auto& j : jobs) jc.emplace_back(j, job_model, now);
    for (const auto& app : apps) tc.emplace_back(app, tx_model, now);
    for (const auto& c : jc) consumers.push_back(&c);
    for (const auto& c : tc) consumers.push_back(&c);
  }
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Jobs of every make_utility shape (one model per shape) and importance
/// class, some capped by a class-aware speed cap, some finished, some past
/// their goal; four transactional apps at λ = 0, light load, moderate
/// load and saturation; optionally one generic consumer last.
struct ReplayPopulation {
  std::vector<heteroplace::utility::JobUtilityModel> models;
  heteroplace::utility::TxUtilityModel tx_model;
  std::vector<heteroplace::workload::Job> jobs;
  std::vector<heteroplace::workload::TxApp> apps;
  std::vector<heteroplace::core::JobConsumer> jc;
  std::vector<heteroplace::core::TxConsumer> tc;
  std::vector<LinearConsumer> generic;
  std::vector<const UtilityConsumer*> consumers;

  ReplayPopulation(std::uint64_t seed, const std::vector<std::string>& shapes, bool with_generic,
                   double weight_scale) {
    using namespace heteroplace;
    util::Rng rng(seed);
    const util::Seconds now{60000.0};
    for (const auto& s : shapes) models.emplace_back(utility::make_utility(s));
    const int n_jobs = 40 + static_cast<int>(rng.uniform_int(0, 40));
    const double importances[] = {1.0, 2.0, 0.5, 0.0};  // 0 means "unset" (weight 1)
    for (int i = 0; i < n_jobs; ++i) {
      workload::JobSpec spec;
      spec.id = util::JobId{static_cast<unsigned>(i)};
      spec.work = util::MhzSeconds{rng.uniform(1.0e6, 6.0e7)};
      spec.max_speed = CpuMhz{rng.chance(0.5) ? 3000.0 : 1500.0};
      spec.importance = importances[rng.uniform_int(0, 3)] * weight_scale;
      spec.submit_time = util::Seconds{rng.uniform(0.0, 58000.0)};
      spec.completion_goal = util::Seconds{rng.uniform(0.2, 3.0) * spec.nominal_length().get()};
      workload::Job& job = jobs.emplace_back(std::move(spec));
      if (rng.chance(0.1)) {
        job.restore_progress(job.spec().work, 0, 0, now);
      } else if (rng.chance(0.4)) {
        job.restore_progress(job.spec().work * rng.uniform(0.0, 0.9), 0, 0, now);
      }
    }
    const double lambdas[] = {0.0, 0.5, 20.0, 200.0};
    for (int a = 0; a < 4; ++a) {
      workload::TxAppSpec spec;
      spec.id = util::AppId{static_cast<unsigned>(a)};
      spec.rt_goal = util::Seconds{rng.uniform(0.5, 2.0)};
      spec.service_demand = rng.uniform(2000.0, 8000.0);
      spec.importance = (rng.chance(0.5) ? 1.5 : 1.0) * weight_scale;
      spec.throughput_exponent = rng.chance(0.5) ? 2.0 : 1.0;
      apps.emplace_back(spec, workload::DemandTrace{lambdas[a]});
    }
    jc.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const auto& model = models[i % models.size()];
      const double roll = rng.uniform(0.0, 1.0);
      if (roll < 0.05) {
        jc.emplace_back(jobs[i], model, now, CpuMhz{0.0});  // no admitting node
      } else if (roll < 0.3) {
        jc.emplace_back(jobs[i], model, now, CpuMhz{rng.uniform(500.0, 4000.0)});
      } else {
        jc.emplace_back(jobs[i], model, now);
      }
    }
    tc.reserve(apps.size());
    for (const auto& app : apps) tc.emplace_back(app, tx_model, now);
    if (with_generic) generic.emplace_back(2500.0, 0.8, 2.0);
    for (const auto& c : jc) consumers.push_back(&c);
    for (const auto& c : tc) consumers.push_back(&c);
    for (const auto& c : generic) consumers.push_back(&c);
  }

  /// Σ alloc_for_utility(u) as a left fold in input order: with jobs ahead
  /// of apps and the generic consumer last, the equalizer's own total.
  [[nodiscard]] double total_at(double u) const {
    double t = 0.0;
    for (const auto* c : consumers) t += c->alloc_for_utility(u).get();
    return t;
  }

  [[nodiscard]] double total_demand() const {
    double t = 0.0;
    for (const auto* c : consumers) t += c->demand_max().get();
    return t;
  }
};

/// The plain bisection's last upper end: the smallest midpoint it decided
/// infeasible (or the window top), rebuilt from u* and the window.
double final_upper_end(const std::vector<const UtilityConsumer*>& consumers, double u_star) {
  double lo = core::kUFloor;
  double hi = core::kUFloor;
  for (const auto* c : consumers) hi = std::max(hi, c->utility_max());
  for (int it = 0; hi - lo > core::kUTolerance && it < core::kMaxIterations; ++it) {
    const double mid = 0.5 * (lo + hi);
    (mid <= u_star ? lo : hi) = mid;
  }
  return hi;
}

/// Check every field of `r` against the oracle `ref`, bit for bit.
void expect_identical(const EqualizeResult& r, const EqualizeResult& ref,
                      const std::vector<const UtilityConsumer*>& consumers) {
  EXPECT_TRUE(same_bits(r.u_star, ref.u_star)) << r.u_star << " vs " << ref.u_star;
  EXPECT_EQ(r.contended, ref.contended);
  EXPECT_EQ(r.iterations, ref.iterations);
  EXPECT_TRUE(same_bits(r.total.get(), ref.total.get()));
  EXPECT_TRUE(same_bits(r.total_demand.get(), ref.total_demand.get()));
  ASSERT_EQ(r.allocations.size(), ref.allocations.size());
  for (std::size_t i = 0; i < r.allocations.size(); ++i) {
    EXPECT_TRUE(same_bits(r.allocations[i].alloc.get(), ref.allocations[i].alloc.get()))
        << "consumer " << i;
    EXPECT_TRUE(same_bits(r.allocations[i].utility, ref.allocations[i].utility))
        << "consumer " << i;
    EXPECT_TRUE(same_bits(r.allocations[i].demand.get(), consumers[i]->demand_max().get()))
        << "consumer " << i;
  }
}

}  // namespace

TEST(EqualizerReplay, BitIdenticalToBisection) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Passes per contended call with a hint at or next to u* (the common
  // case: a control cycle whose answer barely moved), and, for any hint,
  // beyond the plain bisection's one pass per step.
  constexpr int kWarmPassBound = 6;
  constexpr int kExtraPassBound = 12;
  // Passes per contended call with a hint stale by a control cycle's
  // drift, on smooth populations (the bound paper_x16 meets on average).
  constexpr int kDriftPassBound = 8;

  struct Variant {
    std::vector<std::string> shapes;
    bool generic;
    double weight_scale;
  };
  const std::vector<Variant> variants = {
      {{"piecewise"}, false, 1.0},
      {{"linear"}, false, 1.0},
      {{"sigmoid"}, false, 1.0},
      {{"exponential"}, false, 1.0},
      {{"piecewise", "linear", "sigmoid", "exponential"}, false, 1.0},
      {{"piecewise", "sigmoid"}, true, 1.0},
      {{"piecewise", "exponential"}, false, 1.0e-4},  // floor widening
  };
  int contended = 0, uncontended = 0, widened = 0, plain = 0, at_total = 0, adjacent = 0;
  for (const std::uint64_t seed : {3u, 17u}) {
    for (const auto& v : variants) {
      const ReplayPopulation pop(seed, v.shapes, v.generic, v.weight_scale);
      const double demand = pop.total_demand();
      for (const double fraction : {0.02, 0.25, 0.6, 0.95, 1.0, 1.3}) {
        const CpuMhz capacity{fraction * demand};
        SCOPED_TRACE(testing::Message() << "seed " << seed << ", " << v.shapes.size()
                                        << " shapes, generic " << v.generic << ", weights x"
                                        << v.weight_scale << ", capacity " << fraction);
        const auto ref = bench::legacy::equalize_virtual(pop.consumers, capacity);
        (ref.contended ? contended : uncontended) += 1;
        if (ref.contended && ref.u_star < core::kUFloor) ++widened;
        if (ref.contended && v.generic) ++plain;
        const double u = ref.u_star;
        for (const double hint : {kNaN, u, u + 1.0, u - 1.0, u + 1.0e-3, u - 1.0e-3,
                                  std::nextafter(u, kInf), std::nextafter(u, -kInf), kInf, -kInf,
                                  1.0e6, -1.0e6}) {
          SCOPED_TRACE(testing::Message() << "hint " << hint);
          const auto r = core::equalize(pop.consumers, capacity, hint);
          expect_identical(r, ref, pop.consumers);
          if (!r.contended) {
            EXPECT_EQ(r.passes, 0);
            continue;
          }
          if (v.generic) {
            EXPECT_GE(r.passes, r.iterations);  // every midpoint evaluated
            continue;
          }
          EXPECT_LE(r.passes, ref.iterations + kExtraPassBound);
          if (std::fabs(hint - u) <= 1.0e-9) {
            EXPECT_LE(r.passes, kWarmPassBound);
          }
        }
        if (!ref.contended || v.generic || u < core::kUFloor) continue;

        // Capacity exactly the oracle's total at u*: the bisection decides
        // u* on an equality there. A total summed in another order than the
        // oracle's input-order fold rounds above it now and then, and so
        // takes u* for infeasible.
        const CpuMhz exact{pop.total_at(u)};
        const auto exact_ref = bench::legacy::equalize_virtual(pop.consumers, exact);
        ASSERT_TRUE(same_bits(exact_ref.u_star, u));
        for (const double hint2 : {u, kNaN}) {
          expect_identical(core::equalize(pop.consumers, exact, hint2), exact_ref, pop.consumers);
        }
        ++at_total;

        // Exactly at capacity, with the transition between two adjacent
        // doubles that the bisection both visits: u* and the next double
        // (capacity = total(u*), hint on the infeasible one), and the
        // bisection's last upper end m and the double below it (capacity =
        // total there, hint on the feasible one). The plain bisection takes
        // the same path at these capacities; a bracket that decided a point
        // one ulp beyond what it evaluated would not.
        const double m = final_upper_end(pop.consumers, u);
        const double pairs[2][3] = {{u, std::nextafter(u, kInf), std::nextafter(u, kInf)},
                                    {std::nextafter(m, -kInf), m, std::nextafter(m, -kInf)}};
        for (const auto& [feasible, infeasible, hint] : pairs) {
          const double at = pop.total_at(feasible);
          if (!(pop.total_at(infeasible) > at)) continue;  // total flat across the pair
          const CpuMhz tight{at};
          SCOPED_TRACE(testing::Message() << "adjacent hint " << hint << ", capacity " << at);
          const auto tight_ref = bench::legacy::equalize_virtual(pop.consumers, tight);
          ASSERT_TRUE(same_bits(tight_ref.u_star, u));
          for (const double hint2 : {hint, u, kNaN}) {
            const auto r = core::equalize(pop.consumers, tight, hint2);
            expect_identical(r, tight_ref, pop.consumers);
            EXPECT_LE(r.passes, std::isnan(hint2) ? tight_ref.iterations + kExtraPassBound
                                                  : kWarmPassBound);
          }
          ++adjacent;
        }
      }
    }
  }

  // A control cycle's drift on the smooth populations perf_baseline times:
  // the hint is the last cycle's u*, stale by up to ±0.03.
  for (const std::uint64_t seed : {91u, 5u, 6u}) {
    for (const int n_jobs : {300, 1000}) {
      const RealPopulation pop(n_jobs, /*n_apps=*/4, seed);
      for (const double per_60_jobs : {20000.0, 40000.0, 60000.0, 90000.0}) {
        const CpuMhz capacity{per_60_jobs * n_jobs / 60.0};
        SCOPED_TRACE(testing::Message() << "seed " << seed << ", " << n_jobs << " jobs, capacity "
                                        << capacity.get());
        const auto ref = bench::legacy::equalize_virtual(pop.consumers, capacity);
        if (!ref.contended) continue;
        ++contended;
        for (const double drift : {1e-4, 1e-3, 1e-2, 3e-2, -1e-4, -1e-3, -1e-2, -3e-2}) {
          SCOPED_TRACE(testing::Message() << "hint u* + " << drift);
          const auto r = core::equalize(pop.consumers, capacity, ref.u_star + drift);
          expect_identical(r, ref, pop.consumers);
          EXPECT_LE(r.passes, kDriftPassBound);
        }
      }
    }
  }

  // 60 and 300 jobs (above 256 consumers) plus four apps at three
  // capacities, and a population of generic consumers only.
  for (const int n_jobs : {60, 300}) {
    const RealPopulation pop(n_jobs, /*n_apps=*/4, /*seed=*/91u);
    for (const double per_60_jobs : {20000.0, 60000.0, 120000.0}) {
      const CpuMhz capacity{per_60_jobs * n_jobs / 60.0};
      SCOPED_TRACE(testing::Message() << n_jobs << " jobs, capacity " << capacity.get());
      const auto ref = bench::legacy::equalize_virtual(pop.consumers, capacity);
      for (const double hint : {kNaN, ref.u_star}) {
        expect_identical(core::equalize(pop.consumers, capacity, hint), ref, pop.consumers);
      }
    }
  }
  std::vector<LinearConsumer> linear = {
      {3000.0, 0.9, 1.5}, {1000.0, 0.8, 3.0}, {2000.0, 1.0, 2.0}};
  const auto linear_ref = bench::legacy::equalize_virtual(ptrs(linear), CpuMhz{3000.0});
  ASSERT_TRUE(linear_ref.contended);
  expect_identical(core::equalize(ptrs(linear), CpuMhz{3000.0}), linear_ref, ptrs(linear));

  // Non-vacuity: every regime the replay must handle was exercised.
  EXPECT_GT(contended, 0);
  EXPECT_GT(uncontended, 0);
  EXPECT_GT(widened, 0);
  EXPECT_GT(plain, 0);
  EXPECT_GT(at_total, 0);
  EXPECT_GT(adjacent, 0);
}


TEST(EqualizerReplay, NaNTotalsKeepThePlainBisectionsDecisions) {
  // A job whose goal is infinite has a NaN allocation where fn⁻¹ is 0 (at
  // and above the best utility, so at the window top); one whose goal is
  // NaN has a NaN allocation everywhere. A NaN total compares false both
  // ways; it must never be taken for either side of the bracket.
  RealPopulation pop(60, /*n_apps=*/4, /*seed=*/91u);
  for (const double goal : {std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(testing::Message() << "goal " << goal);
    heteroplace::workload::JobSpec spec = pop.jobs.front().spec();
    spec.completion_goal = heteroplace::util::Seconds{goal};
    const heteroplace::workload::Job odd(spec);
    const heteroplace::core::JobConsumer odd_consumer(odd, pop.job_model,
                                                      heteroplace::util::Seconds{60000.0});
    auto consumers = pop.consumers;
    consumers.insert(consumers.begin(), &odd_consumer);
    const CpuMhz capacity{20000.0};
    const auto ref = bench::legacy::equalize_virtual(consumers, capacity);
    ASSERT_TRUE(ref.contended);
    for (const double hint : {std::numeric_limits<double>::quiet_NaN(), ref.u_star, 0.5}) {
      SCOPED_TRACE(testing::Message() << "hint " << hint);
      const auto r = core::equalize(consumers, capacity, hint);
      EXPECT_TRUE(same_bits(r.u_star, ref.u_star)) << r.u_star << " vs " << ref.u_star;
      EXPECT_EQ(r.iterations, ref.iterations);
      EXPECT_TRUE(same_bits(r.total.get(), ref.total.get()));
    }
  }
}
