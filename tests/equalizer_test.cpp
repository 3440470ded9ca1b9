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
using core::ConsumerKind;
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
  ConsumerKind kind() const override { return ConsumerKind::kJob; }

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

// ---- Curve-cache vs. virtual-dispatch equivalence ---------------------------
// The flat-array hot loop in core::equalize mirrors JobUtilityModel::speed_for_utility and
// TxUtilityModel::alloc_for_utility operation for operation, so with
// jobs preceding apps in the consumer vector the two paths sum in the
// same order and must agree exactly with the virtual-dispatch seed loop
// kept under bench/legacy/.

#include "legacy/legacy_equalizer.hpp"
#include "utility/job_utility.hpp"
#include "utility/tx_utility.hpp"
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

}  // namespace

TEST(EqualizerCurveCache, MatchesVirtualPathExactlyOnRealConsumers) {
  // 300 jobs covers populations above 256 consumers. Both paths sum as
  // plain left folds, so they must agree bit for bit at every size.
  for (const int n_jobs : {60, 300}) {
    RealPopulation pop(n_jobs, /*n_apps=*/4, /*seed=*/91u);
    // Capacities per 60 jobs, scaled with the population.
    for (const double per_60_jobs : {20000.0, 60000.0, 120000.0}) {
      const CpuMhz capacity{per_60_jobs * n_jobs / 60.0};
      SCOPED_TRACE(testing::Message() << n_jobs << " jobs, capacity " << capacity.get());
      const auto rf = core::equalize(pop.consumers, capacity);
      const auto rs = bench::legacy::equalize_virtual(pop.consumers, capacity);
      EXPECT_EQ(rf.u_star, rs.u_star);
      EXPECT_EQ(rf.contended, rs.contended);
      EXPECT_EQ(rf.iterations, rs.iterations);
      ASSERT_EQ(rf.allocations.size(), rs.allocations.size());
      for (std::size_t i = 0; i < rf.allocations.size(); ++i) {
        EXPECT_EQ(rf.allocations[i].alloc.get(), rs.allocations[i].alloc.get()) << "consumer " << i;
        EXPECT_EQ(rf.allocations[i].utility, rs.allocations[i].utility) << "consumer " << i;
      }
      EXPECT_EQ(rf.total.get(), rs.total.get());
    }
  }
}

TEST(EqualizerCurveCache, GenericConsumersKeepVirtualSemantics) {
  // Consumers that export no closed form (like this file's
  // LinearConsumer) must behave identically on both paths.
  std::vector<LinearConsumer> cs = {{3000.0, 0.9, 1.5}, {1000.0, 0.8, 3.0}, {2000.0, 1.0, 2.0}};
  const auto rf = core::equalize(ptrs(cs), CpuMhz{3000.0});
  const auto rs = bench::legacy::equalize_virtual(ptrs(cs), CpuMhz{3000.0});
  EXPECT_DOUBLE_EQ(rf.u_star, rs.u_star);
  for (std::size_t i = 0; i < cs.size(); ++i) {
    EXPECT_DOUBLE_EQ(rf.allocations[i].alloc.get(), rs.allocations[i].alloc.get());
  }
}
