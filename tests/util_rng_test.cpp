// Tests for util/rng: determinism and distribution sanity.

#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace hu = heteroplace::util;

TEST(Rng, SameSeedSameStream) {
  hu::Rng a(123);
  hu::Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  hu::Rng a(1);
  hu::Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ReseedRestartsTheStream) {
  hu::Rng a(77);
  const auto x0 = a();
  const auto x1 = a();
  a.reseed(77);
  EXPECT_EQ(a(), x0);
  EXPECT_EQ(a(), x1);
}

TEST(Rng, Uniform01StaysInRange) {
  hu::Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeWithoutBias) {
  hu::Rng rng(9);
  int counts[6] = {0};
  for (int i = 0; i < 60000; ++i) {
    const auto v = rng.uniform_int(10, 15);
    ASSERT_GE(v, 10u);
    ASSERT_LE(v, 15u);
    ++counts[v - 10];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, 10000, 600);  // ~6 sigma
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  hu::Rng a(42);
  hu::Rng child = a.split();
  // Child stream differs from the parent's continuation.
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == child()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ChanceIsCalibrated) {
  hu::Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

// Distribution moments, swept over seeds so one unlucky stream cannot
// mask a bias bug.
class RngMoments : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngMoments, ExponentialMeanMatches) {
  hu::Rng rng(GetParam());
  const double mean = 260.0;
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential_mean(mean);
  EXPECT_NEAR(sum / n, mean, mean * 0.02);
}

TEST_P(RngMoments, NormalMeanAndStddevMatch) {
  hu::Rng rng(GetParam());
  double sum = 0.0;
  double sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(5.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST_P(RngMoments, LognormalMedianMatches) {
  hu::Rng rng(GetParam());
  // Median of lognormal(mu, sigma) is exp(mu).
  const double mu = 1.0;
  int below = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.lognormal(mu, 0.8) < std::exp(mu)) ++below;
  }
  EXPECT_NEAR(below / static_cast<double>(n), 0.5, 0.01);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngMoments, ::testing::Values(1u, 42u, 1234u, 987654321u));
