#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "avsec/core/rng.hpp"
#include "avsec/core/stats.hpp"

namespace avsec::core {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= (v == 3);
    saw_hi |= (v == 7);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSingletonRange) {
  Rng rng(9);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, ChanceEdgeCases) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(11);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, NormalHasExpectedMoments) {
  Rng rng(3);
  Accumulator acc;
  for (int i = 0; i < 100000; ++i) acc.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(acc.mean(), 10.0, 0.05);
  EXPECT_NEAR(acc.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialHasExpectedMean) {
  Rng rng(5);
  Accumulator acc;
  for (int i = 0; i < 100000; ++i) acc.add(rng.exponential(4.0));
  EXPECT_NEAR(acc.mean(), 0.25, 0.01);
}

TEST(Rng, PoissonMatchesMeanSmallAndLarge) {
  Rng rng(13);
  Accumulator small, large;
  for (int i = 0; i < 50000; ++i) small.add(rng.poisson(3.0));
  for (int i = 0; i < 50000; ++i) large.add(rng.poisson(100.0));
  EXPECT_NEAR(small.mean(), 3.0, 0.1);
  EXPECT_NEAR(large.mean(), 100.0, 1.0);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(21);
  Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.next() == child.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, FillBytesFillsEverything) {
  Rng rng(17);
  std::vector<std::uint8_t> buf(1001, 0);
  rng.fill_bytes(buf);
  int zeros = 0;
  for (auto b : buf) zeros += (b == 0);
  EXPECT_LT(zeros, 30);  // ~1/256 expected
}

TEST(Accumulator, BasicMoments) {
  Accumulator acc;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(Accumulator, EmptyIsZero) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.stddev(), 0.0);
}

TEST(Accumulator, MergeMatchesCombinedStream) {
  Rng rng(31);
  Accumulator a, b, all;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal();
    if (i % 2) {
      a.add(v);
    } else {
      b.add(v);
    }
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Samples, QuantilesExact) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-12);
  EXPECT_NEAR(s.quantile(0.99), 99.01, 1e-9);
}

TEST(Samples, AddAfterQuantileStillCorrect) {
  Samples s;
  s.add(5.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  s.add(0.5);
  EXPECT_DOUBLE_EQ(s.min(), 0.5);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(Samples, MinMaxLeaveValuesInInsertionOrder) {
  Samples s;
  // Sums that depend on order: 1e16 swallows a lone 1.0 but not two.
  const std::vector<double> xs = {1e16, 1.0, -1e16, 1.0, 3.5, -2.25};
  for (double x : xs) s.add(x);
  const double mean_before = s.mean();
  EXPECT_DOUBLE_EQ(s.max(), 1e16);
  EXPECT_DOUBLE_EQ(s.min(), -1e16);
  EXPECT_EQ(s.values(), xs);
  const double mean_after = s.mean();
  EXPECT_EQ(std::memcmp(&mean_before, &mean_after, sizeof(double)), 0);
}

TEST(Counter, CountsAndFractions) {
  Counter c;
  c.add("detected", 3);
  c.add("missed");
  EXPECT_EQ(c.get("detected"), 3u);
  EXPECT_EQ(c.get("missed"), 1u);
  EXPECT_EQ(c.get("absent"), 0u);
  EXPECT_DOUBLE_EQ(c.fraction("detected"), 0.75);
  EXPECT_EQ(c.sorted().front().first, "detected");
}

}  // namespace
}  // namespace avsec::core
