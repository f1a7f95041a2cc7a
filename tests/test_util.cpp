#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "util/error.hpp"
#include "util/retry.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace grads {
namespace {

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng r(7);
  bool sawLo = false;
  bool sawHi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    sawLo |= v == 0;
    sawHi |= v == 3;
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
  Rng r(13);
  stats::Accumulator acc;
  for (int i = 0; i < 20000; ++i) acc.add(r.normal(10.0, 2.0));
  EXPECT_NEAR(acc.mean(), 10.0, 0.1);
  EXPECT_NEAR(acc.stddev(), 2.0, 0.1);
}

TEST(Rng, ExponentialMean) {
  Rng r(99);
  stats::Accumulator acc;
  for (int i = 0; i < 20000; ++i) acc.add(r.exponential(0.5));
  EXPECT_NEAR(acc.mean(), 2.0, 0.1);
}

TEST(Stats, AccumulatorBasics) {
  stats::Accumulator acc;
  for (double x : {1.0, 2.0, 3.0, 4.0}) acc.add(x);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_NEAR(acc.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Stats, EmptyAccumulatorThrows) {
  stats::Accumulator acc;
  EXPECT_THROW(acc.mean(), InvalidArgument);
}

TEST(Stats, MedianOddEven) {
  std::vector<double> odd{3.0, 1.0, 2.0};
  std::vector<double> even{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(stats::median(odd), 2.0);
  EXPECT_DOUBLE_EQ(stats::median(even), 2.5);
}

TEST(Stats, QuantileEndpoints) {
  std::vector<double> xs{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 1.0), 5.0);
}

TEST(Stats, PolyFitRecoversExactQuadratic) {
  std::vector<double> xs, ys;
  for (double x = 0; x < 10; x += 1) {
    xs.push_back(x);
    ys.push_back(3.0 + 2.0 * x + 0.5 * x * x);
  }
  const auto fit = stats::polyFit(xs, ys, 2);
  ASSERT_EQ(fit.coeffs.size(), 3u);
  EXPECT_NEAR(fit.coeffs[0], 3.0, 1e-9);
  EXPECT_NEAR(fit.coeffs[1], 2.0, 1e-9);
  EXPECT_NEAR(fit.coeffs[2], 0.5, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(Stats, PolyFitCubicExtrapolates) {
  // Fit 4/3 n^3 on small sizes, predict a large one — the exact pattern the
  // performance modeler uses for flop counts.
  std::vector<double> xs, ys;
  for (double n : {100.0, 200.0, 300.0, 400.0, 500.0}) {
    xs.push_back(n);
    ys.push_back(4.0 / 3.0 * n * n * n);
  }
  const auto fit = stats::polyFit(xs, ys, 3);
  EXPECT_NEAR(fit.eval(8000.0), 4.0 / 3.0 * 8000.0 * 8000.0 * 8000.0,
              1e-3 * 4.0 / 3.0 * 8000.0 * 8000.0 * 8000.0);
}

TEST(Stats, PolyFitRejectsTooFewPoints) {
  std::vector<double> xs{1.0, 2.0};
  std::vector<double> ys{1.0, 2.0};
  EXPECT_THROW(stats::polyFit(xs, ys, 3), InvalidArgument);
}

TEST(Stats, PowerFitRecoversExponent) {
  std::vector<double> xs, ys;
  for (double x : {2.0, 4.0, 8.0, 16.0}) {
    xs.push_back(x);
    ys.push_back(3.5 * std::pow(x, 1.7));
  }
  const auto fit = stats::powerFit(xs, ys);
  EXPECT_NEAR(fit.a, 3.5, 1e-9);
  EXPECT_NEAR(fit.b, 1.7, 1e-9);
}

TEST(Table, RowArityEnforced) {
  util::Table t({"a", "b"});
  EXPECT_THROW(t.addRow({std::string("x")}), InvalidArgument);
}

TEST(Table, CsvRoundTrip) {
  util::Table t({"size", "time"});
  t.addRow({static_cast<std::int64_t>(8000), 431.25});
  std::ostringstream os;
  t.writeCsv(os);
  EXPECT_EQ(os.str(), "size,time\n8000,431.25\n");
}

TEST(Table, PrintsAlignedHeader) {
  util::Table t({"name"});
  t.addRow({std::string("utk-cluster")});
  std::ostringstream os;
  t.print(os, "hdr");
  const auto s = os.str();
  EXPECT_NE(s.find("== hdr =="), std::string::npos);
  EXPECT_NE(s.find("utk-cluster"), std::string::npos);
}

TEST(Error, RequireThrowsInvalidArgument) {
  EXPECT_THROW(GRADS_REQUIRE(false, "nope"), InvalidArgument);
}

TEST(Error, AssertThrowsInternalError) {
  EXPECT_THROW(GRADS_ASSERT(false, "bug"), InternalError);
}

TEST(Retry, SingleAttemptNeverGrantsARetry) {
  util::Retry retry(util::RetryPolicy::none());
  EXPECT_FALSE(retry.nextDelaySec().has_value());
  EXPECT_EQ(retry.attemptsUsed(), 0);
  // Repeated polling after exhaustion stays exhausted.
  EXPECT_FALSE(retry.nextDelaySec().has_value());
}

TEST(Retry, ZeroBaseDelayBacksOffToZero) {
  util::RetryPolicy p;
  p.maxAttempts = 3;
  p.baseDelaySec = 0.0;
  p.jitterFrac = 0.0;
  util::Retry retry(p);
  EXPECT_DOUBLE_EQ(*retry.nextDelaySec(), 0.0);
  EXPECT_DOUBLE_EQ(*retry.nextDelaySec(), 0.0);  // 0 × backoff stays 0
  EXPECT_FALSE(retry.nextDelaySec().has_value());
  EXPECT_EQ(retry.attemptsUsed(), 2);
}

TEST(Retry, JitterIsDeterministicAcrossIdenticalSeeds) {
  util::RetryPolicy p;
  p.maxAttempts = 5;
  p.jitterFrac = 0.25;
  Rng a(42);
  Rng b(42);
  util::Retry ra(p, &a);
  util::Retry rb(p, &b);
  for (int i = 0; i < 4; ++i) {
    const auto da = ra.nextDelaySec();
    const auto db = rb.nextDelaySec();
    ASSERT_TRUE(da.has_value());
    ASSERT_TRUE(db.has_value());
    EXPECT_DOUBLE_EQ(*da, *db);
    // Jitter stays within ±jitterFrac of the un-jittered delay.
    const double nominal = p.delaySec(i, nullptr);
    EXPECT_GE(*da, nominal * (1.0 - p.jitterFrac));
    EXPECT_LE(*da, nominal * (1.0 + p.jitterFrac));
  }
}

TEST(Retry, BackoffSaturatesAtCap) {
  util::RetryPolicy p;
  p.maxAttempts = 10;
  p.baseDelaySec = 2.0;
  p.backoffFactor = 10.0;
  p.maxDelaySec = 50.0;
  p.jitterFrac = 0.0;
  util::Retry retry(p);
  EXPECT_DOUBLE_EQ(*retry.nextDelaySec(), 2.0);
  EXPECT_DOUBLE_EQ(*retry.nextDelaySec(), 20.0);
  for (int i = 2; i < 9; ++i) {
    EXPECT_DOUBLE_EQ(*retry.nextDelaySec(), 50.0);  // 200, 2000... clamped
  }
  EXPECT_FALSE(retry.nextDelaySec().has_value());
}

TEST(Retry, NominalScheduleIsAPureFunctionOfAttemptIndex) {
  // delaySec(i, nullptr) is the un-jittered schedule the admission
  // frontend combines with retry-after hints: max(hint, delaySec(i)).
  // It must be stateless — same index, same answer, no draws consumed.
  util::RetryPolicy p;
  p.maxAttempts = 6;
  p.baseDelaySec = 3.0;
  p.backoffFactor = 2.0;
  p.maxDelaySec = 20.0;
  p.jitterFrac = 0.5;  // ignored without an RNG
  EXPECT_DOUBLE_EQ(p.delaySec(0, nullptr), 3.0);
  EXPECT_DOUBLE_EQ(p.delaySec(1, nullptr), 6.0);
  EXPECT_DOUBLE_EQ(p.delaySec(2, nullptr), 12.0);
  EXPECT_DOUBLE_EQ(p.delaySec(3, nullptr), 20.0);  // capped
  EXPECT_DOUBLE_EQ(p.delaySec(0, nullptr), 3.0);   // re-query: unchanged
}

TEST(Retry, JitteredScheduleReplaysFromSavedRngState) {
  // The metascheduler snapshots each tenant's RNG stream; after a
  // crash-restart the remaining jittered resubmit schedule must replay
  // bit-identically from the restored state.
  util::RetryPolicy p;
  p.maxAttempts = 8;
  p.baseDelaySec = 5.0;
  p.jitterFrac = 0.3;
  Rng rng(7);
  // Burn a prefix so the saved state is mid-stream, not the seed.
  for (int i = 0; i < 3; ++i) (void)p.delaySec(i, &rng);
  const RngState saved = rng.state();
  std::vector<double> first;
  for (int i = 0; i < 5; ++i) first.push_back(p.delaySec(i, &rng));
  rng.setState(saved);
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(p.delaySec(i, &rng), first[static_cast<size_t>(i)]);
  }
}

TEST(Retry, ExhaustionIsPermanentAndCountsAttempts) {
  util::RetryPolicy p;
  p.maxAttempts = 4;  // first try + three retries
  p.jitterFrac = 0.0;
  util::Retry retry(p);
  int granted = 0;
  while (retry.nextDelaySec().has_value()) ++granted;
  EXPECT_EQ(granted, 3);
  EXPECT_EQ(retry.attemptsUsed(), 3);
  // Polling past exhaustion neither grants nor counts.
  EXPECT_FALSE(retry.nextDelaySec().has_value());
  EXPECT_EQ(retry.attemptsUsed(), 3);
}

}  // namespace
}  // namespace grads
