#include <gtest/gtest.h>

#include <cmath>

#include "grid/testbeds.hpp"
#include "mem/cache.hpp"
#include "mem/reuse.hpp"
#include "perfmodel/kernel_model.hpp"
#include "util/error.hpp"

namespace grads::perfmodel {
namespace {

TEST(KernelModel, TrainRequiresEnoughSizes) {
  TrainingSet ts;
  ts.sizes = {8, 16};
  ts.flopFitDegree = 3;
  ts.tracer = [](std::size_t, mem::TraceSink) {};
  ts.flopCounter = [](std::size_t) { return 1.0; };
  EXPECT_THROW(KernelModel::train(ts), InvalidArgument);
}

TEST(KernelModel, FlopModelExtrapolatesMatmulExactly) {
  const auto m = trainMatmulModel();
  // 2n³ is a cubic: the degree-3 fit on small sizes must recover it.
  for (double n : {500.0, 1000.0, 4000.0}) {
    const double expected = 2.0 * n * n * n;
    EXPECT_NEAR(m.predictFlops(n), expected, 1e-4 * expected) << n;
  }
}

TEST(KernelModel, FlopModelExtrapolatesQrExactly) {
  const auto m = trainQrModel();
  for (double n : {1000.0, 8000.0}) {
    const double expected = 4.0 / 3.0 * n * n * n;
    // Householder trace-based counts differ from the closed form by lower
    // order terms; allow 1%.
    EXPECT_NEAR(m.predictFlops(n), expected, 0.01 * expected) << n;
  }
}

TEST(KernelModel, NBodyFlopModelIsQuadratic) {
  const auto m = trainNBodyModel();
  const double n = 10000.0;
  EXPECT_NEAR(m.predictFlops(n), 20.0 * n * (n - 1.0),
              0.01 * 20.0 * n * (n - 1.0));
}

TEST(KernelModel, AccessCountExtrapolates) {
  const auto m = trainMatmulModel();
  // traceMatmul issues 2n³ + n² references.
  const double n = 128.0;
  EXPECT_NEAR(m.predictAccesses(n), 2.0 * n * n * n + n * n,
              0.02 * (2.0 * n * n * n));
}

TEST(KernelModel, MissPredictionMatchesSimulationOnUnseenSize) {
  // Train on small sizes, validate against a direct fully-associative LRU
  // simulation at a larger, unseen size — the paper's §3.2 methodology.
  const auto m = trainMatmulModel({16, 24, 32, 40, 48});
  const std::size_t n = 96;

  grid::CacheGeometry cache;
  cache.sizeBytes = 32 * 1024;  // 512 blocks of 64 B
  cache.lineBytes = kModelBlockBytes;
  cache.associativity = 512 / 64;  // unused by prediction

  mem::ReuseDistanceAnalyzer rd;
  mem::traceMatmul(n, kModelElementsPerBlock, rd.sink());
  const auto actual = static_cast<double>(
      rd.global().missesForCapacity(cache.sizeBytes / cache.lineBytes));

  const double predicted = m.predictMisses(static_cast<double>(n), cache);
  // Quantile-bucketed scaling model: expect the right order of magnitude and
  // within ~35% of the simulated count.
  EXPECT_GT(predicted, 0.0);
  EXPECT_NEAR(predicted, actual, 0.35 * actual);
}

TEST(KernelModel, LargerCachePredictsFewerMisses) {
  const auto m = trainQrModel();
  grid::CacheGeometry small{16 * 1024, 64, 8};
  grid::CacheGeometry large{2 * 1024 * 1024, 64, 8};
  const double n = 512.0;
  EXPECT_GE(m.predictMisses(n, small), m.predictMisses(n, large));
}

TEST(KernelModel, MissRatioBetweenZeroAndOne) {
  const auto m = trainMatmulModel();
  grid::CacheGeometry c{256 * 1024, 64, 8};
  for (double n : {64.0, 128.0, 512.0}) {
    const double misses = m.predictMisses(n, c);
    EXPECT_GE(misses, 0.0);
    EXPECT_LE(misses, m.predictAccesses(n));
  }
}

TEST(KernelModel, EcostScalesInverselyWithNodeSpeed) {
  const auto m = trainQrModel();
  const auto fast = grid::ucsdAthlonSpec(0);  // 1.7 GHz × 2 flops/cycle
  const auto slow = grid::uiucQrNodeSpec(0);  // 450 MHz
  const double n = 2000.0;
  EXPECT_LT(m.predictSeconds(n, fast), m.predictSeconds(n, slow));
  // With a cache large enough to hold the problem, the time ratio reduces to
  // the effective single-CPU rate ratio (compute-bound regime).
  auto fastBig = fast;
  auto slowBig = slow;
  fastBig.cache.sizeBytes = 1ULL << 30;
  slowBig.cache.sizeBytes = 1ULL << 30;
  const double ratio =
      m.predictSeconds(n, slowBig) / m.predictSeconds(n, fastBig);
  const double rateRatio =
      fast.effectiveFlopsPerCpu() / slow.effectiveFlopsPerCpu();
  EXPECT_NEAR(ratio, rateRatio, 0.1 * rateRatio);
}

TEST(KernelModel, StencilModelIsLinear) {
  const auto m = trainStencilModel();
  const double f1 = m.predictFlops(10000.0);
  const double f2 = m.predictFlops(20000.0);
  EXPECT_NEAR(f2 / f1, 2.0, 0.02);
}

class MissValidation
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(MissValidation, PredictionWithinFactorTwoOfSimulation) {
  // Sweep (problem size, cache KB): model must stay within 2x of the
  // fully-associative simulation it approximates.
  const auto [n, cacheKb] = GetParam();
  const auto m = trainMatmulModel({16, 24, 32, 40, 48});
  grid::CacheGeometry cache{cacheKb * 1024, kModelBlockBytes, 8};

  mem::ReuseDistanceAnalyzer rd;
  mem::traceMatmul(n, kModelElementsPerBlock, rd.sink());
  const auto actual = static_cast<double>(
      rd.global().missesForCapacity(cache.sizeBytes / cache.lineBytes));
  const double predicted = m.predictMisses(static_cast<double>(n), cache);
  if (actual > 1000.0) {  // ignore tiny-count regimes
    EXPECT_LT(predicted, 2.0 * actual);
    EXPECT_GT(predicted, 0.5 * actual);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MissValidation,
    ::testing::Values(std::pair<std::size_t, std::size_t>{64, 8},
                      std::pair<std::size_t, std::size_t>{64, 16},
                      std::pair<std::size_t, std::size_t>{96, 8},
                      std::pair<std::size_t, std::size_t>{96, 32},
                      std::pair<std::size_t, std::size_t>{128, 16}));

}  // namespace
}  // namespace grads::perfmodel
