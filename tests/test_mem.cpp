#include <gtest/gtest.h>

#include <vector>

#include "mem/cache.hpp"
#include "mem/reuse.hpp"
#include "mem/trace.hpp"
#include "util/error.hpp"

namespace grads::mem {
namespace {

std::vector<std::uint64_t> distancesOf(const std::vector<std::uint64_t>& blocks) {
  // Reference implementation: naive O(n²) LRU stack distance.
  std::vector<std::uint64_t> out;
  std::vector<std::uint64_t> stack;  // front = most recent
  for (const auto b : blocks) {
    std::uint64_t d = kColdMiss;
    for (std::size_t i = 0; i < stack.size(); ++i) {
      if (stack[i] == b) {
        d = i;
        stack.erase(stack.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    stack.insert(stack.begin(), b);
    out.push_back(d);
  }
  return out;
}

TEST(ReuseDistance, ColdMissesForDistinctBlocks) {
  ReuseDistanceAnalyzer a;
  for (std::uint64_t b = 0; b < 10; ++b) a.access(MemRef{b, 0, false});
  EXPECT_EQ(a.global().coldMisses(), 10u);
  EXPECT_EQ(a.distinctBlocks(), 10u);
}

TEST(ReuseDistance, ImmediateReuseHasDistanceZero) {
  ReuseDistanceAnalyzer a;
  a.access(MemRef{5, 0, false});
  a.access(MemRef{5, 0, false});
  EXPECT_EQ(a.global().coldMisses(), 1u);
  EXPECT_EQ(a.global().missesForCapacity(1), 1u);  // only the cold miss
}

TEST(ReuseDistance, KnownPattern) {
  // Access A B C A: A's reuse distance is 2 (B and C in between).
  ReuseDistanceAnalyzer a;
  for (std::uint64_t b : {0, 1, 2, 0}) a.access(MemRef{b, 0, false});
  // Capacity 2 cache: the second A misses (distance 2 >= 2).
  EXPECT_EQ(a.global().missesForCapacity(2), 4u);
  // Capacity 4: the second A hits... distance 2 < 4, bucketised upper edge
  // of bucket(2)=[2,4) is 3 < 4 → hit.
  EXPECT_EQ(a.global().missesForCapacity(4), 3u);
}

TEST(ReuseDistance, MatchesNaiveReferenceOnRandomTrace) {
  // Cross-check the Fenwick implementation against the O(n²) reference.
  std::vector<std::uint64_t> blocks;
  std::uint64_t state = 12345;
  for (int i = 0; i < 3000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    blocks.push_back((state >> 33) % 97);
  }
  const auto ref = distancesOf(blocks);

  ReuseDistanceAnalyzer a;
  for (const auto b : blocks) a.access(MemRef{b, 0, false});

  // Compare via histogram of misses at every power-of-two capacity.
  ReuseHistogram refHist;
  for (const auto d : ref) refHist.add(d);
  for (std::uint64_t cap = 1; cap <= 256; cap *= 2) {
    EXPECT_EQ(a.global().missesForCapacity(cap), refHist.missesForCapacity(cap))
        << "capacity " << cap;
  }
  EXPECT_EQ(a.global().coldMisses(), refHist.coldMisses());
}

TEST(ReuseDistance, FenwickGrowthPreservesCounts) {
  // Force several capacity doublings (initial capacity is 1024).
  ReuseDistanceAnalyzer a;
  for (std::uint64_t i = 0; i < 5000; ++i) a.access(MemRef{i % 3, 0, false});
  EXPECT_EQ(a.accesses(), 5000u);
  EXPECT_EQ(a.global().coldMisses(), 3u);
  // All reuses have distance 2 → hit for capacity 4, miss for capacity 2.
  EXPECT_EQ(a.global().missesForCapacity(4), 3u);
  EXPECT_EQ(a.global().missesForCapacity(2), 5000u);
}

TEST(ReuseDistance, PerSiteHistogramsSumToGlobal) {
  ReuseDistanceAnalyzer a;
  traceMatmul(12, 4, a.sink());
  std::uint64_t total = 0;
  for (const auto& [site, hist] : a.perSite()) total += hist.total();
  EXPECT_EQ(total, a.global().total());
  EXPECT_EQ(a.perSite().size(), 3u);  // A, B, C sites
}

TEST(ReuseHistogram, QuantileMonotone) {
  ReuseHistogram h;
  for (std::uint64_t d : {1, 2, 4, 8, 16, 32, 64, 128}) h.add(d);
  EXPECT_LE(h.quantile(0.25), h.quantile(0.5));
  EXPECT_LE(h.quantile(0.5), h.quantile(0.9));
}

TEST(LruCache, HitsOnImmediateReuse) {
  LruCacheSim c(4, 4);
  EXPECT_FALSE(c.access(1));
  EXPECT_TRUE(c.access(1));
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.misses(), 1u);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCacheSim c(2, 2);  // fully associative, 2 lines
  c.access(1);
  c.access(2);
  c.access(3);  // evicts 1
  EXPECT_FALSE(c.access(1));
  EXPECT_TRUE(c.access(3));
}

TEST(LruCache, BadGeometryRejected) {
  EXPECT_THROW(LruCacheSim(0, 1), InvalidArgument);
  EXPECT_THROW(LruCacheSim(4, 3), InvalidArgument);
  EXPECT_THROW(LruCacheSim(4, 8), InvalidArgument);
}

TEST(LruCache, FullyAssociativeMatchesReuseDistancePrediction) {
  // The defining property the perf model relies on: in a fully-associative
  // LRU cache of C blocks, an access misses iff its reuse distance >= C.
  ReuseDistanceAnalyzer rd;
  std::vector<std::uint64_t> exactDistances;
  std::vector<std::uint64_t> blocks;
  std::uint64_t state = 777;
  for (int i = 0; i < 4000; ++i) {
    state = state * 2862933555777941757ULL + 3037000493ULL;
    blocks.push_back((state >> 30) % 61);
  }
  const auto dist = distancesOf(blocks);
  for (std::uint64_t cap : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    LruCacheSim cache(cap, cap);
    for (const auto b : blocks) cache.access(b);
    std::uint64_t predicted = 0;
    for (const auto d : dist) {
      if (d == kColdMiss || d >= cap) ++predicted;
    }
    EXPECT_EQ(cache.misses(), predicted) << "capacity " << cap;
  }
  (void)rd;
  (void)exactDistances;
}

TEST(Traces, MatmulAccessCountIsExact) {
  std::size_t count = 0;
  const std::size_t n = 8;
  traceMatmul(n, 1, [&](const MemRef&) { ++count; });
  EXPECT_EQ(count, 2 * n * n * n + n * n);
}

TEST(Traces, QrTouchesWholeMatrix) {
  ReuseDistanceAnalyzer a;
  const std::size_t n = 10;
  traceQr(n, 1, a.sink());
  EXPECT_EQ(a.distinctBlocks(), n * n);
}

TEST(Traces, StencilAlternatesArrays) {
  ReuseDistanceAnalyzer a;
  traceStencil(64, 2, 1, a.sink());
  // Two arrays of 64 blocks, interior points only → ~126 distinct.
  EXPECT_GT(a.distinctBlocks(), 120u);
  EXPECT_LE(a.distinctBlocks(), 128u);
}

TEST(Traces, NBodyQuadraticAccesses) {
  std::size_t count = 0;
  traceNBody(20, 1, [&](const MemRef&) { ++count; });
  EXPECT_EQ(count, 20u * (1 + 19 + 1));
}

TEST(Traces, FlopCountsPositiveAndOrdered) {
  EXPECT_GT(qrFlopCount(100), 0.0);
  EXPECT_GT(matmulFlopCount(200), matmulFlopCount(100));
  EXPECT_GT(nbodyFlopCount(100), nbodyFlopCount(50));
  EXPECT_GT(stencilFlopCount(100, 4), stencilFlopCount(100, 2));
}

TEST(Traces, LargerCacheNeverMoreMisses) {
  // Inclusion property through our whole pipeline on a real kernel trace.
  ReuseDistanceAnalyzer a;
  traceMatmul(16, 4, a.sink());
  std::uint64_t prev = a.global().total() + 1;
  for (std::uint64_t cap = 1; cap <= 1 << 12; cap *= 2) {
    const auto m = a.global().missesForCapacity(cap);
    EXPECT_LE(m, prev);
    prev = m;
  }
}

TEST(FlopCounts, QrClosedForm) {
  // Square: 2n²(n − n/3) = (4/3)n³.
  EXPECT_NEAR(qrFlopCount(100), 4.0 / 3.0 * 1e6, 1.0);
}

TEST(FlopCounts, Matmul) { EXPECT_DOUBLE_EQ(matmulFlopCount(10), 2000.0); }

}  // namespace
}  // namespace grads::mem
