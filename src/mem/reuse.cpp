#include "mem/reuse.hpp"

#include <bit>

#include "util/error.hpp"

namespace grads::mem {

int ReuseHistogram::bucketOf(std::uint64_t d) {
  // Bucket 0: d == 0; bucket b >= 1: d in [2^(b-1), 2^b).
  if (d == 0) return 0;
  return std::bit_width(d);
}

std::uint64_t ReuseHistogram::bucketUpperEdge(int b) {
  if (b == 0) return 0;
  return (1ULL << b) - 1;
}

void ReuseHistogram::add(std::uint64_t distance) {
  ++total_;
  if (distance == kColdMiss) {
    ++cold_;
    return;
  }
  const int b = bucketOf(distance);
  if (static_cast<std::size_t>(b) >= buckets_.size()) {
    buckets_.resize(static_cast<std::size_t>(b) + 1, 0);
  }
  ++buckets_[static_cast<std::size_t>(b)];
}

std::uint64_t ReuseHistogram::missesForCapacity(
    std::uint64_t capacityBlocks) const {
  // An access with reuse distance d hits in a fully-associative LRU cache of
  // C blocks iff d < C. We count conservatively at bucket granularity using
  // the bucket's upper edge.
  std::uint64_t misses = cold_;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    if (bucketUpperEdge(static_cast<int>(b)) >= capacityBlocks) {
      misses += buckets_[b];
    }
  }
  return misses;
}

std::uint64_t ReuseHistogram::quantile(double q) const {
  GRADS_REQUIRE(q >= 0.0 && q <= 1.0, "ReuseHistogram::quantile: bad q");
  std::uint64_t finite = total_ - cold_;
  if (finite == 0) return 0;
  const auto target = static_cast<std::uint64_t>(q * static_cast<double>(finite));
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    cum += buckets_[b];
    if (cum > target) return bucketUpperEdge(static_cast<int>(b));
  }
  return buckets_.empty() ? 0 : bucketUpperEdge(static_cast<int>(buckets_.size()) - 1);
}

ReuseDistanceAnalyzer::ReuseDistanceAnalyzer() = default;

void ReuseDistanceAnalyzer::fenwickAdd(std::size_t pos, std::int64_t delta) {
  for (std::size_t i = pos + 1; i <= fenwick_.size(); i += i & (~i + 1)) {
    fenwick_[i - 1] += delta;
  }
}

std::int64_t ReuseDistanceAnalyzer::fenwickPrefix(std::size_t pos) const {
  std::int64_t s = 0;
  for (std::size_t i = pos + 1; i > 0; i -= i & (~i + 1)) s += fenwick_[i - 1];
  return s;
}

void ReuseDistanceAnalyzer::ensureCapacity(std::size_t needed) {
  if (fenwick_.size() >= needed) return;
  // A Fenwick tree cannot simply be zero-extended (new nodes cover ranges
  // that include old positions), so rebuild from the active-marker bitmap.
  std::size_t cap = std::max<std::size_t>(1024, fenwick_.size());
  while (cap < needed) cap *= 2;
  active_.resize(cap, 0);
  fenwick_.assign(cap, 0);
  for (std::size_t p = 0; p < active_.size(); ++p) {
    if (active_[p] != 0) fenwickAdd(p, +1);
  }
}

void ReuseDistanceAnalyzer::access(const MemRef& ref) {
  const std::uint64_t t = time_++;
  ensureCapacity(time_);

  std::uint64_t distance = kColdMiss;
  auto it = lastAccess_.find(ref.block);
  if (it != lastAccess_.end()) {
    const std::uint64_t t0 = it->second;
    // Distinct blocks touched strictly between t0 and t = active markers in
    // (t0, t); the marker for this block itself sits at t0 and is excluded.
    const std::int64_t between = fenwickPrefix(static_cast<std::size_t>(t - 1)) -
                                 fenwickPrefix(static_cast<std::size_t>(t0));
    distance = static_cast<std::uint64_t>(between);
    fenwickAdd(static_cast<std::size_t>(t0), -1);
    active_[static_cast<std::size_t>(t0)] = 0;
    it->second = t;
  } else {
    lastAccess_.emplace(ref.block, t);
  }
  fenwickAdd(static_cast<std::size_t>(t), +1);
  active_[static_cast<std::size_t>(t)] = 1;

  global_.add(distance);
  perSite_[ref.site].add(distance);
}

TraceSink ReuseDistanceAnalyzer::sink() {
  return [this](const MemRef& r) { access(r); };
}

}  // namespace grads::mem
