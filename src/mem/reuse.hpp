#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <unordered_map>
#include <vector>

#include "mem/trace.hpp"

namespace grads::mem {

inline constexpr std::uint64_t kColdMiss =
    std::numeric_limits<std::uint64_t>::max();

/// Histogram of memory-reuse distances with log2 bucketing. Distance d means
/// d distinct blocks were touched between two accesses to the same block;
/// kColdMiss marks first-ever accesses.
class ReuseHistogram {
 public:
  void add(std::uint64_t distance);

  std::uint64_t total() const { return total_; }
  std::uint64_t coldMisses() const { return cold_; }

  /// Number of accesses whose reuse distance is >= `capacityBlocks` (these
  /// miss in a fully-associative LRU cache of that many blocks), including
  /// cold misses.
  std::uint64_t missesForCapacity(std::uint64_t capacityBlocks) const;

  /// Distance below which fraction `q` of *finite*-distance accesses fall
  /// (upper edge of the containing log2 bucket).
  std::uint64_t quantile(double q) const;

 private:
  static int bucketOf(std::uint64_t d);
  static std::uint64_t bucketUpperEdge(int b);

  std::vector<std::uint64_t> buckets_;  // buckets_[b] counts d in [2^(b-1), 2^b)
  std::uint64_t cold_ = 0;
  std::uint64_t total_ = 0;
};

/// Online LRU stack-distance (memory reuse distance) computation — Olken's
/// algorithm implemented with a Fenwick tree over access timestamps:
/// O(log T) per access. Collects a global histogram and one per site.
class ReuseDistanceAnalyzer {
 public:
  ReuseDistanceAnalyzer();

  void access(const MemRef& ref);
  /// Convenience sink adapter.
  TraceSink sink();

  const ReuseHistogram& global() const { return global_; }
  const std::map<std::uint32_t, ReuseHistogram>& perSite() const {
    return perSite_;
  }
  std::uint64_t accesses() const { return time_; }
  std::uint64_t distinctBlocks() const { return lastAccess_.size(); }

 private:
  void fenwickAdd(std::size_t pos, std::int64_t delta);
  std::int64_t fenwickPrefix(std::size_t pos) const;  // sum of [0, pos]
  void ensureCapacity(std::size_t needed);

  std::vector<std::int64_t> fenwick_;
  std::vector<std::uint8_t> active_;
  // Determinism audit (grads-lint R2): lookup-only — find/emplace by block
  // id, never iterated. Distances come from the Fenwick tree and histograms
  // from ordered buckets, so hash order never reaches any reported number.
  std::unordered_map<std::uint64_t, std::uint64_t> lastAccess_;
  std::uint64_t time_ = 0;
  ReuseHistogram global_;
  std::map<std::uint32_t, ReuseHistogram> perSite_;
};

}  // namespace grads::mem
