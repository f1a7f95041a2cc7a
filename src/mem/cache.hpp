#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "mem/trace.hpp"

namespace grads::mem {

/// Set-associative LRU cache simulator operating on block addresses.
/// With associativity == number of lines it degenerates to fully-associative
/// LRU — the model the reuse-distance analysis predicts exactly.
class LruCacheSim {
 public:
  /// `lines` total cache lines, split into lines/associativity sets.
  LruCacheSim(std::size_t lines, std::size_t associativity);

  /// Returns true on hit.
  bool access(std::uint64_t block);
  TraceSink sink();

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t accesses() const { return hits_ + misses_; }

  std::size_t lines() const { return lines_; }
  std::size_t sets() const { return sets_.size(); }

 private:
  // Determinism audit (grads-lint R2): eviction picks the LRU list's back,
  // never a map iteration — `map` is a lookup-only index from block id to
  // list position, so hash order cannot influence which line is evicted.
  struct Set {
    std::list<std::uint64_t> lru;  // front = most recent
    std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> map;
  };

  std::size_t lines_;
  std::size_t assoc_;
  std::vector<Set> sets_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace grads::mem
