#include "mem/cache.hpp"

#include "util/error.hpp"

namespace grads::mem {

LruCacheSim::LruCacheSim(std::size_t lines, std::size_t associativity)
    : lines_(lines), assoc_(associativity) {
  GRADS_REQUIRE(lines > 0, "LruCacheSim: zero lines");
  GRADS_REQUIRE(associativity > 0 && associativity <= lines,
                "LruCacheSim: bad associativity");
  GRADS_REQUIRE(lines % associativity == 0,
                "LruCacheSim: lines must be a multiple of associativity");
  sets_.resize(lines / associativity);
}

bool LruCacheSim::access(std::uint64_t block) {
  Set& set = sets_[block % sets_.size()];
  auto it = set.map.find(block);
  if (it != set.map.end()) {
    set.lru.splice(set.lru.begin(), set.lru, it->second);
    ++hits_;
    return true;
  }
  ++misses_;
  if (set.lru.size() == assoc_) {
    set.map.erase(set.lru.back());
    set.lru.pop_back();
  }
  set.lru.push_front(block);
  set.map[block] = set.lru.begin();
  return false;
}

TraceSink LruCacheSim::sink() {
  return [this](const MemRef& r) { access(r.block); };
}

}  // namespace grads::mem
