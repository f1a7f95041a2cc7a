#include "services/ibp.hpp"

#include <algorithm>

#include "sim/sync.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"

namespace grads::services {

namespace {
/// Local disk bandwidth of every depot (checkpoints are written here).
constexpr double kDiskBandwidth = 30.0 * 1024 * 1024;
}  // namespace

Ibp::Ibp(grid::Grid& grid) : grid_(&grid) {}

sim::PsResource& Ibp::diskFor(grid::NodeId node) {
  auto it = disks_.find(node);
  if (it == disks_.end()) {
    it = disks_
             .emplace(node, std::make_unique<sim::PsResource>(
                                grid_->engine(), kDiskBandwidth, sim::kInfTime,
                                grid_->node(node).name() + ".disk"))
             .first;
  }
  return *it->second;
}

void Ibp::setDepotUp(grid::NodeId node, bool up) {
  GRADS_REQUIRE(node < grid_->nodeCount(), "Ibp::setDepotUp: unknown node");
  if (up) {
    downDepots_.erase(node);
  } else {
    downDepots_.insert(node);
  }
}

bool Ibp::isDepotUp(grid::NodeId node) const {
  return downDepots_.count(node) == 0;
}

bool Ibp::readable(const std::string& key) const {
  const auto it = objects_.find(key);
  return it != objects_.end() && isDepotUp(it->second.node);
}

void Ibp::requireDepotUp(grid::NodeId node, const char* op) const {
  if (!isDepotUp(node)) {
    throw DepotDownError(std::string("Ibp::") + op + ": depot on " +
                         grid_->node(node).name() + " is down");
  }
}

void Ibp::setFence(const std::string& domain, int epoch) {
  GRADS_REQUIRE(!domain.empty(), "Ibp::setFence: empty domain");
  int& fence = fences_[domain];
  if (epoch > fence) fence = epoch;
}

int Ibp::fenceEpoch(const std::string& domain) const {
  const auto it = fences_.find(domain);
  return it == fences_.end() ? 0 : it->second;
}

sim::Task Ibp::put(const std::string& key, double bytes, grid::NodeId atNode,
                   grid::NodeId fromNode, PutOptions opts) {
  GRADS_REQUIRE(bytes >= 0.0, "Ibp::put: negative size");
  GRADS_REQUIRE(atNode < grid_->nodeCount(), "Ibp::put: unknown node");
  // Fencing is checked before any cost is paid: the depot rejects the
  // request up front, like a version check on the write path.
  if (!opts.fenceDomain.empty() && opts.epoch < fenceEpoch(opts.fenceDomain)) {
    ++staleEpochRejects_;
    throw StaleEpochError("Ibp::put: epoch " + std::to_string(opts.epoch) +
                          " behind fence " +
                          std::to_string(fenceEpoch(opts.fenceDomain)) +
                          " for " + opts.fenceDomain + " (zombie writer)");
  }
  requireDepotUp(atNode, "put");
  if (fromNode != grid::kNoId && fromNode != atNode) {
    GRADS_REQUIRE(fromNode < grid_->nodeCount(), "Ibp::put: unknown source");
    co_await grid_->transfer(fromNode, atNode, bytes, opts.transferClass);
  }
  co_await diskFor(atNode).consume(bytes);
  const std::uint64_t digest =
      opts.digest != 0
          ? opts.digest
          : util::hashCombine(util::fnv1a64(key), bytes);
  objects_[key] = Object{bytes, atNode, digest, /*torn=*/false};
}

sim::Task Ibp::getSlice(const std::string& key, double bytes,
                        grid::NodeId toNode, grid::TransferClass cls) {
  const auto it = objects_.find(key);
  GRADS_REQUIRE(it != objects_.end(), "Ibp::get: unknown object " + key);
  GRADS_REQUIRE(it->second.torn || bytes <= it->second.bytes + 1e-6,
                "Ibp::getSlice: slice larger than object");
  // Torn object: deliver what survived (silent short read), never more.
  const double toRead = std::min(bytes, it->second.bytes);
  const grid::NodeId from = it->second.node;
  requireDepotUp(from, "get");
  // Disk read and network transfer overlap poorly at this scale; model them
  // as sequential stages (disk is rarely the bottleneck for remote reads).
  co_await diskFor(from).consume(toRead);
  if (from != toNode) co_await grid_->transfer(from, toNode, toRead, cls);
}

sim::Task Ibp::get(const std::string& key, grid::NodeId toNode,
                   grid::TransferClass cls) {
  const auto it = objects_.find(key);
  GRADS_REQUIRE(it != objects_.end(), "Ibp::get: unknown object " + key);
  co_await getSlice(key, it->second.bytes, toNode, cls);
}

bool Ibp::exists(const std::string& key) const {
  return objects_.count(key) > 0;
}

const Ibp::Object& Ibp::require(const std::string& key, const char* op) const {
  const auto it = objects_.find(key);
  GRADS_REQUIRE(it != objects_.end(),
                std::string("Ibp::") + op + ": unknown object " + key);
  return it->second;
}

double Ibp::sizeOf(const std::string& key) const {
  return require(key, "sizeOf").bytes;
}

grid::NodeId Ibp::locationOf(const std::string& key) const {
  return require(key, "locationOf").node;
}

std::uint64_t Ibp::observedDigest(const std::string& key) const {
  return require(key, "observedDigest").digest;
}

double Ibp::observedBytes(const std::string& key) const {
  return require(key, "observedBytes").bytes;
}

std::vector<std::string> Ibp::keysOnDepot(grid::NodeId node) const {
  std::vector<std::string> keys;
  for (const auto& [key, obj] : objects_) {
    if (obj.node == node) keys.push_back(key);
  }
  return keys;
}

void Ibp::injectBitFlip(const std::string& key, std::uint64_t mask) {
  GRADS_REQUIRE(mask != 0, "Ibp::injectBitFlip: zero mask is a no-op");
  auto it = objects_.find(key);
  GRADS_REQUIRE(it != objects_.end(),
                "Ibp::injectBitFlip: unknown object " + key);
  it->second.digest ^= mask;
  GRADS_WARN("ibp", grid_->engine().now()) << "bit-rot injected into " << key;
}

void Ibp::injectTornWrite(const std::string& key, double keepFrac) {
  GRADS_REQUIRE(keepFrac >= 0.0 && keepFrac < 1.0,
                "Ibp::injectTornWrite: keepFrac must be in [0, 1)");
  auto it = objects_.find(key);
  GRADS_REQUIRE(it != objects_.end(),
                "Ibp::injectTornWrite: unknown object " + key);
  it->second.bytes *= keepFrac;
  it->second.digest = util::hashCombine(it->second.digest, keepFrac);
  it->second.torn = true;
  GRADS_WARN("ibp", grid_->engine().now())
      << "torn write injected into " << key << " (kept " << keepFrac << ")";
}

void Ibp::injectStaleDelivery(const std::string& key) {
  auto it = objects_.find(key);
  GRADS_REQUIRE(it != objects_.end(),
                "Ibp::injectStaleDelivery: unknown object " + key);
  // Outdated content under the right key: size intact, digest of some
  // earlier version (derived deterministically so campaigns replay).
  it->second.digest =
      util::hashCombine(it->second.digest, std::uint64_t{0x57a1e});
  GRADS_WARN("ibp", grid_->engine().now())
      << "stale delivery injected for " << key;
}

void Ibp::remove(const std::string& key) {
  const auto erased = objects_.erase(key);
  GRADS_REQUIRE(erased == 1, "Ibp::remove: unknown object " + key);
}

}  // namespace grads::services
