#include "services/gis.hpp"

#include "util/error.hpp"

namespace grads::services {

Gis::Gis(const grid::Grid& grid) : grid_(&grid) {}

void Gis::installSoftware(grid::NodeId node, const std::string& package,
                          const std::string& path) {
  GRADS_REQUIRE(node < grid_->nodeCount(), "Gis: unknown node");
  software_[node][package] = path;
}

void Gis::installEverywhere(const std::string& package,
                            const std::string& path) {
  for (grid::NodeId id = 0; id < grid_->nodeCount(); ++id) {
    software_[id][package] = path;
  }
}

bool Gis::hasSoftware(grid::NodeId node, const std::string& package) const {
  const auto it = software_.find(node);
  return it != software_.end() && it->second.count(package) > 0;
}

std::optional<std::string> Gis::softwareLocation(
    grid::NodeId node, const std::string& package) const {
  const auto it = software_.find(node);
  if (it == software_.end()) return std::nullopt;
  const auto jt = it->second.find(package);
  if (jt == it->second.end()) return std::nullopt;
  return jt->second;
}

void Gis::setNodeUp(grid::NodeId node, bool up) {
  GRADS_REQUIRE(node < grid_->nodeCount(), "Gis: unknown node");
  if (up) {
    down_.erase(node);
  } else {
    down_.insert(node);
  }
}

bool Gis::isNodeUp(grid::NodeId node) const { return down_.count(node) == 0; }

void Gis::setNodeReachable(grid::NodeId node, bool reachable) {
  GRADS_REQUIRE(node < grid_->nodeCount(), "Gis: unknown node");
  if (reachable) {
    unreachable_.erase(node);
  } else {
    unreachable_.insert(node);
  }
}

bool Gis::isNodeReachable(grid::NodeId node) const {
  return unreachable_.count(node) == 0;
}

std::vector<grid::NodeId> Gis::availableNodes() const {
  std::vector<grid::NodeId> out;
  for (grid::NodeId id = 0; id < grid_->nodeCount(); ++id) {
    if (down_.count(id) == 0) out.push_back(id);
  }
  return out;
}

}  // namespace grads::services
