#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "grid/grid.hpp"

namespace grads::services {

/// Well-known software package names used across the framework.
namespace software {
inline constexpr const char* kLocalBinder = "grads-binder";
inline constexpr const char* kSrsLibrary = "libsrs";
inline constexpr const char* kAutopilotSensors = "libautopilot";
inline constexpr const char* kScalapack = "libscalapack";
inline constexpr const char* kCompiler = "cc";
}  // namespace software

/// The GrADS Information Service (MDS-style directory): which resources
/// exist, what software is installed where, and per-node attributes. The
/// distributed binder queries it to locate the local binder code and the
/// application-specific libraries on every scheduled node (paper §2).
class Gis : public core::Snapshottable {
 public:
  explicit Gis(const grid::Grid& grid);

  /// Snapshot participation: the full directory (software catalogue,
  /// reported up/down set, ground-truth reachability) is logical state and
  /// round-trips exactly.
  const char* snapshotSection() const override { return "services.gis"; }
  void encodeState(core::SnapshotWriter& w) const override {
    snapshotIo(*this, w);
  }
  void decodeState(core::SnapshotReader& r) override { snapshotIo(*this, r); }

  /// Registers a software package as installed on a node, at a path.
  void installSoftware(grid::NodeId node, const std::string& package,
                       const std::string& path = "/usr/grads/lib");
  /// Installs a package on every node of the grid.
  void installEverywhere(const std::string& package,
                         const std::string& path = "/usr/grads/lib");

  bool hasSoftware(grid::NodeId node, const std::string& package) const;
  /// Path of a package on a node, if installed.
  std::optional<std::string> softwareLocation(grid::NodeId node,
                                              const std::string& package) const;

  /// Marks a node up/down in the *directory*; down nodes are excluded from
  /// discovery. This is the reported state — what schedulers see.
  void setNodeUp(grid::NodeId node, bool up);
  bool isNodeUp(grid::NodeId node) const;

  /// Ground truth, which the directory may lag behind: a fail-stopped node
  /// is unreachable immediately, while the GIS keeps advertising it until
  /// its registration times out. Launching onto a reachable==false node
  /// fails (the stale-GIS failure mode).
  void setNodeReachable(grid::NodeId node, bool reachable);
  bool isNodeReachable(grid::NodeId node) const;

  /// All currently-available nodes ("determine which resources are
  /// available", paper §1) — per the directory, stale entries included.
  std::vector<grid::NodeId> availableNodes() const;

  const grid::Grid& grid() const { return *grid_; }

 private:
  template <class Self, class Ar>
  static void snapshotIo(Self& s, Ar& a) {
    a(s.software_, s.down_, s.unreachable_);
  }

  const grid::Grid* grid_;  // grads: transient(wiring, re-bound at construction)
  std::map<grid::NodeId, std::map<std::string, std::string>> software_;
  std::set<grid::NodeId> down_;         ///< reported (directory) state
  std::set<grid::NodeId> unreachable_;  ///< actual state
};

}  // namespace grads::services
