#pragma once

#include "core/cop.hpp"
#include "services/gis.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace grads::core {

/// Raised when a scheduled node lacks required software.
class BindError : public Error {
 public:
  explicit BindError(const std::string& what) : Error(what) {}
};

struct BindReport {
  double seconds = 0.0;   ///< wall time of the whole distributed bind
  int nodesBound = 0;
};

/// The distributed GrADS binder (paper §2). The global binder queries the
/// GIS for the local binder and library locations on every scheduled node,
/// then runs a local binder process per node — in parallel — which
/// instruments the code with Autopilot sensors and configures/compiles the
/// intermediate representation *on the target machine*, which is what makes
/// heterogeneous (IA-32 + IA-64) resource sets work.
class Binder {
 public:
  Binder(sim::Engine& engine, const services::Gis& gis);

  /// Binds the COP onto the mapping; throws BindError if any node lacks the
  /// local binder or a required library. Fills `report` if non-null.
  sim::Task bind(const Cop& cop, std::vector<grid::NodeId> mapping,
                 BindReport* report);

 private:
  sim::Task localBind(grid::NodeId node, std::size_t libraries);

  sim::Engine* engine_;
  const services::Gis* gis_;
};

}  // namespace grads::core
