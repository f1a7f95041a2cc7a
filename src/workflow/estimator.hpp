#pragma once

#include <limits>

#include "grid/grid.hpp"
#include "services/gis.hpp"
#include "services/nws.hpp"
#include "workflow/dag.hpp"

namespace grads::workflow {

inline constexpr double kInfeasible = std::numeric_limits<double>::infinity();

/// Cost estimator the scheduler ranks with (paper §3.1):
///   rank(ci, rj) = w1 · ecost(ci, rj) + w2 · dcost(ci, rj)
/// ecost is the expected execution time from the performance model; dcost is
/// the data-movement cost given current network conditions (via NWS).
///
/// Contract: for the whole of one WorkflowScheduler::schedule() call, both
/// methods must return the same value for the same arguments. The scheduler
/// asks once per (component, node) and once per (from, to, bytes) in a call
/// and reuses the answer; between calls answers may change (NWS sweeps).
class Estimator {
 public:
  virtual ~Estimator() = default;

  /// Expected execution time of a component on a node, or kInfeasible when
  /// the node does not meet the component's minimum requirements.
  virtual double ecost(const Component& c, grid::NodeId node) const = 0;

  /// Expected time to move `bytes` from node `from` to node `to`.
  virtual double transferCost(grid::NodeId from, grid::NodeId to,
                              double bytes) const = 0;
};

/// Estimator backed by the GIS (eligibility) and either NWS forecasts
/// (scheduler view, possibly noisy/stale) or ground-truth specs (evaluation
/// view). Pass nws == nullptr for the ground-truth variant.
class GridEstimator final : public Estimator {
 public:
  GridEstimator(const services::Gis& gis, const services::Nws* nws);

  double ecost(const Component& c, grid::NodeId node) const override;
  double transferCost(grid::NodeId from, grid::NodeId to,
                      double bytes) const override;

 private:
  const services::Gis* gis_;
  const services::Nws* nws_;
};

}  // namespace grads::workflow
