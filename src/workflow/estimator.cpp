#include "workflow/estimator.hpp"

namespace grads::workflow {

GridEstimator::GridEstimator(const services::Gis& gis,
                             const services::Nws* nws)
    : gis_(&gis), nws_(nws) {}

double GridEstimator::ecost(const Component& c, grid::NodeId node) const {
  const auto& g = gis_->grid();
  if (!gis_->isNodeUp(node)) return kInfeasible;
  const auto& spec = g.node(node).spec();
  // Minimum-requirements screen: "Resources that do not qualify under these
  // criteria are given a rank value of infinity."
  if (c.requiredArch && spec.arch != *c.requiredArch) return kInfeasible;
  if (c.minMemBytes > spec.memBytes) return kInfeasible;
  for (const auto& pkg : c.requiredSoftware) {
    if (!gis_->hasSoftware(node, pkg)) return kInfeasible;
  }

  double seconds = c.flops / spec.effectiveFlopsPerCpu();
  if (nws_ != nullptr) {
    // Scale by forecast CPU availability (contended nodes look slower).
    // Degradation ladder: live forecast -> last-known value (served by the
    // NWS once its series go stale) -> static specs (no measurement at all,
    // e.g. the sensors have been dark since the run started).
    const auto avail = nws_->tryCpuAvailability(node);
    if (avail) {
      if (*avail <= 0.0) return kInfeasible;
      seconds /= *avail;
    }
  }
  return seconds;
}

double GridEstimator::transferCost(grid::NodeId from, grid::NodeId to,
                                   double bytes) const {
  if (from == to || bytes <= 0.0) return 0.0;
  if (nws_ != nullptr) return nws_->transferTimeDegraded(from, to, bytes);
  return gis_->grid().transferEstimate(from, to, bytes);
}

}  // namespace grads::workflow
