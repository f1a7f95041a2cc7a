#include "metasched/admission.hpp"

#include <algorithm>

namespace grads::metasched {

namespace {
/// Retry-after hint: clamp(factor * backlogSec, min, max). Proportional
/// to the backlog so a deep queue pushes retries further out instead of
/// inviting a synchronized stampede the moment pressure dips.
constexpr double kRetryAfterFactor = 0.5;
/// Tiers >= this are admitted even at the kShed brownout rung (queue and
/// backlog bounds still apply — shedding never unbounds the queue).
constexpr int kShedProtectTier = 2;
}  // namespace

double AdmissionController::capacityFlops() const {
  double total = 0.0;
  for (const grid::NodeId n : slots_) {
    if (!gis_->isNodeReachable(n)) continue;
    double rate = grid_->node(n).spec().effectiveFlopsPerCpu();
    if (nws_ != nullptr) {
      const auto measured = nws_->tryEffectiveRate(n);
      if (measured && *measured > 0.0) rate = *measured;
    }
    total += rate;
  }
  return total;
}

AdmissionDecision AdmissionController::decide(int tier,
                                              std::size_t tenantDepth,
                                              std::size_t totalDepth,
                                              double backlogSec,
                                              BrownoutLevel level) const {
  if (!opts_.enabled) return {true, 0.0, "open"};
  const double hint =
      std::clamp(kRetryAfterFactor * backlogSec, opts_.retryAfterMinSec,
                 opts_.retryAfterMaxSec);
  if (level == BrownoutLevel::kShed && tier < kShedProtectTier) {
    return {false, hint, "brownout-shed"};
  }
  if (tenantDepth >= opts_.maxQueuedPerTenant) {
    return {false, hint, "tenant-queue-full"};
  }
  if (totalDepth >= opts_.maxQueuedTotal) {
    return {false, hint, "global-queue-full"};
  }
  if (backlogSec > opts_.maxBacklogSec) {
    return {false, hint, "backlog"};
  }
  return {true, 0.0, "admit"};
}

}  // namespace grads::metasched
