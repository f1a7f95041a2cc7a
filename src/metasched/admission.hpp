#pragma once

#include <cstddef>
#include <vector>

#include "grid/grid.hpp"
#include "metasched/types.hpp"
#include "services/gis.hpp"
#include "services/nws.hpp"

namespace grads::metasched {

struct AdmissionOptions {
  /// Off = open admission (the unmitigated ablation): every submission is
  /// queued and nothing is ever shed.
  bool enabled = true;
  std::size_t maxQueuedPerTenant = 256;
  std::size_t maxQueuedTotal = 1024;
  /// Reject when the queued work, at current estimated capacity, already
  /// represents more than this many seconds of backlog.
  double maxBacklogSec = 3600.0;
  /// Retry-after hint bounds: clamp(kRetryAfterFactor * backlogSec, min,
  /// max) (admission.cpp).
  double retryAfterMinSec = 30.0;
  double retryAfterMaxSec = 1800.0;
};

struct AdmissionDecision {
  bool admit = true;
  double retryAfterSec = 0.0;  ///< meaningful when !admit
  const char* reason = "admit";
};

/// Backpressure valve in front of the tenant queues. Capacity estimates
/// come from the same GIS reachability + NWS forecast data the scheduler
/// uses, so admission reacts to dark nodes and load without new plumbing.
class AdmissionController {
 public:
  AdmissionController(const grid::Grid& grid, const services::Gis& gis,
                      const services::Nws* nws,
                      std::vector<grid::NodeId> slots, AdmissionOptions opts)
      : grid_(&grid), gis_(&gis), nws_(nws), slots_(std::move(slots)),
        opts_(opts) {}

  const AdmissionOptions& options() const { return opts_; }

  /// Aggregate effective rate of the reachable slot pool: NWS forecast
  /// where one exists, static node spec otherwise (the NWS degradation
  /// ladder's last rung).
  double capacityFlops() const;

  AdmissionDecision decide(int tier, std::size_t tenantDepth,
                           std::size_t totalDepth, double backlogSec,
                           BrownoutLevel level) const;

 private:
  const grid::Grid* grid_;
  const services::Gis* gis_;
  const services::Nws* nws_;
  std::vector<grid::NodeId> slots_;
  AdmissionOptions opts_;
};

}  // namespace grads::metasched
