#include "reschedule/failure.hpp"

#include "util/error.hpp"
#include "util/log.hpp"

namespace grads::reschedule {

void FailureInjector::failNow(grid::NodeId node, sim::Time detectionDelaySec,
                              sim::Time gisLagSec) {
  if (!gis_->isNodeReachable(node)) return;  // already down: idempotent
  GRADS_WARN("failure", engine_->now())
      << "node " << gis_->grid().node(node).name() << " fail-stopped";
  gis_->setNodeReachable(node, false);
  ++failures_;
  if (gisLagSec <= 0.0) {
    gis_->setNodeUp(node, false);
  } else {
    // Stale-GIS window: the directory keeps advertising the dead node until
    // its registration times out. Skip the update if the node already
    // recovered (or was re-failed — that injection owns the directory).
    engine_->scheduleDaemon(gisLagSec, [this, node] {
      if (!gis_->isNodeReachable(node)) gis_->setNodeUp(node, false);
    });
  }
  engine_->scheduleDaemon(detectionDelaySec, [this, node] {
    if (gis_->isNodeReachable(node)) return;  // recovered before detection
    for (Rss* rss : watched_) rss->markFailure(node);
  });
}

void FailureInjector::rearmFailureTail(grid::NodeId node, sim::Time detectAt,
                                       sim::Time gisDownAt) {
  if (gisDownAt > engine_->now()) {
    engine_->scheduleDaemonAt(gisDownAt, [this, node] {
      if (!gis_->isNodeReachable(node)) gis_->setNodeUp(node, false);
    });
  }
  if (detectAt > engine_->now()) {
    engine_->scheduleDaemonAt(detectAt, [this, node] {
      if (gis_->isNodeReachable(node)) return;  // recovered before detection
      for (Rss* rss : watched_) rss->markFailure(node);
    });
  }
}

void FailureInjector::recoverNow(grid::NodeId node) {
  // No-op unless the node actually failed: a node that is merely marked
  // down in the directory (reserved by a manager, or administratively
  // drained) is not ours to resurrect.
  if (gis_->isNodeReachable(node)) return;
  GRADS_INFO("failure", engine_->now())
      << "node " << gis_->grid().node(node).name() << " recovered";
  gis_->setNodeReachable(node, true);
  gis_->setNodeUp(node, true);
}

void FailureInjector::scheduleNodeFailure(grid::NodeId node, sim::Time failAt,
                                          sim::Time detectionDelaySec,
                                          sim::Time gisLagSec) {
  GRADS_REQUIRE(detectionDelaySec >= 0.0,
                "FailureInjector: negative detection delay");
  GRADS_REQUIRE(gisLagSec >= 0.0, "FailureInjector: negative GIS lag");
  engine_->scheduleDaemonAt(failAt, [this, node, detectionDelaySec,
                                     gisLagSec] {
    failNow(node, detectionDelaySec, gisLagSec);
  });
}

void FailureInjector::scheduleNodeRecovery(grid::NodeId node, sim::Time at) {
  engine_->scheduleDaemonAt(at, [this, node] { recoverNow(node); });
}

}  // namespace grads::reschedule
