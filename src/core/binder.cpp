#include "core/binder.hpp"

#include <algorithm>
#include <set>

#include "sim/sync.hpp"
#include "util/log.hpp"

namespace grads::core {

namespace {
constexpr double kGisQuerySec = 0.4;  ///< one GIS lookup round-trip
constexpr double kInstrumentSec = 0.8;  ///< Autopilot sensor insertion per node
constexpr double kConfigureSec = 1.0;  ///< per-node configure step
constexpr double kCompileSecIa32 = 4.0;  ///< compile the IR on an IA-32 node
constexpr double kCompileSecIa64 = 6.5;  ///< IA-64 compiles are slower
}  // namespace

Binder::Binder(sim::Engine& engine, const services::Gis& gis)
    : engine_(&engine), gis_(&gis) {}

sim::Task Binder::localBind(grid::NodeId node, std::size_t libraries) {
  // GIS lookups for each application library, then instrument + configure +
  // target-side compile.
  co_await sim::sleepFor(*engine_,
                         kGisQuerySec * static_cast<double>(libraries));
  co_await sim::sleepFor(*engine_, kInstrumentSec);
  co_await sim::sleepFor(*engine_, kConfigureSec);
  const auto arch = gis_->grid().node(node).spec().arch;
  co_await sim::sleepFor(*engine_, arch == grid::Arch::kIA64 ? kCompileSecIa64
                                                             : kCompileSecIa32);
}

sim::Task Binder::bind(const Cop& cop, std::vector<grid::NodeId> mapping,
                       BindReport* report) {
  GRADS_REQUIRE(!mapping.empty(), "Binder::bind: empty mapping");
  const double start = engine_->now();

  // Global binder: locate the local binder code on every scheduled node.
  std::set<grid::NodeId> distinct(mapping.begin(), mapping.end());
  co_await sim::sleepFor(*engine_, kGisQuerySec);  // locate binder itself
  for (const auto node : distinct) {
    // A node the directory still lists as up may in truth be unreachable
    // (GIS staleness window): the launch attempt fails here, and the caller
    // retries on a fresh mapping instead of hanging on a dead node.
    if (!gis_->isNodeReachable(node)) {
      throw BindError("node " + gis_->grid().node(node).name() +
                      " unreachable (stale GIS entry)");
    }
    if (!gis_->hasSoftware(node, services::software::kLocalBinder)) {
      throw BindError("no local binder installed on " +
                      gis_->grid().node(node).name());
    }
    for (const auto& lib : cop.requiredSoftware) {
      if (!gis_->hasSoftware(node, lib)) {
        throw BindError("library '" + lib + "' missing on " +
                        gis_->grid().node(node).name());
      }
    }
  }

  // Local binders run in parallel on each distinct node.
  sim::JoinSet js(*engine_);
  for (const auto node : distinct) {
    js.spawn(localBind(node, cop.requiredSoftware.size() + 1));
  }
  co_await js.join();

  if (report != nullptr) {
    report->seconds = engine_->now() - start;
    report->nodesBound = static_cast<int>(distinct.size());
  }
}

}  // namespace grads::core
