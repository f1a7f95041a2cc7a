#include "apps/qr.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "autopilot/sensor.hpp"
#include "reschedule/srs.hpp"
#include "services/gis.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace grads::apps {

namespace {
constexpr double kBytesPerElement = 8.0;
constexpr std::size_t kPanel = 64;  ///< block size nb
}  // namespace

std::size_t qrPanelCount(const QrConfig& cfg) {
  GRADS_REQUIRE(cfg.n > 0, "QrConfig: bad dimensions");
  return (cfg.n + kPanel - 1) / kPanel;
}

double qrPanelFlops(const QrConfig& cfg, std::size_t k) {
  // Right-looking update at step k touches the trailing (N − k·nb) square:
  // ~4·nb·rem² flops, which telescopes to ≈ 4/3·N³ across all panels.
  const double rem =
      static_cast<double>(cfg.n) - static_cast<double>(k * kPanel);
  if (rem <= 0.0) return 0.0;
  return 4.0 * static_cast<double>(kPanel) * rem * rem;
}

double qrPanelBytes(const QrConfig& cfg, std::size_t k) {
  const double rem =
      static_cast<double>(cfg.n) - static_cast<double>(k * kPanel);
  if (rem <= 0.0) return 0.0;
  return rem * static_cast<double>(kPanel) * kBytesPerElement;
}

double qrCheckpointBytes(const QrConfig& cfg) {
  const double n = static_cast<double>(cfg.n);
  return n * n * kBytesPerElement + n * kBytesPerElement;
}

QrPerfModel::QrPerfModel(const grid::Grid& grid, QrConfig cfg)
    : grid_(&grid), cfg_(cfg) {}

std::size_t QrPerfModel::totalPhases() const { return qrPanelCount(cfg_); }

double QrPerfModel::phaseSeconds(const std::vector<grid::NodeId>& mapping,
                                 std::size_t phase, const services::Nws* nws,
                                 core::RateView view) const {
  GRADS_REQUIRE(!mapping.empty(), "QrPerfModel: empty mapping");
  const double p = static_cast<double>(mapping.size());

  // Synchronous iteration: the slowest rank gates everyone.
  double minRate = std::numeric_limits<double>::infinity();
  for (const auto node : mapping) {
    double rate = grid_->node(node).spec().effectiveFlopsPerCpu();
    if (nws != nullptr) {
      // Degrade to the static spec rate when the sensors are dark and no
      // measurement exists (or the node measured fully saturated).
      const auto measured = view == core::RateView::kIncumbent
                                ? nws->tryIncumbentRate(node)
                                : nws->tryEffectiveRate(node);
      if (measured && *measured > 0.0) rate = *measured;
    }
    minRate = std::min(minRate, rate);
  }
  GRADS_REQUIRE(minRate > 0.0, "QrPerfModel: zero node rate");
  const double compute = qrPanelFlops(cfg_, phase) / p / minRate;

  // Panel broadcast: ~log2(#distinct nodes) serial transfers along the
  // binomial tree's critical path (same-node hops are free).
  std::set<grid::NodeId> distinct(mapping.begin(), mapping.end());
  double comm = 0.0;
  if (distinct.size() > 1) {
    const double hops = std::ceil(std::log2(static_cast<double>(distinct.size())));
    auto it = distinct.begin();
    const grid::NodeId a = *it++;
    const grid::NodeId b = *it;
    comm = hops * grid_->transferEstimate(a, b, qrPanelBytes(cfg_, phase));
  }
  return compute + comm;
}

namespace {

sim::Task qrRank(core::LaunchContext& ctx, int rank, QrConfig cfg) {
  vmpi::World& w = *ctx.world;
  const int p = w.size();

  if (ctx.restored && ctx.srs != nullptr) {
    // N-to-M redistribution of the checkpointed matrix (all ranks pull
    // their slices concurrently). A rank whose slices stay unreadable must
    // not throw past the coming barrier (the peers would wait forever):
    // the failure is made collective via an allreduce, and all ranks exit
    // together so the manager can fall back to an older generation.
    double myFail = 0.0;
    double fail = 0.0;
    try {
      co_await ctx.srs->restoreCheckpoint(rank);
    } catch (const reschedule::CheckpointUnavailableError& e) {
      GRADS_WARN("qr", w.engine().now())
          << ctx.appName << " rank " << rank << ": " << e.what();
      myFail = 1.0;
    }
    co_await w.allreduce(rank, 64.0, myFail, &fail);
    if (fail > 0.5) {
      ctx.stopped = true;
      ctx.restoreFailed = true;
      co_return;
    }
  }
  co_await w.barrier(rank);

  const std::size_t panels = qrPanelCount(cfg);
  for (std::size_t k = ctx.startPhase; k < panels; ++k) {
    const double t0 = w.engine().now();

    // Panel factorization lives on the owner column; everyone receives the
    // reflectors, then updates its share of the trailing matrix.
    const int owner = static_cast<int>(k) % p;
    co_await w.bcast(rank, owner, qrPanelBytes(cfg, k));
    co_await w.compute(rank, qrPanelFlops(cfg, k) / static_cast<double>(p));

    // Iteration-closing sync doubles as the collective stop/failure
    // decision: rank 0 polls the RSS daemon and the verdict rides on the
    // allreduce, so all ranks act at the same panel (no torn checkpoints).
    double flag = 0.0;
    double myFlag = 0.0;
    if (rank == 0 && ctx.srs != nullptr) {
      if (ctx.srs->failureSignaled()) {
        myFlag = 2.0;
      } else if (ctx.srs->stopRequested()) {
        myFlag = 1.0;
      }
    }
    co_await w.allreduce(rank, 64.0, myFlag, &flag);

    if (rank == 0 && ctx.autopilot != nullptr) {
      ctx.autopilot->report(autopilot::phaseTimeChannel(ctx.appName),
                            w.engine().now() - t0);
    }

    if (flag > 1.5) {
      // Fail-stop: a peer's node died — abandon the incarnation *without*
      // checkpointing (the dead node's data is unrecoverable); the manager
      // restarts from the last periodic checkpoint.
      ctx.stopped = true;
      ctx.completedPhases = k + 1;
      co_return;
    }
    if (flag > 0.5) {
      GRADS_ASSERT(ctx.srs != nullptr, "qr: stop without SRS");
      co_await ctx.srs->writeCheckpoint(rank);
      if (rank == 0) ctx.srs->storeIteration(k + 1);
      ctx.stopped = true;
      ctx.completedPhases = k + 1;
      co_return;
    }
    if (ctx.srs != nullptr && cfg.checkpointEveryPanels > 0 &&
        (k + 1) % cfg.checkpointEveryPanels == 0 && k + 1 < panels) {
      co_await ctx.srs->writeCheckpoint(rank);
      if (rank == 0) ctx.srs->storeIteration(k + 1);
      co_await w.barrier(rank);  // the checkpoint must be globally complete
    }
    ctx.completedPhases = k + 1;
  }
}

}  // namespace

core::Cop makeQrCop(const grid::Grid& grid, QrConfig cfg) {
  core::Cop cop;
  cop.name = "scalapack-qr-n" + std::to_string(cfg.n);
  auto model = std::make_shared<QrPerfModel>(grid, cfg);
  cop.perfModel = model;
  cop.mapper = std::make_shared<core::BestClusterMapper>(grid, *model);
  cop.code = [cfg](core::LaunchContext& ctx, int rank) {
    return qrRank(ctx, rank, cfg);
  };
  cop.requiredSoftware = {services::software::kScalapack,
                          services::software::kSrsLibrary,
                          services::software::kAutopilotSensors};
  const double n = static_cast<double>(cfg.n);
  cop.checkpointArrays = {
      {"A", n * n * kBytesPerElement},
      {"B", n * kBytesPerElement},
  };
  return cop;
}

}  // namespace grads::apps
