#pragma once

#include "core/cop.hpp"
#include "grid/grid.hpp"

namespace grads::apps {

/// ScaLAPACK-style block-cyclic Householder QR factorization driver
/// (paper §4.1.2: "a ScaLAPACK QR factorization application ... instrumented
/// with calls to the SRS library that checkpointed application data
/// including the matrix A and the right-hand side vector B").
struct QrConfig {
  std::size_t n = 8000;        ///< matrix dimension
  /// Periodic checkpoint interval in panels (0 = only checkpoint when the
  /// rescheduler stops the app). Enables fail-stop fault tolerance: a
  /// failed incarnation restarts from the last periodic checkpoint.
  std::size_t checkpointEveryPanels = 0;
};

/// Number of panel iterations (application phases).
std::size_t qrPanelCount(const QrConfig& cfg);
/// Flops of panel iteration k (sums over k to ≈ 4/3·N³).
double qrPanelFlops(const QrConfig& cfg, std::size_t k);
/// Bytes of the panel broadcast at iteration k.
double qrPanelBytes(const QrConfig& cfg, std::size_t k);
/// Checkpointed state: the distributed matrix A plus the rhs vector B.
double qrCheckpointBytes(const QrConfig& cfg);

/// Executable performance model of the QR application on a resource set:
/// synchronous panel iterations gated by the slowest rank, plus the panel
/// broadcast along a binomial tree.
class QrPerfModel final : public core::AppPerfModel {
 public:
  QrPerfModel(const grid::Grid& grid, QrConfig cfg);

  std::size_t totalPhases() const override;
  double phaseSeconds(const std::vector<grid::NodeId>& mapping,
                      std::size_t phase, const services::Nws* nws,
                      core::RateView view = core::RateView::kIncumbent) const override;

 private:
  const grid::Grid* grid_;
  QrConfig cfg_;
};

/// Builds the complete configurable object program: application code,
/// mapper, performance model, required software and checkpoint payload.
core::Cop makeQrCop(const grid::Grid& grid, QrConfig cfg);

}  // namespace grads::apps
