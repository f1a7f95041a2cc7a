#include "autopilot/contract.hpp"

#include <numeric>

#include "util/error.hpp"
#include "util/log.hpp"

namespace grads::autopilot {

namespace {
constexpr std::size_t kWindow = 5;  ///< ratios averaged for confirmation
/// Initial tolerance band on actual / predicted phase time.
constexpr double kUpperTolerance = 1.5;
constexpr double kLowerTolerance = 0.6;

static_assert(kWindow >= 1, "ContractMonitor: empty window");
static_assert(kUpperTolerance > 1.0,
              "ContractMonitor: upper tolerance must exceed 1");
static_assert(kLowerTolerance > 0.0 && kLowerTolerance < 1.0,
              "ContractMonitor: lower tolerance must be in (0,1)");
}  // namespace

PerformanceContract::PerformanceContract(std::string app, Predictor predictor)
    : app_(std::move(app)), predictor_(std::move(predictor)) {
  GRADS_REQUIRE(static_cast<bool>(predictor_),
                "PerformanceContract: empty predictor");
}

double PerformanceContract::predictedPhaseSeconds(std::size_t phase) const {
  const double p = predictor_(phase);
  GRADS_REQUIRE(p > 0.0, "PerformanceContract: non-positive prediction");
  return p;
}

void PerformanceContract::updateTerms(Predictor predictor) {
  GRADS_REQUIRE(static_cast<bool>(predictor),
                "PerformanceContract::updateTerms: empty predictor");
  predictor_ = std::move(predictor);
}

ContractMonitor::ContractMonitor(sim::Engine& engine,
                                 PerformanceContract contract)
    : engine_(&engine),
      contract_(std::move(contract)),
      upper_(kUpperTolerance),
      lower_(kLowerTolerance) {}

void ContractMonitor::attachTo(AutopilotManager& manager,
                               const std::string& channel) {
  manager.attach(channel,
                 [this](const Reading& r) { onPhaseTime(r.value); });
}

void ContractMonitor::restoreRuntimeState(MonitorBand band) {
  GRADS_REQUIRE(band.upper > 1.0 && band.lower > 0.0 && band.lower < 1.0,
                "ContractMonitor::restoreRuntimeState: bad tolerance band");
  upper_ = band.upper;
  lower_ = band.lower;
  phase_ = band.phase;
  violations_ = band.violations;
  lastRatio_ = band.lastRatio;
  ratios_ = std::move(band.ratios);
}

double ContractMonitor::averageRatio() const {
  if (ratios_.empty()) return lastRatio_;
  return std::accumulate(ratios_.begin(), ratios_.end(), 0.0) /
         static_cast<double>(ratios_.size());
}

void ContractMonitor::confirmAndRaise(double ratio) {
  const double avg = averageRatio();
  // Paper §4.1.1: "the contract monitor calculates the average of the
  // computed ratios. If the average is greater than the upper tolerance
  // limit, it contacts the rescheduler."
  const bool confirmed = avg > upper_;
  if (!confirmed) return;

  ++violations_;
  ViolationReport report{contract_.app(), phase_, ratio,
                         avg,             engine_->now(), upper_};
  GRADS_INFO("contract", engine_->now())
      << contract_.app() << ": violation at phase " << phase_
      << " ratio=" << ratio << " avg=" << avg;
  RescheduleOutcome outcome = RescheduleOutcome::kDeclined;
  if (request_) outcome = request_(report);
  if (viewer_ != nullptr) {
    viewer_->recordViolation(
        contract_.app(),
        ContractViewer::ViolationRecord{
            engine_->now(), phase_, avg,
            outcome == RescheduleOutcome::kMigrated});
  }
  if (outcome == RescheduleOutcome::kDeclined) {
    // "If the rescheduler chooses not to migrate the application, the
    // contract monitor adjusts its tolerance limits to new values." A
    // governor-suppressed violation is different: the limits stay put so
    // repeated evidence keeps reaching the governor's quorum window.
    upper_ = std::max(upper_ * 1.1, avg * 1.1);
  }
}

void ContractMonitor::onPhaseTime(double actualSeconds) {
  if (!enabled_) return;
  GRADS_REQUIRE(actualSeconds >= 0.0, "ContractMonitor: negative phase time");
  const double predicted = contract_.predictedPhaseSeconds(phase_);
  const double ratio = actualSeconds / predicted;
  lastRatio_ = ratio;
  if (viewer_ != nullptr) {
    viewer_->recordPhase(contract_.app(),
                         ContractViewer::PhaseRecord{engine_->now(), phase_,
                                                     predicted, actualSeconds,
                                                     ratio, upper_, lower_});
  }
  ratios_.push_back(ratio);
  if (ratios_.size() > kWindow) ratios_.pop_front();
  ++phase_;

  if (ratio > upper_) {
    confirmAndRaise(ratio);
  } else if (ratio < lower_) {
    // "when a given ratio is less than the lower tolerance limit, the
    // contract monitor calculates the average of the ratios and lowers the
    // tolerance limits, if necessary."
    const double avg = averageRatio();
    if (avg < lower_) {
      lower_ = std::max(0.05, avg * 0.9);
      upper_ = std::max(1.0 + (upper_ - 1.0) * 0.9, 1.05);
    }
  }
}

}  // namespace grads::autopilot
