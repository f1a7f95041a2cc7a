#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <string>

#include "autopilot/viewer.hpp"
#include "autopilot/sensor.hpp"

namespace grads::autopilot {

/// A performance contract: the agreement between application demands and
/// resource capabilities [23]. For iterative applications it predicts the
/// duration of each execution phase.
class PerformanceContract {
 public:
  using Predictor = std::function<double(std::size_t phaseIndex)>;

  PerformanceContract(std::string app, Predictor predictor);

  const std::string& app() const { return app_; }
  double predictedPhaseSeconds(std::size_t phase) const;
  /// Replaces the prediction function — "the rescheduler may contact the
  /// contract monitor to update the terms of the contract" (paper §4).
  void updateTerms(Predictor predictor);

 private:
  std::string app_;
  Predictor predictor_;
};

/// Report passed to the rescheduler on a contract violation.
struct ViolationReport {
  std::string app;
  std::size_t phase = 0;
  double ratio = 0.0;     ///< actual / predicted for the triggering phase
  double avgRatio = 0.0;  ///< windowed average that confirmed the violation
  double time = 0.0;      ///< virtual time of detection
  /// Upper tolerance in force when the violation was confirmed — the
  /// governor's hysteresis band is anchored on it.
  double upperTolerance = 0.0;
};

/// Outcome the rescheduler reports back; determines tolerance adjustment.
/// kDeclined widens the tolerance limits (paper §4.1.1); kSuppressed — the
/// violation governor held the request back — must NOT: the governor is
/// waiting for quorum/cooldown, and widening would erase the very signal it
/// is waiting to confirm.
enum class RescheduleOutcome { kMigrated, kDeclined, kSuppressed };

/// A contract monitor's adaptive runtime state: tolerance band, phase
/// cursor, violation tally, last ratio, and the ratio window backing the
/// confirmation average. The application manager snapshots it per app, so
/// a restored monitor confirms violations from the same evidence the
/// pre-crash one held.
struct MonitorBand {
  double upper = 0.0;
  double lower = 0.0;
  std::size_t phase = 0;
  std::size_t violations = 0;
  double lastRatio = 1.0;
  std::deque<double> ratios;

  template <class Self, class Ar>
  static void snapshotIo(Self& s, Ar& a) {
    a(s.upper, s.lower, s.phase, s.violations, s.lastRatio, s.ratios);
  }
};

/// The GrADS contract monitor (paper §4.1.1):
///  - takes periodic phase-time data from Autopilot sensors,
///  - computes ratio = actual / predicted,
///  - on ratio > upper tolerance, checks the *average* ratio; only a high
///    average triggers the rescheduler (transient noise is forgiven),
///  - if the rescheduler declines to migrate, widens its tolerance limits,
///  - on ratio < lower tolerance, tightens the limits.
class ContractMonitor {
 public:
  using RescheduleRequest =
      std::function<RescheduleOutcome(const ViolationReport&)>;

  ContractMonitor(sim::Engine& engine, PerformanceContract contract);

  /// Wires the monitor to a sensor channel on the Autopilot manager.
  void attachTo(AutopilotManager& manager, const std::string& channel);

  /// Feeds one measured phase duration (called by the sensor listener).
  void onPhaseTime(double actualSeconds);

  void setRescheduleRequest(RescheduleRequest fn) { request_ = std::move(fn); }

  /// Streams contract-validation activity to a Contract-Viewer recorder.
  void setViewer(ContractViewer* viewer) { viewer_ = viewer; }

  PerformanceContract& contract() { return contract_; }
  double upperTolerance() const { return upper_; }
  double lowerTolerance() const { return lower_; }
  std::size_t phasesSeen() const { return phase_; }
  std::size_t violationsRaised() const { return violations_; }
  MonitorBand runtimeState() const {
    return {upper_, lower_, phase_, violations_, lastRatio_, ratios_};
  }

  /// Pause/resume monitoring (during migrations the app reports nothing).
  void setEnabled(bool enabled) { enabled_ = enabled; }
  /// Resets phase numbering after a restart on new resources.
  void resetPhase(std::size_t phase) { phase_ = phase; ratios_.clear(); }

  /// Restore-path adoption after a control-plane restart: a freshly
  /// constructed monitor for a resumed application takes over the pre-crash
  /// runtime state decoded from the snapshot (the application manager owns
  /// the encoding — see core/app_manager).
  void restoreRuntimeState(MonitorBand band);

 private:
  double averageRatio() const;
  void confirmAndRaise(double ratio);

  sim::Engine* engine_;
  PerformanceContract contract_;
  double upper_;
  double lower_;
  std::deque<double> ratios_;
  std::size_t phase_ = 0;
  std::size_t violations_ = 0;
  double lastRatio_ = 1.0;
  bool enabled_ = true;
  RescheduleRequest request_;
  ContractViewer* viewer_ = nullptr;
};

}  // namespace grads::autopilot
