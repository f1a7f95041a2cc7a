#include "reschedule/rescheduler.hpp"

#include <algorithm>

#include "reschedule/whatif/fork_driver.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace grads::reschedule {

namespace {
/// Required predicted benefit margin before migrating.
constexpr double kMinBenefitSec = 0.0;
}  // namespace

StopRestartRescheduler::StopRestartRescheduler(const services::Gis& gis,
                                               const services::Nws* nws,
                                               ReschedulerOptions options)
    : gis_(&gis), nws_(nws), opts_(options) {
  GRADS_REQUIRE(opts_.worstCaseMigrationSec >= 0.0,
                "Rescheduler: negative migration cost");
}

MigrationDecision StopRestartRescheduler::evaluate(
    const core::Cop& cop, const std::vector<grid::NodeId>& current,
    std::size_t phase) const {
  GRADS_REQUIRE(cop.perfModel && cop.mapper,
                "Rescheduler: COP lacks model or mapper");
  MigrationDecision d;
  d.time = gis_->grid().engine().now();
  d.assumedMigrationCostSec = opts_.worstCaseMigrationSec;

  // Updated Grid resource information from NWS, then the COP's mapper picks
  // the best candidate resource set.
  d.target = cop.mapper->chooseMapping(gis_->availableNodes(), nws_);
  d.remainingOnCurrentSec = cop.perfModel->remainingSeconds(
      current, phase, nws_, core::RateView::kIncumbent);
  d.remainingOnTargetSec = cop.perfModel->remainingSeconds(
      d.target, phase, nws_, core::RateView::kNewProcess);

  const bool sameResources = d.target == current;
  const double benefit = d.remainingOnCurrentSec -
                         (d.remainingOnTargetSec + d.assumedMigrationCostSec);
  switch (opts_.mode) {
    case ReschedulerMode::kDefault:
      d.migrate = !sameResources && benefit > kMinBenefitSec;
      d.reason = d.migrate
                     ? "predicted benefit " + std::to_string(benefit) + " s"
                     : (sameResources ? "best resources are current ones"
                                      : "predicted benefit " +
                                            std::to_string(benefit) +
                                            " s too small");
      break;
    case ReschedulerMode::kForcedMigrate:
      d.migrate = !sameResources;
      d.reason = "forced migrate";
      break;
    case ReschedulerMode::kForcedStay:
      d.migrate = false;
      d.reason = "forced stay";
      break;
  }
  return d;
}

autopilot::RescheduleOutcome StopRestartRescheduler::onViolation(
    const core::Cop& cop, Rss& rss, const std::vector<grid::NodeId>& current,
    std::size_t phase) {
  if (rss.stopRequested()) {
    // A stop is already in flight (and, with a journal, an open action
    // record exists); re-raising would double-open the transaction.
    return autopilot::RescheduleOutcome::kMigrated;
  }
  MigrationDecision d = evaluate(cop, current, phase);
  const double now = gis_->grid().engine().now();
  GRADS_INFO("rescheduler", now)
      << cop.name << ": violation at phase " << phase << " -> "
      << (d.migrate ? "migrate" : "stay") << " (" << d.reason
      << "; cur=" << d.remainingOnCurrentSec
      << "s new=" << d.remainingOnTargetSec << "s +"
      << d.assumedMigrationCostSec << "s)";
  decisions_.push_back(d);
  if (forkDriver_ != nullptr) {
    // Realized-outcome feedback first: this confirmed violation settles any
    // pending prediction for the app (a promised-clean horizon that still
    // violated is a divergence and feeds the mistrust ledger).
    forkDriver_->noteViolation(cop.name, now);
    whatif::ForkDriver::DecisionInput in;
    in.app = cop.name;
    in.current = current;
    in.phase = phase;
    in.modelWantedMigrate = d.migrate;
    in.modelTarget = d.target;
    in.alternateTarget = alternateTarget(cop, current, d.target);
    const whatif::ForkDriver::Decision verdict = forkDriver_->decide(in);
    if (verdict.fromForks) {
      if (verdict.kind == whatif::CandidateKind::kSuppress ||
          verdict.target == current) {
        // Validated stay: the fork ensemble showed staying put dominates, so
        // decline (which widens tolerances) exactly as a model "stay" would.
        return autopilot::RescheduleOutcome::kDeclined;
      }
      if (journal_ != nullptr) {
        journal_->open(cop.name, ActionKind::kMigrate, current, verdict.target,
                       /*pinned=*/true, verdict.summary);
      }
      rss.requestStop();
      return autopilot::RescheduleOutcome::kMigrated;
    }
    // Driver fell back (budget / not armed): the model decision below
    // commits unvalidated, exactly as without a driver.
  }
  if (!d.migrate) return autopilot::RescheduleOutcome::kDeclined;
  if (journal_ != nullptr) {
    // Prepare phase: journal the intent (with the rollback mapping) before
    // any state changes. The stop/checkpoint/restart sequence that follows
    // is owned by the application manager, which resolves this record.
    journal_->open(cop.name, ActionKind::kMigrate, current, d.target);
  }
  rss.requestStop();
  return autopilot::RescheduleOutcome::kMigrated;
}

std::vector<grid::NodeId> StopRestartRescheduler::alternateTarget(
    const core::Cop& cop, const std::vector<grid::NodeId>& current,
    const std::vector<grid::NodeId>& primary) const {
  const std::vector<grid::NodeId>& exclude =
      primary.empty() ? current : primary;
  std::vector<grid::NodeId> pool;
  for (const grid::NodeId n : gis_->availableNodes()) {
    if (std::find(exclude.begin(), exclude.end(), n) == exclude.end()) {
      pool.push_back(n);
    }
  }
  if (pool.empty()) return {};
  return cop.mapper->chooseMapping(pool, nws_);
}

void StopRestartRescheduler::registerRunning(const std::string& name,
                                             RunningApp app) {
  GRADS_REQUIRE(app.cop != nullptr && app.rss != nullptr && app.mapping &&
                    app.phase,
                "Rescheduler::registerRunning: incomplete handle");
  running_[name] = std::move(app);
}

void StopRestartRescheduler::unregisterRunning(const std::string& name) {
  running_.erase(name);
}

void StopRestartRescheduler::onAppCompleted() {
  if (!opts_.opportunistic) return;
  for (auto& [name, app] : running_) {
    if (app.rss->stopRequested()) continue;  // already migrating
    if (journal_ != nullptr && journal_->openAction(name) != nullptr) {
      continue;  // an action is still resolving; don't stack another
    }
    const std::vector<grid::NodeId> current = app.mapping();
    MigrationDecision d = evaluate(*app.cop, current, app.phase());
    decisions_.push_back(d);
    if (d.migrate) {
      GRADS_INFO("rescheduler", gis_->grid().engine().now())
          << name << ": opportunistic migration to freed resources ("
          << d.reason << ")";
      if (journal_ != nullptr) {
        journal_->open(name, ActionKind::kMigrate, current, d.target);
      }
      app.rss->requestStop();
    }
  }
}

}  // namespace grads::reschedule
