#include "reschedule/governor.hpp"

#include "util/error.hpp"
#include "util/log.hpp"

namespace grads::reschedule {

const char* governorVerdictName(GovernorVerdict verdict) {
  switch (verdict) {
    case GovernorVerdict::kAdmit: return "admit";
    case GovernorVerdict::kQuorumPending: return "quorum-pending";
    case GovernorVerdict::kInsideHysteresis: return "inside-hysteresis";
    case GovernorVerdict::kCoolingDown: return "cooling-down";
    case GovernorVerdict::kConcurrencyLimited: return "concurrency-limited";
  }
  return "?";
}

ViolationGovernor::ViolationGovernor(sim::Engine& engine,
                                     ActionJournal& journal,
                                     GovernorOptions options)
    : engine_(&engine), journal_(&journal), opts_(options) {
  GRADS_REQUIRE(opts_.quorumK >= 1 && opts_.quorumN >= opts_.quorumK,
                "ViolationGovernor: need 1 <= k <= n");
  GRADS_REQUIRE(opts_.hysteresisBand >= 0.0,
                "ViolationGovernor: negative hysteresis band");
  GRADS_REQUIRE(opts_.cooldownSec >= 0.0,
                "ViolationGovernor: negative cooldown");
  GRADS_REQUIRE(opts_.maxConcurrentActions >= 1,
                "ViolationGovernor: need at least one concurrent action");
}

void ViolationGovernor::count(Stats& s, GovernorVerdict verdict) const {
  switch (verdict) {
    case GovernorVerdict::kAdmit: ++s.admitted; break;
    case GovernorVerdict::kQuorumPending: ++s.quorumPending; break;
    case GovernorVerdict::kInsideHysteresis: ++s.insideHysteresis; break;
    case GovernorVerdict::kCoolingDown: ++s.coolingDown; break;
    case GovernorVerdict::kConcurrencyLimited: ++s.concurrencyLimited; break;
  }
}

GovernorVerdict ViolationGovernor::admit(
    const autopilot::ViolationReport& report) {
  // Every violating phase feeds the quorum window, even when the verdict
  // below suppresses for another reason: quorum counts *evidence*, and the
  // evidence is real regardless of cooldown or concurrency state.
  auto& phases = violatingPhases_[report.app];
  if (!phases.empty() && phases.back() == report.phase) {
    // One report per phase: a re-raise at the same phase is not new
    // evidence.
  } else {
    phases.push_back(report.phase);
  }
  while (!phases.empty() &&
         phases.front() + static_cast<std::size_t>(opts_.quorumN) <=
             report.phase + 1) {
    phases.pop_front();
  }

  GovernorVerdict verdict = GovernorVerdict::kAdmit;
  const double cooldownAnchor = journal_->lastResolvedAt(report.app);
  const double extraCooldown =
      cooldownExtra_ ? cooldownExtra_(report.app) : 0.0;
  bool mistrustHold = false;
  if (static_cast<int>(phases.size()) < opts_.quorumK) {
    verdict = GovernorVerdict::kQuorumPending;
  } else if (report.upperTolerance > 0.0 &&
             report.avgRatio <
                 report.upperTolerance * (1.0 + opts_.hysteresisBand)) {
    verdict = GovernorVerdict::kInsideHysteresis;
  } else if (cooldownAnchor >= 0.0 &&
             engine_->now() - cooldownAnchor <
                 opts_.cooldownSec + extraCooldown) {
    verdict = GovernorVerdict::kCoolingDown;
    mistrustHold = engine_->now() - cooldownAnchor >= opts_.cooldownSec;
  } else if (journal_->inFlight() >= opts_.maxConcurrentActions) {
    verdict = GovernorVerdict::kConcurrencyLimited;
  }

  count(total_, verdict);
  count(perApp_[report.app], verdict);
  if (mistrustHold) {
    ++total_.mistrustHolds;
    ++perApp_[report.app].mistrustHolds;
  }
  if (verdict == GovernorVerdict::kAdmit) {
    GRADS_INFO("governor", engine_->now())
        << report.app << ": violation at phase " << report.phase
        << " admitted (avg ratio " << report.avgRatio << ", "
        << phases.size() << "/" << opts_.quorumN << " violating phases)";
  } else {
    GRADS_INFO("governor", engine_->now())
        << report.app << ": violation at phase " << report.phase
        << " suppressed: " << governorVerdictName(verdict) << " (avg ratio "
        << report.avgRatio << ")";
  }
  return verdict;
}

void ViolationGovernor::resetApp(const std::string& app) {
  violatingPhases_.erase(app);
}

ViolationGovernor::Stats ViolationGovernor::statsFor(
    const std::string& app) const {
  const auto it = perApp_.find(app);
  return it == perApp_.end() ? Stats{} : it->second;
}

}  // namespace grads::reschedule
