#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "autopilot/contract.hpp"
#include "core/cop.hpp"
#include "reschedule/journal.hpp"
#include "reschedule/srs.hpp"
#include "services/gis.hpp"
#include "services/nws.hpp"

namespace grads::reschedule {

namespace whatif {
class ForkDriver;
}

/// Operating modes (paper §4.1.2): default lets the cost model decide;
/// forced modes pin the choice so both scenarios can be measured ("the
/// rescheduler was operated in two modes — default and forced").
enum class ReschedulerMode { kDefault, kForcedMigrate, kForcedStay };

struct ReschedulerOptions {
  ReschedulerMode mode = ReschedulerMode::kDefault;
  /// "the rescheduler assumed an experimentally-determined worst-case
  /// rescheduling cost of 900 seconds" — the pessimistic constant that
  /// produces the wrong decision at N=8000 in Figure 3.
  double worstCaseMigrationSec = 900.0;
  /// Enables opportunistic rescheduling on app-completion events (§4.1.1).
  bool opportunistic = false;
};

/// Outcome of one cost/benefit evaluation (kept for the benches).
struct MigrationDecision {
  bool migrate = false;
  std::vector<grid::NodeId> target;
  double remainingOnCurrentSec = 0.0;
  double remainingOnTargetSec = 0.0;   ///< excludes migration cost
  double assumedMigrationCostSec = 0.0;
  double time = 0.0;
  std::string reason;
};

/// The stop/migrate/restart rescheduler (paper §4.1): evaluates whether
/// migration is profitable using the COP's performance model, NWS resource
/// information, and a (pessimistic) migration-cost estimate; if profitable,
/// it signals the RSS daemon so the application checkpoints and exits at
/// its next SRS poll point.
class StopRestartRescheduler {
 public:
  StopRestartRescheduler(const services::Gis& gis, const services::Nws* nws,
                         ReschedulerOptions options);

  /// Pure evaluation (no side effects).
  MigrationDecision evaluate(const core::Cop& cop,
                             const std::vector<grid::NodeId>& current,
                             std::size_t phase) const;

  /// Migration-on-request entry point, called on a contract violation.
  /// If the decision is to migrate, requests the stop through RSS.
  autopilot::RescheduleOutcome onViolation(
      const core::Cop& cop, Rss& rss,
      const std::vector<grid::NodeId>& current, std::size_t phase);

  /// Bookkeeping for opportunistic rescheduling.
  struct RunningApp {
    const core::Cop* cop = nullptr;
    Rss* rss = nullptr;
    std::function<std::vector<grid::NodeId>()> mapping;
    std::function<std::size_t()> phase;
  };
  void registerRunning(const std::string& name, RunningApp app);
  void unregisterRunning(const std::string& name);
  /// "the rescheduler periodically checks for a GrADS application that has
  /// recently completed. If it finds one, [it] determines if another
  /// application can obtain performance benefits if it is migrated to the
  /// newly freed resources."
  void onAppCompleted();

  const std::vector<MigrationDecision>& decisions() const {
    return decisions_;
  }
  ReschedulerOptions& options() { return opts_; }

  /// When set, every migrate decision opens a journaled transaction
  /// (prepare phase) before the stop is requested; the application manager
  /// drives it through commit or rollback.
  void setJournal(ActionJournal* journal) { journal_ = journal; }
  ActionJournal* journal() const { return journal_; }

  /// When set, every governed violation is routed through the what-if fork
  /// driver: the model decision becomes one candidate among several, each
  /// validated in sandboxed futures before anything is committed. The fork
  /// verdict commits through the journal as a *pinned* action; a driver
  /// fallback (budget, no runner) degrades to the model-only path below.
  void setForkDriver(whatif::ForkDriver* driver) { forkDriver_ = driver; }
  whatif::ForkDriver* forkDriver() const { return forkDriver_; }

 private:
  /// Second-best migrate destination, distinct from `primary`: re-runs the
  /// COP's mapper over the available pool minus primary's nodes. Empty when
  /// no distinct alternative exists — the fork driver then races only
  /// model-target vs suppress.
  std::vector<grid::NodeId> alternateTarget(
      const core::Cop& cop, const std::vector<grid::NodeId>& current,
      const std::vector<grid::NodeId>& primary) const;

  const services::Gis* gis_;
  const services::Nws* nws_;
  ActionJournal* journal_ = nullptr;
  whatif::ForkDriver* forkDriver_ = nullptr;
  ReschedulerOptions opts_;
  std::map<std::string, RunningApp> running_;
  std::vector<MigrationDecision> decisions_;
};

}  // namespace grads::reschedule
