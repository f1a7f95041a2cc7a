#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "autopilot/contract.hpp"
#include "core/binder.hpp"
#include "core/cop.hpp"
#include "core/snapshot.hpp"
#include "reschedule/failure.hpp"
#include "reschedule/governor.hpp"
#include "reschedule/journal.hpp"
#include "reschedule/rescheduler.hpp"
#include "reschedule/scrubber.hpp"
#include "services/ibp.hpp"
#include "util/retry.hpp"

namespace grads::core {

struct ManagerOptions {
  /// Modeled service times of the Grid-side steps — the left-hand stacked
  /// segments of Figure 3.
  double resourceSelectionSec = 4.0;  ///< GIS queries + candidate filtering
  double perfModelingSec = 6.0;       ///< evaluating the COP model/mapper
  double appStartPerRankSec = 0.4;    ///< spawn + MPI global sync per rank

  bool monitorContract = true;
  /// Mark this app's nodes unavailable in the GIS while it runs, so other
  /// application managers do not co-schedule onto them (exclusive
  /// space-sharing; needed for opportunistic-rescheduling scenarios).
  bool reserveNodes = false;
  /// Stable storage node for SRS checkpoints (kNoId = each rank's local
  /// depot). Required when fail-stop fault tolerance is exercised.
  grid::NodeId stableDepot = grid::kNoId;
  /// Failure injector to register this app's RSS daemon with (fail-stop
  /// notifications reach the app through it); may be null.
  reschedule::FailureInjector* failures = nullptr;
  /// Contract-Viewer recorder for this app's contract activity; may be null.
  autopilot::ContractViewer* viewer = nullptr;

  // --- Degraded-mode mitigations. ---
  /// Launch retry: how often the manager re-runs resource selection +
  /// binding when the candidate set is empty or a mapped node turns out to
  /// be unreachable (stale GIS entry). The budget resets after every
  /// successful launch. `RetryPolicy::none()` restores fail-fast behavior.
  util::RetryPolicy launchRetry;
  /// Depot retry for SRS checkpoint reads during restore (backoff between
  /// attempts while a depot is dark). Default: no retries.
  util::RetryPolicy depotRetry = util::RetryPolicy::none();
  /// Seed for the retry-jitter Rng (campaigns stay deterministic).
  std::uint64_t retrySeed = 0x9e3779b9ULL;
  /// Second depot every checkpoint object is mirrored to (kNoId = no
  /// replica): a single depot outage then cannot strand the application.
  grid::NodeId replicaDepot = grid::kNoId;

  // --- Checkpoint integrity. ---
  /// Verify restored slices (and restore pre-flights) against the RSS
  /// manifest. Off = the raw ablation: restores trust whatever the depot
  /// serves and corrupt reads are only counted, never avoided.
  bool verifyCheckpoints = true;
  /// Raise the depot write fence to the new incarnation's epoch at each
  /// launch, so a zombie of an earlier incarnation cannot overwrite
  /// checkpoint objects. Off = raw ablation.
  bool fenceWrites = true;
  /// Period of the background depot scrubber re-replicating corrupt or
  /// missing checkpoint copies; 0 = no scrubbing.
  double scrubPeriodSec = 0.0;

  // --- Transactional rescheduling. ---
  /// Action journal for two-phase migrations. When set (and also handed to
  /// the rescheduler via setJournal), every migrate runs prepare → commit →
  /// finalize: the manager validates the stop checkpoint, stages the target
  /// mapping, commits when the last rank restores on the new nodes, and on
  /// any fault before that point rolls back and relaunches on the journaled
  /// prior mapping. May be null (untracked migrations, the seed behavior).
  reschedule::ActionJournal* journal = nullptr;
  /// Anti-thrash governor consulted before a confirmed violation reaches
  /// the rescheduler; a non-admit verdict returns kSuppressed (tolerances
  /// unchanged). May be null: violations pass straight through.
  reschedule::ViolationGovernor* governor = nullptr;

  // --- Metascheduler coordination. ---
  /// Awaited at the top of every launch iteration (initial and relaunch).
  /// A frontend closes this gate to park a checkpointed app off its nodes
  /// and opens it to resume; null = launch immediately (seed behavior).
  std::function<sim::Task(const std::string&)> relaunchGate;
};

/// Per-run accounting matching Figure 3's stacked bars; one entry per
/// incarnation (index 0 = initial execution, 1 = after first migration...).
struct RunBreakdown {
  std::vector<double> resourceSelection;
  std::vector<double> perfModeling;
  std::vector<double> gridOverhead;   ///< distributed binder
  std::vector<double> appStart;
  std::vector<double> appDuration;    ///< pure application execution
  std::vector<double> checkpointWrite;
  std::vector<double> checkpointRead;
  std::vector<std::vector<grid::NodeId>> mappings;
  double totalSeconds = 0.0;
  int incarnations = 0;
  int launchFailures = 0;   ///< empty candidate sets + stale-GIS bind failures
  int restoreFailures = 0;  ///< incarnations aborted on unreadable checkpoint
  int corruptRestores = 0;     ///< incarnations restored from corrupt data
  int corruptSliceReads = 0;   ///< slices delivered that defy the manifest
  int integrityRejects = 0;    ///< copies rejected by restore verification
  int staleWriteRejects = 0;   ///< zombie checkpoint writes fenced out
  int scrubRepairs = 0;        ///< scrubber re-replications
  int scrubUnrepairable = 0;   ///< slices the scrubber found no good copy for
  int actionsOpened = 0;       ///< journaled rescheduling actions this run
  int actionsCommitted = 0;    ///< actions that reached their commit point
  int actionsRolledBack = 0;   ///< actions resolved back to the prior mapping
  int violationsSuppressed = 0;///< confirmed violations the governor held
  int admissionRetries = 0;    ///< frontend resubmits after a shed (retry-after)
  int admissionSheds = 0;      ///< admission-controller rejections of this app
  int preemptParks = 0;        ///< checkpoint-and-park cycles forced on this app
  int brownoutDeferrals = 0;   ///< dispatch opportunities lost to brownout
  // --- What-if forked rescheduling (driver-wide totals at run end; the
  // --- driver is shared across apps, so these are control-plane gauges).
  int whatifDecisions = 0;     ///< governed violations routed through forks
  int whatifForks = 0;         ///< sandboxed futures executed
  int whatifFallbacks = 0;     ///< decisions degraded to the model-only path
  int whatifOverrides = 0;     ///< fork verdicts contradicting the model
  int whatifDivergences = 0;   ///< realized outcomes defying the prediction
  /// Background daemons re-armed for this app after a control-plane restart
  /// (scrubber tick chain, contract-monitor listener). Each re-arms exactly
  /// once per restore — the arm-once guards make a double restore protocol
  /// visible here instead of silently doubling daemon cadence.
  int daemonRearms = 0;

  double sumSegment(const std::vector<double>& v) const;
};

/// The GrADS application manager: drives the iterative runtime process of
/// Figure 1 — resource selection, performance modeling, binding, launching,
/// contract monitoring, and (via the rescheduler + RSS/SRS) stop/migrate/
/// restart cycles until the application completes.
///
/// It is also the snapshot coordinator for control-plane crash-restart
/// (DESIGN.md, snapshot/restore invariants): it owns the component registry,
/// contributes its own "core.apps" section (the completed-apps set plus each
/// live run's RSS ledger, contract-monitor band, and scrubber totals), and
/// hands decoded per-app resume records to the next run() of each app.
/// Coroutine frames are never serialized — a restored app relaunches from
/// its SRS checkpoint ledger at a quiescent boundary, and every background
/// daemon is re-armed exactly once by that relaunch.
class AppManager : public core::Snapshottable {
 public:
  AppManager(grid::Grid& grid, services::Gis& gis, const services::Nws* nws,
             services::Ibp& ibp, autopilot::AutopilotManager& autopilot);

  /// Runs the COP to completion. `rescheduler` may be null (no rescheduling:
  /// contract violations are logged but nothing migrates).
  sim::Task run(const Cop& cop,
                reschedule::StopRestartRescheduler* rescheduler,
                ManagerOptions options, RunBreakdown* out);

  /// Requests a checkpoint-and-stop of a live run (the metascheduler's
  /// preemption path rides the same RSS stop protocol the rescheduler
  /// uses). Returns false when the app has no live incarnation — the
  /// caller must not assume the stop was delivered.
  bool requestStop(const std::string& app);

  // --- Whole-simulation snapshot/restore. ---

  /// Component registry for whole-simulation snapshots. The harness
  /// registers every Snapshottable control-plane component here (grid
  /// fabric, GIS, NWS, IBP, journal, governor, Autopilot); the manager
  /// registers itself at construction.
  core::SnapshotRegistry& snapshots() { return registry_; }

  /// Captures every registered component right now (a quiescent boundary:
  /// the engine is between events whenever user code runs).
  core::SnapshotImage snapshotNow();

  using SnapshotSink = std::function<void(core::SnapshotImage)>;
  /// One-shot capture at absolute time `t` (a daemon event — it never keeps
  /// the simulation alive).
  void snapshotAt(double t, SnapshotSink sink);
  /// Periodic capture every `periodSec`. Arm-once guarded like the depot
  /// scrubber: a second call is a no-op returning false, so a sloppy
  /// restore protocol cannot double the snapshot cadence.
  bool armSnapshotDaemon(double periodSec, SnapshotSink sink);
  bool snapshotDaemonArmed() const { return snapshotArmed_; }
  std::size_t snapshotsTaken() const { return snapshotsTaken_; }

  /// Who a restore is for. The live control plane restores exactly once — a
  /// second restore would silently fork live state from the image. Sandbox
  /// control planes (the what-if fork driver's ephemeral futures) restore
  /// the *same* image onto many fresh worlds; each sandbox manager is still
  /// a new object, but the kind documents intent and lets one manager host
  /// repeated speculative restores without loosening the live guard.
  enum class RestoreKind { kLive, kSandbox };

  /// Restores every registered component from the image. Must run on a
  /// freshly rebuilt control plane, at the image's simulation time, before
  /// any application is (re)launched: decoding leaves per-app resume
  /// records that the next run() of each app adopts. Guarded for kLive: a
  /// second live restore on the same manager throws (live state would
  /// silently fork from the image); kSandbox restores repeat freely.
  void restoreFrom(const core::SnapshotImage& image,
                   RestoreKind kind = RestoreKind::kLive);

  /// True if a decoded resume record is waiting for this app's relaunch.
  bool hasResumeState(const std::string& app) const;
  /// True if the restored image recorded this app as completed (the
  /// restore protocol must not respawn it).
  bool isCompleted(const std::string& app) const;

  const char* snapshotSection() const override { return "core.apps"; }
  void encodeState(core::SnapshotWriter& w) const override;
  void decodeState(core::SnapshotReader& r) override;

 private:
  /// Live-run state registered by a run() frame for the snapshot encoder.
  struct AppRuntime {
    reschedule::Rss* rss = nullptr;
    const std::unique_ptr<autopilot::ContractMonitor>* monitor = nullptr;
    const reschedule::DepotScrubber* scrubber = nullptr;
  };
  /// Shared with run() frames' registration guards (same pattern as
  /// DepotScrubber::State): a frame torn down during engine destruction —
  /// when the manager itself may already be gone — still erases its entry
  /// from a map that outlives the manager.
  using LiveMap = std::map<std::string, AppRuntime>;

  /// One app's record in the "core.apps" section, after its name. Decoded
  /// records own their ledger and wait for the app's relaunch
  /// (ResumeRecord); live runs are written through the same field list
  /// with the ledger borrowed and the band read off the live monitor.
  template <class Ledger>
  struct AppRecord {
    Ledger rss;
    std::optional<autopilot::MonitorBand> monitor;
    reschedule::DepotScrubber::Stats scrubStats;

    template <class Self, class Ar>
    static void snapshotIo(Self& s, Ar& a) {
      a(s.rss, s.monitor, s.scrubStats);
    }
  };
  using ResumeRecord = AppRecord<reschedule::Rss>;

  void scheduleSnapshotTick(double periodSec);
  std::optional<ResumeRecord> takeResume(const std::string& app);

  grid::Grid* grid_;         // grads: transient(wiring, re-bound at construction)
  services::Gis* gis_;       // grads: transient(wiring, re-bound at construction)
  const services::Nws* nws_; // grads: transient(wiring, re-bound at construction)
  services::Ibp* ibp_;       // grads: transient(wiring, re-bound at construction)
  autopilot::AutopilotManager* autopilot_;  // grads: transient(wiring, re-bound at construction)

  // grads: transient(section registry, rebuilt as services re-register at construction)
  core::SnapshotRegistry registry_;
  std::shared_ptr<LiveMap> live_ = std::make_shared<LiveMap>();
  std::set<std::string> completed_;
  std::map<std::string, ResumeRecord> resume_;
  SnapshotSink snapshotSink_;  // grads: transient(sink callback, re-registered by the driver)
  bool snapshotArmed_ = false; // grads: transient(arm-once daemon flag - restore re-arms explicitly)
  bool restoredOnce_ = false;  // grads: transient(runtime restore marker, meaningful only within one process life)
  std::size_t snapshotsTaken_ = 0;  // grads: transient(diagnostic counter, not logical state)
};

}  // namespace grads::core
