#include "core/app_manager.hpp"

#include <algorithm>
#include <exception>
#include <numeric>
#include <set>

#include "reschedule/scrubber.hpp"
#include "reschedule/whatif/fork_driver.hpp"
#include "sim/sync.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace grads::core {

namespace {
/// Consecutive failed restores tolerated before the manager abandons the
/// checkpoint and restarts from scratch.
constexpr int kMaxRestoreFailures = 2;
}  // namespace

double RunBreakdown::sumSegment(const std::vector<double>& v) const {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

AppManager::AppManager(grid::Grid& grid, services::Gis& gis,
                       const services::Nws* nws, services::Ibp& ibp,
                       autopilot::AutopilotManager& autopilot)
    : grid_(&grid), gis_(&gis), nws_(nws), ibp_(&ibp), autopilot_(&autopilot) {
  registry_.add(*this);
}

core::SnapshotImage AppManager::snapshotNow() {
  ++snapshotsTaken_;
  return registry_.capture(gis_->grid().engine().now());
}

void AppManager::snapshotAt(double t, SnapshotSink sink) {
  GRADS_REQUIRE(static_cast<bool>(sink), "AppManager::snapshotAt: empty sink");
  sim::Engine& eng = gis_->grid().engine();
  GRADS_REQUIRE(t >= eng.now(), "AppManager::snapshotAt: time in the past");
  eng.scheduleDaemonAt(t, [this, sink = std::move(sink)] {
    sink(snapshotNow());
  });
}

bool AppManager::armSnapshotDaemon(double periodSec, SnapshotSink sink) {
  GRADS_REQUIRE(periodSec > 0.0,
                "AppManager::armSnapshotDaemon: period must be > 0");
  GRADS_REQUIRE(static_cast<bool>(sink),
                "AppManager::armSnapshotDaemon: empty sink");
  if (snapshotArmed_) return false;  // arm-once: one capture chain, ever
  snapshotArmed_ = true;
  snapshotSink_ = std::move(sink);
  scheduleSnapshotTick(periodSec);
  return true;
}

void AppManager::scheduleSnapshotTick(double periodSec) {
  gis_->grid().engine().scheduleDaemon(periodSec, [this, periodSec] {
    snapshotSink_(snapshotNow());
    scheduleSnapshotTick(periodSec);
  });
}

void AppManager::restoreFrom(const core::SnapshotImage& image,
                             RestoreKind kind) {
  GRADS_REQUIRE(kind == RestoreKind::kSandbox || !restoredOnce_,
                "AppManager::restoreFrom: this manager already restored "
                "once; a second restore would fork live state from the image");
  registry_.restore(image);
  if (kind == RestoreKind::kLive) restoredOnce_ = true;
}

bool AppManager::hasResumeState(const std::string& app) const {
  return resume_.count(app) > 0;
}

bool AppManager::isCompleted(const std::string& app) const {
  return completed_.count(app) > 0;
}

bool AppManager::requestStop(const std::string& app) {
  const auto it = live_->find(app);
  if (it == live_->end() || it->second.rss == nullptr) return false;
  it->second.rss->requestStop();
  return true;
}

std::optional<AppManager::ResumeRecord> AppManager::takeResume(
    const std::string& app) {
  const auto it = resume_.find(app);
  if (it == resume_.end()) return std::nullopt;
  std::optional<ResumeRecord> rec(std::move(it->second));
  resume_.erase(it);
  return rec;
}

void AppManager::encodeState(core::SnapshotWriter& w) const {
  // Live runs and still-unadopted resume records share one count and one
  // record layout, so a snapshot taken in the gap between restore and
  // relaunch loses nothing.
  w(completed_, live_->size() + resume_.size());
  for (const auto& [name, rt] : *live_) {
    std::optional<autopilot::MonitorBand> band;
    if (const auto* mon = rt.monitor->get()) band = mon->runtimeState();
    w(name, AppRecord<const reschedule::Rss&>{*rt.rss, std::move(band),
                                              rt.scrubber->stats()});
  }
  for (const auto& [name, rec] : resume_) w(name, rec);
}

void AppManager::decodeState(core::SnapshotReader& r) {
  sim::Engine& eng = gis_->grid().engine();
  resume_.clear();
  std::size_t nApps = 0;
  r(completed_, nApps);
  for (std::size_t i = 0; i < nApps; ++i) {
    std::string name;
    r(name);
    ResumeRecord rec{reschedule::Rss(eng, name), std::nullopt, {}};
    r(rec);
    resume_.emplace(std::move(name), std::move(rec));
  }
}

sim::Task AppManager::run(const Cop& cop,
                          reschedule::StopRestartRescheduler* rescheduler,
                          ManagerOptions options, RunBreakdown* out) {
  GRADS_REQUIRE(cop.code && cop.perfModel && cop.mapper,
                "AppManager::run: incomplete COP");
  sim::Engine& eng = gis_->grid().engine();
  const double runStart = eng.now();

  RunBreakdown breakdown;
  reschedule::Rss rss(eng, cop.name);
  std::size_t resumePhase = 0;
  bool restored = false;
  // Control-plane restart: adopt the resume record decoded from the
  // snapshot (if one waits for this app) before anything observes the RSS.
  // The relaunch itself then re-arms every per-app background daemon
  // exactly once — counted in breakdown.daemonRearms.
  auto resumeRec = takeResume(cop.name);
  const bool resumedFromSnapshot = resumeRec.has_value();
  if (resumedFromSnapshot) {
    rss = std::move(resumeRec->rss);
    restored = rss.hasCheckpoint();
    resumePhase = restored ? rss.storedIteration() : 0;
    GRADS_INFO("app-manager", eng.now())
        << cop.name << ": resuming from snapshot (incarnation "
        << rss.incarnation() << ", checkpoint iteration " << resumePhase
        << ")";
  }
  if (options.failures != nullptr) options.failures->watch(rss);
  int consecutiveRestoreFailures = 0;

  // Transactional rescheduling state. `priorMapping` is the journaled
  // rollback target of an aborted action; `rollbackToPrior` asks the next
  // launch to relaunch there instead of re-running the mapper.
  reschedule::ActionJournal* journal = options.journal;
  const int baseCommitted =
      journal != nullptr ? journal->committedFor(cop.name) : 0;
  const int baseRolledBack =
      journal != nullptr ? journal->rolledBackFor(cop.name) : 0;
  std::vector<grid::NodeId> priorMapping;
  bool rollbackToPrior = false;
  // Rolls the app's open action, if any, back and asks the next launch to
  // relaunch on the action's prior mapping.
  auto rollBackOpenAction = [&](const char* why) {
    if (journal == nullptr) return;
    if (const auto* rec = journal->openAction(cop.name)) {
      priorMapping = rec->prior;
      rollbackToPrior = true;
      journal->rollback(rec->id, why);
    }
  };
  auto allReachable = [this](const std::vector<grid::NodeId>& nodes) {
    return std::all_of(nodes.begin(), nodes.end(), [this](grid::NodeId n) {
      return gis_->isNodeReachable(n);
    });
  };

  // The contract monitor persists across incarnations (its terms are
  // updated after each migration).
  std::unique_ptr<autopilot::ContractMonitor> monitor;

  // The depot scrubber also spans incarnations: corruption mostly bites
  // while the checkpoint sits idle between a stop and the restart.
  reschedule::DepotScrubber scrubber(eng, *ibp_, rss);
  if (resumedFromSnapshot) scrubber.adoptStats(resumeRec->scrubStats);
  if (options.scrubPeriodSec > 0.0 && scrubber.start(options.scrubPeriodSec) &&
      resumedFromSnapshot) {
    ++breakdown.daemonRearms;
  }

  // Register this run's live state for whole-simulation snapshots. The
  // guard shares the map, so a frame destroyed during engine teardown —
  // possibly after the manager itself is gone — still erases its entry
  // from storage that outlives both.
  struct LiveRegistration {
    std::shared_ptr<LiveMap> map;
    std::string name;
    ~LiveRegistration() { map->erase(name); }
  };
  live_->insert_or_assign(cop.name, AppRuntime{&rss, &monitor, &scrubber});
  LiveRegistration liveGuard{live_, cop.name};

  std::vector<std::string> arrayNames;
  for (const auto& [array, bytes] : cop.checkpointArrays) {
    (void)bytes;
    arrayNames.push_back(array);
  }

  // Launch retry budget: spans resource selection + binding of one launch
  // attempt chain, and is refilled after every successful launch.
  Rng launchRng(options.retrySeed ^ 0xa71aa71aULL);
  util::Retry launchRetry(options.launchRetry, &launchRng);

  while (true) {
    // --- Metascheduler gate (park latch). ---
    // A frontend holds parked apps here between checkpoint-and-stop and the
    // re-dispatch that reopens the gate; until then the app occupies no node
    // and consumes no Grid-side service time.
    if (options.relaunchGate) co_await options.relaunchGate(cop.name);

    // --- Resource selection (scheduler queries GIS/NWS). ---
    double t0 = eng.now();
    co_await sim::sleepFor(eng, options.resourceSelectionSec);
    const auto available = gis_->availableNodes();
    if (available.empty()) {
      // Degraded mode: every known node is down or reserved. Back off and
      // re-query the directory instead of aborting the run.
      ++breakdown.launchFailures;
      const auto delay = launchRetry.nextDelaySec();
      GRADS_REQUIRE(delay.has_value(),
                    "AppManager: no available resources (retries exhausted)");
      GRADS_WARN("app-manager", eng.now())
          << cop.name << ": no available resources, retrying in " << *delay
          << " s";
      co_await sim::sleepFor(eng, *delay);
      continue;
    }
    breakdown.resourceSelection.push_back(eng.now() - t0);

    // --- Performance modeling + mapping. ---
    t0 = eng.now();
    co_await sim::sleepFor(eng, options.perfModelingSec);
    std::vector<grid::NodeId> mapping;
    if (rollbackToPrior && !priorMapping.empty()) {
      // A journaled action rolled back: resume on the pre-action nodes, not
      // on whatever the mapper likes today — that choice is what just
      // failed. Only if a prior node died too do we fall through.
      if (allReachable(priorMapping)) {
        mapping = priorMapping;
        GRADS_INFO("app-manager", eng.now())
            << cop.name
            << ": rolled-back action: relaunching on prior mapping ("
            << mapping.size() << " ranks)";
      } else {
        GRADS_WARN("app-manager", eng.now())
            << cop.name
            << ": rollback target lost a node; remapping from scratch";
      }
    }
    rollbackToPrior = false;
    if (mapping.empty() && journal != nullptr) {
      if (const auto* rec = journal->openAction(cop.name);
          rec != nullptr && rec->pinned && !rec->target.empty()) {
        // A validated decision (what-if fork verdict or sandbox candidate
        // injection) pinned this action's target: launch exactly what the
        // forks validated instead of re-running selection — unless a pinned
        // node has since gone dark, in which case the pin is void and the
        // mapper chooses fresh.
        if (allReachable(rec->target)) {
          mapping = rec->target;
          GRADS_INFO("app-manager", eng.now())
              << cop.name << ": pinned action #" << rec->id
              << ": launching on validated target (" << mapping.size()
              << " ranks)";
        } else {
          GRADS_WARN("app-manager", eng.now())
              << cop.name << ": pinned action #" << rec->id
              << " target lost a node; remapping from scratch";
        }
      }
    }
    if (mapping.empty()) mapping = cop.mapper->chooseMapping(available, nws_);
    GRADS_REQUIRE(!mapping.empty(), "AppManager: empty mapping");
    breakdown.perfModeling.push_back(eng.now() - t0);
    breakdown.mappings.push_back(mapping);
    GRADS_INFO("app-manager", eng.now())
        << cop.name << ": incarnation " << breakdown.mappings.size() << " on "
        << mapping.size() << " ranks (first node "
        << gis_->grid().node(mapping[0]).name() << ")";

    if (journal != nullptr) {
      if (const auto* rec = journal->openAction(cop.name)) {
        // Commit-phase selection may revise the prepare-time candidate once
        // fresh NWS data is in; the journal records what actually launches.
        journal->setTarget(rec->id, mapping);
      }
    }

    std::set<grid::NodeId> reserved;
    if (options.reserveNodes) {
      reserved.insert(mapping.begin(), mapping.end());
      for (const auto node : reserved) gis_->setNodeUp(node, false);
    }

    // --- Grid overhead: the distributed binder. ---
    BindReport bindReport;
    Binder binder(eng, *gis_);
    std::exception_ptr bindError;
    try {
      co_await binder.bind(cop, mapping, &bindReport);
    } catch (const BindError& e) {
      bindError = std::current_exception();
      GRADS_WARN("app-manager", eng.now())
          << cop.name << ": launch failed (" << e.what() << ")";
    }
    if (bindError) {
      // Launch failed — typically a stale GIS entry (a mapped node is in
      // truth unreachable). Push the truth into the directory so the next
      // selection avoids it, release the reservation, drop this attempt's
      // breakdown entries, and retry on a fresh mapping.
      for (const auto node : mapping) {
        if (!gis_->isNodeReachable(node)) gis_->setNodeUp(node, false);
      }
      for (const auto node : reserved) {
        if (gis_->isNodeReachable(node)) gis_->setNodeUp(node, true);
      }
      breakdown.resourceSelection.pop_back();
      breakdown.perfModeling.pop_back();
      breakdown.mappings.pop_back();
      ++breakdown.launchFailures;
      // The target mapping is unusable (a node died between selection and
      // bind): abort the migration and relaunch on the old nodes.
      rollBackOpenAction("bind failed on target mapping");
      const auto delay = launchRetry.nextDelaySec();
      if (!delay) std::rethrow_exception(bindError);
      co_await sim::sleepFor(eng, *delay);
      continue;
    }
    breakdown.gridOverhead.push_back(bindReport.seconds);
    launchRetry = util::Retry(options.launchRetry, &launchRng);

    // --- Application start (launch + MPI global synchronization, §2). ---
    t0 = eng.now();
    co_await sim::sleepFor(
        eng, options.appStartPerRankSec * static_cast<double>(mapping.size()));
    breakdown.appStart.push_back(eng.now() - t0);

    // --- Execute this incarnation. ---
    vmpi::World world(*grid_, mapping, cop.name);
    rss.beginIncarnation(static_cast<int>(mapping.size()));
    rss.setOccupiedNodes(mapping);
    if (options.fenceWrites) {
      // Epoch fencing: once the fence is at this incarnation, a zombie of
      // any earlier incarnation gets StaleEpochError instead of a write.
      ibp_->setFence(cop.name, rss.incarnation());
    }
    reschedule::Srs srs(*ibp_, rss, world);
    srs.setVerifyOnRestore(options.verifyCheckpoints);
    if (options.stableDepot != grid::kNoId) {
      srs.setStableDepot(options.stableDepot);
    }
    if (options.replicaDepot != grid::kNoId) {
      srs.setReplicaDepot(options.replicaDepot);
    }
    srs.setRetryPolicy(options.depotRetry, options.retrySeed ^ 0xdeb07ULL);
    for (const auto& [array, bytes] : cop.checkpointArrays) {
      srs.registerArray(array, bytes);
    }

    if (restored) {
      // Pre-flight: pick the newest generation whose every object is
      // readable right now (primary or replica). The newest ledger entry
      // may be gone — its depot dark or its objects lost with a dead node.
      const auto gen = reschedule::findRestorableGeneration(
          *ibp_, rss, arrayNames, options.verifyCheckpoints);
      if (gen) {
        srs.setRestoreGeneration(*gen);
        resumePhase = rss.checkpointRecord(*gen)->iteration;
        if (*gen != rss.incarnation() - 1) {
          GRADS_WARN("app-manager", eng.now())
              << cop.name << ": newest checkpoint unreadable, falling back "
              << "to generation " << *gen << " (iteration " << resumePhase
              << ")";
        }
      } else {
        GRADS_WARN("app-manager", eng.now())
            << cop.name << ": no readable checkpoint generation, "
            << "restarting from scratch";
        restored = false;
        resumePhase = 0;
      }
    }

    if (journal != nullptr) {
      if (const auto* rec = journal->openAction(cop.name)) {
        if (!restored) {
          // The stop checkpoint validated when the action was prepared, but
          // no generation is readable any more (depot dark, objects lost).
          // There is nothing to move, so the migration-as-transaction fails
          // — this incarnation proceeds from scratch instead.
          journal->rollback(rec->id, "checkpoint unreadable at restart");
        } else {
          // Commit phase: the restore onto the target mapping begins. The
          // action commits the instant the last rank holds its share.
          journal->beginCommit(rec->id);
          srs.setOnAllRestored([journal, id = rec->id] {
            journal->commit(id, "all ranks restored on target mapping");
          });
        }
      }
    }

    LaunchContext ctx;
    ctx.appName = cop.name;
    ctx.world = &world;
    ctx.srs = &srs;
    ctx.autopilot = autopilot_;
    ctx.startPhase = resumePhase;
    ctx.restored = restored;

    // Contract: predictions for this mapping on dedicated resources.
    auto predictor = [model = cop.perfModel, mapping](std::size_t phase) {
      return model->phaseSeconds(mapping, phase, nullptr);
    };
    if (options.monitorContract) {
      if (!monitor) {
        monitor = std::make_unique<autopilot::ContractMonitor>(
            eng, autopilot::PerformanceContract(cop.name, predictor));
        monitor->attachTo(*autopilot_,
                          autopilot::phaseTimeChannel(cop.name));
        monitor->setViewer(options.viewer);
        if (resumedFromSnapshot && resumeRec->monitor) {
          // Re-adopt the pre-crash adaptive band and confirmation window;
          // the attachTo above is this monitor's single listener re-arm.
          monitor->restoreRuntimeState(std::move(*resumeRec->monitor));
          ++breakdown.daemonRearms;
        }
      } else {
        // "the rescheduler may contact the contract monitor to update the
        // terms of the contract."
        monitor->contract().updateTerms(predictor);
        monitor->resetPhase(resumePhase);
        monitor->setEnabled(true);
        // Phase numbering restarted: the governor's quorum window would
        // otherwise misread post-restart phases as duplicates.
        if (options.governor != nullptr) options.governor->resetApp(cop.name);
      }
      if (rescheduler != nullptr) {
        monitor->setRescheduleRequest(
            [rescheduler, governor = options.governor, &breakdown, &cop,
             &rss, mapping](const autopilot::ViolationReport& r) {
              if (governor != nullptr &&
                  governor->admit(r) != reschedule::GovernorVerdict::kAdmit) {
                ++breakdown.violationsSuppressed;
                return autopilot::RescheduleOutcome::kSuppressed;
              }
              return rescheduler->onViolation(cop, rss, mapping, r.phase);
            });
      } else {
        monitor->setRescheduleRequest(nullptr);
      }
    }
    if (rescheduler != nullptr) {
      reschedule::StopRestartRescheduler::RunningApp handle;
      handle.cop = &cop;
      handle.rss = &rss;
      handle.mapping = [mapping] { return mapping; };
      handle.phase = [m = monitor.get(), resumePhase] {
        return m != nullptr ? m->phasesSeen() : resumePhase;
      };
      rescheduler->registerRunning(cop.name, handle);
    }

    const double execStart = eng.now();
    sim::JoinSet ranks(eng);
    for (int r = 0; r < world.size(); ++r) {
      ranks.spawn(cop.code(ctx, r));
    }
    co_await ranks.join();
    const double execEnd = eng.now();

    if (monitor) monitor->setEnabled(false);
    if (rescheduler != nullptr) rescheduler->unregisterRunning(cop.name);
    for (const auto node : reserved) gis_->setNodeUp(node, true);

    breakdown.checkpointWrite.push_back(srs.writeSpanSeconds());
    breakdown.checkpointRead.push_back(srs.readSpanSeconds());
    breakdown.corruptSliceReads += srs.corruptSliceReads();
    if (srs.restoredThisIncarnation() && srs.corruptSliceReads() > 0) {
      // Ground truth for the raw ablation: the application resumed from
      // data that did not match the manifest — a silent wrong restore.
      ++breakdown.corruptRestores;
    }
    breakdown.integrityRejects += srs.integrityRejects();
    breakdown.staleWriteRejects += srs.staleWriteRejects();
    breakdown.appDuration.push_back(execEnd - execStart -
                                    srs.writeSpanSeconds() -
                                    srs.readSpanSeconds());
    ++breakdown.incarnations;

    if (!ctx.stopped) {
      if (journal != nullptr) {
        if (const auto* rec = journal->openAction(cop.name)) {
          // Defensive close: the run finished on the target, so the action
          // is a success even if the commit callback never fired (e.g. a
          // 1-rank restore path that bypassed restoreCheckpoint).
          journal->commit(rec->id, "run completed on target mapping");
        }
      }
      // Completed. Record it for snapshots (a restore protocol must not
      // respawn a finished app); opportunistic rescheduling may now help
      // someone else.
      completed_.insert(cop.name);
      if (rescheduler != nullptr) rescheduler->onAppCompleted();
      break;
    }
    if (ctx.restoreFailed) {
      // Fault in the commit phase before the commit point: the restore onto
      // the target died. Roll back and relaunch on the old nodes.
      rollBackOpenAction("restore failed on target mapping");
      // The incarnation aborted because its checkpoint turned unreadable
      // between the pre-flight and the read (depot flapping). Retry the
      // restore a bounded number of times, then cut losses and restart
      // from scratch rather than loop forever.
      ++breakdown.restoreFailures;
      ++consecutiveRestoreFailures;
      if (consecutiveRestoreFailures > kMaxRestoreFailures) {
        GRADS_WARN("app-manager", eng.now())
            << cop.name << ": " << consecutiveRestoreFailures
            << " consecutive failed restores, abandoning checkpoint";
        restored = false;
        resumePhase = 0;
        consecutiveRestoreFailures = 0;
      } else {
        restored = rss.hasCheckpoint();
        resumePhase = restored ? rss.storedIteration() : 0;
      }
      continue;
    }
    consecutiveRestoreFailures = 0;
    GRADS_INFO("app-manager", eng.now())
        << cop.name << ": stopped at phase " << ctx.completedPhases
        << "; restarting";
    // A rescheduler-driven stop leaves a fresh checkpoint; a failure leaves
    // only the last *periodic* one (possibly none — restart from scratch).
    restored = rss.hasCheckpoint();
    resumePhase = restored ? rss.storedIteration() : 0;
    // Prepare validation: an open action may enter its commit phase only
    // if this incarnation left a complete, published stop checkpoint and no
    // fault hit while it was being taken.
    const bool checkpointGood =
        rss.hasCheckpoint() &&
        (!options.verifyCheckpoints ||
         rss.manifestComplete(rss.incarnation()));
    if (rss.failureSignaled()) {
      rollBackOpenAction("node failure during action");
    } else if (!checkpointGood) {
      rollBackOpenAction("stop checkpoint incomplete");
    }
  }

  scrubber.stop();
  // Drain an in-flight scan: it walks the Rss owned by this frame.
  while (scrubber.scanning()) co_await sim::sleepFor(eng, 1.0);
  breakdown.scrubRepairs = scrubber.stats().repaired;
  breakdown.scrubUnrepairable = scrubber.stats().unrepairable;
  if (journal != nullptr) {
    breakdown.actionsCommitted =
        journal->committedFor(cop.name) - baseCommitted;
    breakdown.actionsRolledBack =
        journal->rolledBackFor(cop.name) - baseRolledBack;
    breakdown.actionsOpened =
        breakdown.actionsCommitted + breakdown.actionsRolledBack;
  }
  if (rescheduler != nullptr && rescheduler->forkDriver() != nullptr) {
    const auto& ws = rescheduler->forkDriver()->stats();
    breakdown.whatifDecisions = ws.decisions;
    breakdown.whatifForks = ws.forksRun;
    breakdown.whatifFallbacks = ws.fallbacks;
    breakdown.whatifOverrides = ws.overrides;
    breakdown.whatifDivergences = ws.divergences;
  }
  breakdown.totalSeconds = eng.now() - runStart;
  if (out != nullptr) *out = std::move(breakdown);
}

}  // namespace grads::core
