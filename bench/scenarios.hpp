// Scenario catalog — the one place outside perfbench/ that builds, records
// or restores a catalog world.
//
// Five named worlds, each a whole control plane: chaos-qr, integrity-qr,
// thrash-governed, tenant-overload and whatif-forked. crash_sweep kills and
// restores them, determinism_probe replays each twice, and the thrash,
// integrity and what-if campaigns build their arms from them, changing only
// the fields an arm differs in.
//
// Three whole runs sit beside them: the Figure-3 QR migration, the Figure-4
// N-body swap experiment and thrash_campaign's mid-action kill. The benches
// report them and the tests assert on them, so both see the same world.
//
// bench/whatif_world.hpp compiles without any bench/ source file, so all it
// calls is inline here: World, the pop-stream observer, the outcome fold,
// the square-wave load, the flapping-load world (buildFlapWorld), app spawn,
// daemon start and the restore sequence (decode, journal recovery, resume).
// The other worlds' build functions and the recording run live in
// scenarios.cpp.

#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apps/nbody.hpp"
#include "apps/qr.hpp"
#include "core/app_manager.hpp"
#include "core/snapshot.hpp"
#include "grid/grid.hpp"
#include "grid/load.hpp"
#include "grid/testbeds.hpp"
#include "metasched/frontend.hpp"
#include "reschedule/chaos.hpp"
#include "reschedule/failure.hpp"
#include "reschedule/governor.hpp"
#include "reschedule/journal.hpp"
#include "reschedule/rescheduler.hpp"
#include "reschedule/swap.hpp"
#include "reschedule/whatif/fork_driver.hpp"
#include "services/gis.hpp"
#include "services/ibp.hpp"
#include "services/nws.hpp"
#include "sim/engine.hpp"
#include "util/hash.hpp"

namespace grads::bench {

/// One whole control plane. The engine is declared FIRST so it is destroyed
/// LAST: killing a World mid-run destroys coroutine frames inside ~Engine,
/// and their destructors (scrubber stop, live-registration erase) must see
/// a live engine even though every other member is already gone.
struct World {
  sim::Engine eng;
  grid::Grid g{eng};
  std::optional<services::Gis> gis;
  std::optional<services::Nws> nws;
  std::optional<services::Ibp> ibp;
  std::optional<autopilot::AutopilotManager> autopilot;
  std::optional<reschedule::FailureInjector> injector;
  std::optional<reschedule::ChaosDriver> chaos;
  std::optional<reschedule::ActionJournal> journal;
  std::optional<reschedule::ViolationGovernor> governor;
  std::optional<reschedule::StopRestartRescheduler> rescheduler;
  std::optional<reschedule::whatif::ForkDriver> fork;
  std::optional<core::AppManager> mgr;
  std::optional<metasched::MetaScheduler> meta;
  core::Cop cop;
  core::ManagerOptions mopts;
  std::vector<reschedule::ChaosEvent> schedule;
  std::vector<std::pair<grid::NodeId, grid::LoadTrace>> traces;
  core::RunBreakdown bd;
};

/// A catalog entry: the scenario's name and the seed crash_sweep and
/// determinism_probe run it with.
struct Scenario {
  const char* name;
  std::uint64_t seed;
};

inline constexpr Scenario kScenarios[] = {
    {"chaos-qr", 11},        {"integrity-qr", 21},  {"thrash-governed", 31},
    {"tenant-overload", 41}, {"whatif-forked", 61},
};

/// Builds scenario `name` into a fresh world. `armDaemons` = true for fresh
/// runs (startDaemons below); restored worlds pass false and arm everything
/// through restore() instead. Unknown names throw InvalidArgument.
void build(World& w, std::string_view name, std::uint64_t seed,
           bool armDaemons);

/// The snapshot images of one run, each with its simulation time, and
/// whether the run completed.
struct Recording {
  struct Image {
    double simTime = 0.0;
    std::vector<std::uint8_t> bytes;
  };
  std::vector<Image> images;
  bool completed = false;
};

inline constexpr std::size_t kNoKill = std::numeric_limits<std::size_t>::max();

/// Runs scenario `sc` fresh under the catalog's snapshot cadence (one image
/// at t = 0, then one every 90 s) and keeps every image. With `kill` set,
/// the control plane dies right after capture number `kill` (0-based) and
/// keeps only that image, the one a crash leaves: the sink stops the engine,
/// and every object — frames included — is destroyed with the World.
/// Capture 0 is taken before the engine runs, and Engine::run clears a
/// pending stop, so a kill there means the world is never run.
Recording record(const Scenario& sc, std::size_t kill = kNoKill);

/// Folds every popped event's (time, key, daemon) into `ds`. A nonzero `cap`
/// also stops the engine at the cap-th pop (the what-if sandbox's event
/// budget); `tripped` records that it did.
struct PopObserver {
  util::DigestStream ds;
  sim::Engine* eng = nullptr;
  std::uint64_t cap = 0;
  std::uint64_t seen = 0;
  bool tripped = false;

  void attach(sim::Engine& e) {
    eng = &e;
    e.setPopObserver(&PopObserver::observe, this);
  }

  static void observe(void* ctx, sim::Time t, std::uint64_t key, bool daemon) {
    auto* o = static_cast<PopObserver*>(ctx);
    o->ds.put(t);
    o->ds.put(key);
    o->ds.put(static_cast<std::uint64_t>(daemon));
    ++o->seen;
    if (o->cap != 0 && o->seen >= o->cap && !o->tripped) {
      o->tripped = true;
      o->eng->stop();
    }
  }
};

/// Square wave: `weight` competitors during every second half-period,
/// starting with the half-period beginning at `firstOnset`.
inline grid::LoadTrace squareWave(double firstOnset, double period,
                                  double weight, int cycles) {
  std::vector<grid::LoadPhase> phases;
  for (int c = 0; c < cycles; ++c) {
    const double on = firstOnset + 2.0 * period * c;
    phases.push_back({on, weight});
    phases.push_back({on + period, 0.0});
  }
  return grid::LoadTrace(phases);
}

/// migrate → migrate-back: incarnation i returns to the mapping it held two
/// incarnations ago after having left it.
inline int countOscillations(
    const std::vector<std::vector<grid::NodeId>>& maps) {
  int n = 0;
  for (std::size_t i = 2; i < maps.size(); ++i) {
    if (maps[i] == maps[i - 2] && maps[i] != maps[i - 1]) ++n;
  }
  return n;
}

/// The RunBreakdown half of the outcome fold. It leaves out the whatif*
/// gauges: they are observer bookkeeping on the fork driver, and the what-if
/// campaign's shadow oracle compares a speculating run (gauges > 0) against
/// a driver-less one (gauges = 0) expecting equal digests.
inline void foldBreakdown(util::DigestStream& ds,
                          const core::RunBreakdown& bd) {
  ds.put(bd.totalSeconds);
  for (const int v :
       {bd.incarnations, bd.launchFailures, bd.restoreFailures,
        bd.integrityRejects, bd.scrubRepairs, bd.actionsCommitted,
        bd.actionsRolledBack, bd.violationsSuppressed, bd.daemonRearms,
        bd.admissionRetries, bd.admissionSheds, bd.preemptParks,
        bd.brownoutDeferrals}) {
    ds.put(static_cast<std::uint64_t>(v));
  }
  for (const auto& mapping : bd.mappings) {
    for (const auto node : mapping) ds.put(static_cast<std::uint64_t>(node));
  }
}

/// The outcome fold of a finished run: breakdown, chaos totals, frontend
/// ledgers.
inline void foldOutcome(util::DigestStream& ds, const World& w) {
  foldBreakdown(ds, w.bd);
  if (w.chaos) ds.put(static_cast<std::uint64_t>(w.chaos->counters().total()));
  if (w.meta) w.meta->foldDigest(ds);
}

/// Registers every Snapshottable component with the manager's registry (the
/// manager registered itself at construction). Registration order is
/// capture/restore order — identical across all arms. Templated so the
/// what-if builder can fill any World-shaped struct.
template <typename W>
void registerComponents(W& w) {
  auto& reg = w.mgr->snapshots();
  reg.add(w.g);
  reg.add(*w.gis);
  reg.add(*w.nws);
  reg.add(*w.ibp);
  reg.add(*w.autopilot);
  if (w.journal) reg.add(*w.journal);
  if (w.governor) reg.add(*w.governor);
  if (w.meta) reg.add(*w.meta);
  if (w.fork) reg.add(*w.fork);
}

/// Fresh-run daemons: NWS sampler started, load traces applied from t=0,
/// chaos campaign armed.
template <typename W>
void startDaemons(W& w) {
  w.nws->start();
  for (const auto& [node, trace] : w.traces) {
    grid::applyLoadTrace(w.eng, w.g.node(node), trace);
  }
  if (w.chaos) w.chaos->armAll(w.schedule);
}

/// Installs the software the QR app binds to on every node.
inline void installQrSoftware(services::Gis& gis) {
  gis.installEverywhere(services::software::kLocalBinder);
  gis.installEverywhere(services::software::kScalapack);
  gis.installEverywhere(services::software::kSrsLibrary);
  gis.installEverywhere(services::software::kAutopilotSensors);
}

/// The flapping-load testbed's nodes, WAN link and checkpoint depots.
struct FlapTestbed {
  std::vector<grid::NodeId> eastNodes;
  std::vector<grid::NodeId> westNodes;
  grid::LinkId wan = grid::kNoId;
  grid::NodeId stableDepot = grid::kNoId;
  grid::NodeId replicaDepot = grid::kNoId;
};

/// The flapping-load world of thrash-governed and the what-if scenario: QR
/// (N = 6000) on two identical 4-node clusters over a WAN fat enough that
/// migrating is profitable every time an antiphase square-wave load flips
/// clusters (every 90 s), under a journaled rescheduler and a governor with
/// quorum and hysteresis. Its two callers differ in the governor's
/// `cooldownSec` and the QR checkpoint cadence (`checkpointEveryPanels`,
/// 0 = none). No component is registered yet: callers add their own parts
/// first. Templated like registerComponents.
template <typename W>
FlapTestbed buildFlapWorld(W& w, std::uint64_t seed, double cooldownSec,
                           std::size_t checkpointEveryPanels) {
  constexpr double kMB = 1024.0 * 1024.0;
  FlapTestbed tb;
  const auto east = w.g.addCluster(
      grid::ClusterSpec{"east", "East", grid::fastEthernetLan("east.lan", 4)});
  const auto west = w.g.addCluster(
      grid::ClusterSpec{"west", "West", grid::fastEthernetLan("west.lan", 4)});
  for (int i = 0; i < 4; ++i) {
    tb.eastNodes.push_back(w.g.addNode(east, grid::utkQrNodeSpec(i)));
    tb.westNodes.push_back(w.g.addNode(west, grid::utkQrNodeSpec(i + 4)));
  }
  tb.wan = w.g.connectClusters(
      east, west, grid::internetWan("east-west.wan", 0.005, 12.0 * kMB));
  // Checkpoints live on the remote cluster's last node (plus a replica on
  // the local one), so a depot outage threatens whichever side the app
  // runs on.
  tb.stableDepot = tb.westNodes[3];
  tb.replicaDepot = tb.eastNodes[3];

  w.gis.emplace(w.g);
  installQrSoftware(*w.gis);
  w.nws.emplace(w.eng, w.g, 10.0, 0.02, seed);
  w.ibp.emplace(w.g);
  w.autopilot.emplace(w.eng);
  w.injector.emplace(w.eng, *w.gis);
  w.chaos.emplace(w.eng, w.g, *w.injector, &*w.nws, &*w.ibp);

  // The app starts on east (both idle, first cluster wins the tie); 90 s
  // later east gets loaded while west idles, then the load flips every 90 s.
  const double period = 90.0;
  const double weight = 3.0;
  for (const auto n : tb.eastNodes) {
    w.traces.emplace_back(n, squareWave(period, period, weight, 10));
  }
  for (const auto n : tb.westNodes) {
    w.traces.emplace_back(n, squareWave(2.0 * period, period, weight, 10));
  }

  apps::QrConfig qr;
  qr.n = 6000;
  qr.checkpointEveryPanels = checkpointEveryPanels;
  w.cop = apps::makeQrCop(w.g, qr);

  w.journal.emplace(w.eng);
  reschedule::ReschedulerOptions ropts;
  ropts.worstCaseMigrationSec = 40.0;  // close to the actual cost here
  w.rescheduler.emplace(*w.gis, &*w.nws, ropts);
  w.rescheduler->setJournal(&*w.journal);

  reschedule::GovernorOptions gopts;
  gopts.quorumK = 2;
  gopts.quorumN = 4;
  gopts.hysteresisBand = 0.1;
  gopts.cooldownSec = cooldownSec;
  gopts.maxConcurrentActions = 1;
  w.governor.emplace(w.eng, *w.journal, gopts);

  w.mgr.emplace(w.g, *w.gis, &*w.nws, *w.ibp, *w.autopilot);
  w.mopts.journal = &*w.journal;
  w.mopts.governor = &*w.governor;
  w.mopts.retrySeed = seed;
  return tb;
}

/// Launches the scenario's application(s): fresh start or restore relaunch.
/// The metascheduler owns all app spawning in the tenant scenario.
inline void spawnApps(World& w, bool restored) {
  if (w.meta) {
    if (restored) {
      w.meta->resumeAfterRestore();
    } else {
      w.meta->start();
    }
    return;
  }
  if (w.mgr->isCompleted(w.cop.name)) return;
  reschedule::StopRestartRescheduler* rs =
      w.rescheduler ? &*w.rescheduler : nullptr;
  w.eng.spawn(w.mgr->run(w.cop, rs, w.mopts, &w.bd), w.cop.name);
}

/// The first step of every restore, on a world built with armDaemons =
/// false: parse the image, run the fresh engine's clock to the image time
/// and decode every component. Returns the image time. Nothing is recovered
/// or re-armed yet.
inline double decode(
    World& w, const std::vector<std::uint8_t>& bytes,
    core::AppManager::RestoreKind kind = core::AppManager::RestoreKind::kLive) {
  const core::SnapshotImage img = core::SnapshotImage::parse(bytes);
  w.eng.runUntil(img.simTime);
  w.mgr->restoreFrom(img, kind);
  return img.simTime;
}

/// The last step: re-arm chaos and load from the world's schedule and
/// traces, skipping anything before `t`, start NWS, and relaunch the apps.
/// The caller runs the engine.
inline void resume(World& w, double t) {
  if (w.chaos) w.chaos->armFrom(w.schedule, t);
  for (const auto& [node, trace] : w.traces) {
    grid::applyLoadTraceFrom(w.eng, w.g.node(node), trace, t);
  }
  w.nws->start();
  spawnApps(w, /*restored=*/true);
}

/// The restore sequence: decode, journal recovery (presumed abort), resume.
/// The what-if fork (runWhatifFork) runs the same steps and opens its
/// pinned record and perturbation between recovery and resume.
inline void restore(World& w, const std::vector<std::uint8_t>& bytes) {
  const double t = decode(w, bytes);
  if (w.journal) w.journal->recover("control-plane restart");
  resume(w, t);
}

/// The single app finished, or (tenant) the frontend drained with no failed
/// runs.
inline bool scenarioCompleted(const World& w) {
  if (w.meta) return w.meta->drained() && w.meta->totals().failed == 0;
  return w.mgr->isCompleted(w.cop.name);
}

/// One Figure-3 run: the breakdown and every decision the rescheduler made.
struct QrMigrationRun {
  core::RunBreakdown breakdown;
  std::vector<reschedule::MigrationDecision> decisions;

  /// The run stopped, migrated and restarted at least once.
  bool migrated() const { return breakdown.incarnations > 1; }
};

/// Figure 3 (§4.1): QR of order `n` starts on the QR testbed's faster UTK
/// cluster; from t = 300 s, 2.65 competing processes load utk0. The contract
/// monitor reports the violation, and the stop/migrate/restart rescheduler,
/// in `mode`, weighs moving to UIUC against a pessimistic 900 s worst-case
/// migration cost.
QrMigrationRun runQrMigration(std::size_t n, reschedule::ReschedulerMode mode);

/// One Figure-4 run.
struct SwapExperimentRun {
  apps::NBodyProgress progress;  ///< (time, iteration) per iteration done
  std::vector<reschedule::SwapManager::SwapEvent> swaps;
  std::vector<grid::ClusterId> finalClusters;  ///< per rank, after the run
  double finishedAt = 0.0;                     ///< engine time at the end
  std::uint64_t processedEvents = 0;
};

/// Figure 4 (§4.2): the §4.2.2 virtual grid, instantiated from its DML
/// description through the MicroGrid emulation layer (`emulated`) or
/// directly. A 10,000-particle, 100-iteration N-body run starts its three
/// ranks on UTK, with the UIUC nodes as the inactive pool; from t = 80 s two
/// competing processes load utk0, and the swap manager, under `policy`,
/// moves ranks off the slow node. NWS samples every 10 s with 0.01 noise
/// (seed 7); the model counts 4 messages per iteration.
SwapExperimentRun runSwapExperiment(reschedule::SwapPolicy policy,
                                    bool emulated);

/// One mid-action kill: the campaign's outcome, plus the breakdown and the
/// journal's records.
struct MidActionKillRun {
  bool completed = false;
  bool killed = false;  ///< the kill armed inside the action's window
  int committed = 0;
  int rolledBack = 0;
  int openAtEnd = 0;  ///< journal records left unresolved
  double seconds = 0.0;
  std::string error;  ///< why a run that did not complete stopped
  core::RunBreakdown bd;
  std::vector<reschedule::ActionRecord> records;
};

/// thrash_campaign's mid-action fault: the Figure-3 world at N = 9000 with a
/// journaled default rescheduler. The moment the migration opens its journal
/// record, one node of its target (`killTarget`) or of its prior mapping
/// fails 1-7 s later (by `seed`) — between prepare and commit — behind a
/// 120 s stale-GIS window. The run must complete through a rollback.
MidActionKillRun runMidActionKill(std::uint64_t seed, bool killTarget);

}  // namespace grads::bench
