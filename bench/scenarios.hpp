// Scenario catalog — the one place the bench worlds are built.
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
// The pieces the what-if sandbox runner needs — World, the pop-stream
// observer, the outcome fold, the square-wave load, app spawn and daemon
// start — are inline here, so bench/whatif_world.hpp compiles without any
// bench/ source file. The builders and the restore sequence live in
// scenarios.cpp.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apps/nbody.hpp"
#include "core/app_manager.hpp"
#include "grid/grid.hpp"
#include "grid/load.hpp"
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

/// The restore sequence, on a world built with armDaemons = false: parse the
/// image, run the fresh engine's clock to the image time, decode every
/// component, recover the journal (presumed abort), re-arm chaos, load and
/// NWS from the original schedules, and relaunch the apps. The caller runs
/// the engine.
void restore(World& w, const std::vector<std::uint8_t>& bytes);

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
