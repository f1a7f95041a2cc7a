// The five crash-restart scenarios: chaos-qr, integrity-qr,
// thrash-governed, a small tenant-overload and whatif-forked, configured as
// in bench/crash_sweep.cpp, with every seed supplied by the caller.
// whatif-forked is built by the what-if world shared with bench/
// (bench/whatif_world.hpp); the other four builders live in crash_sweep's
// main file, so they are copied here onto the library's public API.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/app_manager.hpp"
#include "grid/grid.hpp"
#include "grid/load.hpp"
#include "metasched/frontend.hpp"
#include "reschedule/chaos.hpp"
#include "reschedule/failure.hpp"
#include "reschedule/governor.hpp"
#include "reschedule/journal.hpp"
#include "reschedule/rescheduler.hpp"
#include "reschedule/whatif/fork_driver.hpp"
#include "services/gis.hpp"
#include "services/ibp.hpp"
#include "services/nws.hpp"
#include "sim/engine.hpp"
#include "util/hash.hpp"

#include "probe.hpp"

namespace perfbench {

/// One whole control plane. The engine is declared first so it is destroyed
/// last: killing a World mid-run destroys coroutine frames inside ~Engine,
/// and their destructors must see a live engine.
struct World {
  grads::sim::Engine eng;
  grads::grid::Grid g{eng};
  std::optional<grads::services::Gis> gis;
  std::optional<grads::services::Nws> nws;
  std::optional<grads::services::Ibp> ibp;
  std::optional<grads::autopilot::AutopilotManager> autopilot;
  std::optional<grads::reschedule::FailureInjector> injector;
  std::optional<grads::reschedule::ChaosDriver> chaos;
  std::optional<grads::reschedule::ActionJournal> journal;
  std::optional<grads::reschedule::ViolationGovernor> governor;
  std::optional<grads::reschedule::StopRestartRescheduler> rescheduler;
  std::optional<grads::reschedule::whatif::ForkDriver> fork;
  std::optional<grads::core::AppManager> mgr;
  std::optional<grads::metasched::MetaScheduler> meta;
  grads::core::Cop cop;
  grads::core::ManagerOptions mopts;
  std::vector<grads::reschedule::ChaosEvent> schedule;
  std::vector<std::pair<grads::grid::NodeId, grads::grid::LoadTrace>> traces;
  grads::core::RunBreakdown bd;
};

enum class ScenarioKind { kChaos, kIntegrity, kThrash, kTenant, kWhatif };
inline constexpr int kScenarioCount = 5;

const char* scenarioName(ScenarioKind kind);

/// Builds a scenario into a fresh world. `armDaemons` = true for fresh runs
/// (NWS sampler started, chaos campaign armed, load traces applied from
/// t=0); restored worlds pass false and arm through the restore protocol.
/// The probe times and counts the what-if sandbox runs.
void buildScenario(World& w, ScenarioKind kind, std::uint64_t seed,
                   bool armDaemons, Probe& probe);

/// Launches the scenario's application(s): fresh start or restore relaunch.
void spawnApps(World& w, bool restored);

/// The app finished, or (tenant) the frontend drained with no failed runs.
bool scenarioCompleted(const World& w);

/// Restore protocol after decode: journal recovery (presumed abort), chaos
/// and load re-armed from the original schedules, NWS restarted.
void rearmAfterRestore(World& w, double simTime);

/// Folds the checked outcome of a finished run: completion, final sim time,
/// events fired, RunBreakdown counters and mappings, chaos totals, frontend
/// digest. Engine pop keys are deliberately left out, so a pool-slot
/// renumbering that changes no behaviour changes no digest.
void foldOutcome(grads::util::DigestStream& ds, const World& w);

/// Reads the engine, flow and NWS counters of a world at the end of its
/// life (killed, finished or sandboxed).
void noteWorld(Counters& c, const World& w);
/// Reads the journal, what-if driver and frontend counters of a world that
/// ran to completion.
void noteFinished(Counters& c, const World& w);

}  // namespace perfbench
