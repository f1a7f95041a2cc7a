// Thrash campaign — transactional rescheduling under flapping load and
// mid-action faults.
//
// Part A (anti-thrash): a QR factorization runs on a symmetric two-cluster
// testbed while an antiphase square-wave background load alternates between
// the clusters — whichever cluster hosts the application becomes the loaded
// one a half-period later. Ungoverned, the contract monitor confirms a
// violation every half-period and the rescheduler chases the load: migrate,
// migrate back, migrate again, paying the full checkpoint-restore cost each
// way. Governed (quorum + hysteresis + cooldown + concurrency cap), the
// same signals produce at most the first migration and zero oscillations.
//
// Part B (transactional rollback): the classic Figure-3 scenario (load
// lands, rescheduler migrates), except a node is killed between the
// action's prepare (journal open) and its commit point (all ranks restored
// on the target). Every campaign must complete via rollback: the journal
// ends with no open records and the application resumes on its prior
// mapping before retrying.
//
// Usage: thrash_campaign [seeds]   (default 3; CI smoke passes 1)

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "apps/qr.hpp"
#include "bench_cli.hpp"
#include "bench_paths.hpp"
#include "core/app_manager.hpp"
#include "grid/load.hpp"
#include "grid/testbeds.hpp"
#include "reschedule/failure.hpp"
#include "reschedule/journal.hpp"
#include "reschedule/rescheduler.hpp"
#include "scenarios.hpp"
#include "services/gis.hpp"
#include "services/ibp.hpp"
#include "services/nws.hpp"
#include "util/table.hpp"

using namespace grads;

namespace {

// ---------------------------------------------------------------------------
// Part A: the catalog's thrash-governed world (antiphase flapping load on a
// symmetric two-cluster testbed); the raw arm leaves the governor unwired.
// ---------------------------------------------------------------------------

struct ThrashOutcome {
  bool completed = false;
  int migrations = 0;
  int oscillations = 0;
  int suppressed = 0;
  int committed = 0;
  int rolledBack = 0;
  double seconds = 0.0;
};

ThrashOutcome runThrash(std::uint64_t seed, bool governed) {
  bench::World w;
  bench::build(w, "thrash-governed", seed, /*armDaemons=*/true);
  if (!governed) w.mopts.governor = nullptr;
  bench::spawnApps(w, /*restored=*/false);
  const core::RunBreakdown& bd = w.bd;
  ThrashOutcome out;
  try {
    w.eng.run();
    w.eng.rethrowIfFailed();
    out.completed = bd.totalSeconds > 0.0;
    out.seconds = bd.totalSeconds;
  } catch (const std::exception& e) {
    std::cout << "  [thrash seed " << seed << "] lost: " << e.what() << "\n";
    out.seconds = w.eng.now();
  }
  out.migrations = bd.incarnations > 0 ? bd.incarnations - 1 : 0;
  out.oscillations = bench::countOscillations(bd.mappings);
  out.suppressed = bd.violationsSuppressed;
  out.committed = bd.actionsCommitted;
  out.rolledBack = bd.actionsRolledBack;
  return out;
}

// ---------------------------------------------------------------------------
// Part B: mid-action faults must resolve through rollback.
// ---------------------------------------------------------------------------

struct FaultOutcome {
  bool completed = false;
  bool killed = false;
  int committed = 0;
  int rolledBack = 0;
  int openAtEnd = 0;
  double seconds = 0.0;
  std::string error;
};

FaultOutcome runMidActionFault(std::uint64_t seed, bool killTarget) {
  sim::Engine eng;
  grid::Grid g(eng);
  const auto tb = grid::buildQrTestbed(g);
  services::Gis gis(g);
  gis.installEverywhere(services::software::kLocalBinder);
  gis.installEverywhere(services::software::kScalapack);
  gis.installEverywhere(services::software::kSrsLibrary);
  gis.installEverywhere(services::software::kAutopilotSensors);
  services::Nws nws(eng, g, 10.0, 0.0, seed);
  nws.start();
  services::Ibp ibp(g);
  autopilot::AutopilotManager autopilot(eng);
  reschedule::FailureInjector injector(eng, gis);

  // Figure-3 setup: load lands on one UTK node at t=300 and the default
  // rescheduler migrates the app to UIUC.
  grid::applyLoadTrace(eng, g.node(tb.utkNodes[0]),
                       grid::LoadTrace::stepAt(300.0, 2.65));

  apps::QrConfig cfg;
  cfg.n = 9000;
  cfg.checkpointEveryPanels = 8;
  const core::Cop cop = apps::makeQrCop(g, cfg);

  reschedule::ActionJournal journal(eng);
  reschedule::StopRestartRescheduler rescheduler(gis, &nws,
                                                 reschedule::ReschedulerOptions{});
  rescheduler.setJournal(&journal);

  core::AppManager mgr(g, gis, &nws, ibp, autopilot);
  core::ManagerOptions mopts;
  mopts.journal = &journal;
  mopts.failures = &injector;
  mopts.retrySeed = seed;
  mopts.launchRetry.maxAttempts = 5;
  mopts.launchRetry.baseDelaySec = 15.0;

  // Watch the journal; the moment an action opens (prepare phase), schedule
  // a fail-stop of one endpoint shortly after — squarely between prepare
  // and commit.
  struct Watch {
    bool armed = false;
    grid::NodeId victim = grid::kNoId;
  };
  auto watch = std::make_shared<Watch>();
  const double killDelay = 1.0 + static_cast<double>(seed % 4) * 2.0;
  auto poll = std::make_shared<std::function<void()>>();
  // A non-owning self pointer: owning itself would leak the callback.
  *poll = [&eng, &journal, &injector, watch, self = poll.get(), killTarget,
           killDelay, appName = cop.name] {
    if (!watch->armed) {
      if (const auto* rec = journal.openAction(appName)) {
        const auto& nodes = killTarget ? rec->target : rec->prior;
        if (!nodes.empty()) {
          watch->armed = true;
          watch->victim = nodes.front();
          // Long stale-GIS window: the relaunch's bind must still see (and
          // hit) the corpse, which is what forces the rollback path.
          eng.scheduleDaemon(killDelay, [&injector, watch] {
            injector.failNow(watch->victim, 2.0, 120.0);
          });
          return;
        }
      }
      eng.scheduleDaemon(1.0, *self);
    }
  };
  eng.scheduleDaemon(1.0, *poll);

  core::RunBreakdown bd;
  eng.spawn(mgr.run(cop, &rescheduler, mopts, &bd), "qr");
  FaultOutcome out;
  try {
    eng.run();
    eng.rethrowIfFailed();
    out.completed = bd.totalSeconds > 0.0;
    out.seconds = bd.totalSeconds;
  } catch (const std::exception& e) {
    out.error = e.what();
    out.seconds = eng.now();
  }
  out.killed = watch->armed;
  out.committed = journal.committed();
  out.rolledBack = journal.rolledBack();
  out.openAtEnd = journal.inFlight();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kUsage = "thrash_campaign [N]";
  grads::bench::CliOptions cli;
  cli.count = 3;
  if (!grads::bench::parseCli(argc, argv, cli, kUsage)) return 2;
  // N counts seeds: at least one, since the determinism check replays the
  // first, and no more than the int loop below can count.
  if (cli.count < 1 || cli.count > std::numeric_limits<int>::max()) {
    std::cerr << "usage: " << kUsage << "\n";
    return 2;
  }
  const int nSeeds = static_cast<int>(cli.count);
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < nSeeds; ++i) seeds.push_back(17 + 10 * i);

  bool ok = true;

  // Determinism: the same seed must reproduce the identical run.
  {
    const ThrashOutcome a = runThrash(seeds[0], false);
    const ThrashOutcome b = runThrash(seeds[0], false);
    if (a.seconds != b.seconds || a.migrations != b.migrations) {
      std::cerr << "NON-DETERMINISTIC campaign: " << a.seconds
                << " != " << b.seconds << "\n";
      return 1;
    }
    std::cout << "determinism check: seed " << seeds[0]
              << " reproduces exactly (t=" << a.seconds << " s, "
              << a.migrations << " migrations)\n\n";
  }

  util::Table thrash({"arm", "seed", "migrations", "oscillations",
                      "suppressed", "committed", "rolled_back", "total_s"});
  for (const auto seed : seeds) {
    for (const bool governed : {false, true}) {
      const ThrashOutcome o = runThrash(seed, governed);
      thrash.addRow({governed ? "governed" : "raw",
                     static_cast<std::int64_t>(seed),
                     static_cast<std::int64_t>(o.migrations),
                     static_cast<std::int64_t>(o.oscillations),
                     static_cast<std::int64_t>(o.suppressed),
                     static_cast<std::int64_t>(o.committed),
                     static_cast<std::int64_t>(o.rolledBack), o.seconds});
      if (!o.completed) {
        std::cout << "VIOLATION: " << (governed ? "governed" : "raw")
                  << " seed " << seed << " did not complete\n";
        ok = false;
      }
      if (governed && o.oscillations != 0) {
        std::cout << "VIOLATION: governed seed " << seed << " oscillated "
                  << o.oscillations << " times (want 0)\n";
        ok = false;
      }
      if (!governed && o.oscillations < 3) {
        std::cout << "VIOLATION: raw seed " << seed << " oscillated only "
                  << o.oscillations << " times (want >= 3: the scenario "
                  << "must actually thrash ungoverned)\n";
        ok = false;
      }
    }
  }
  thrash.print(std::cout,
               "Thrash campaign — antiphase flapping load, governed vs raw "
               "(oscillation = migrate followed by migrate-back)");
  thrash.saveCsv(bench::outputPath("thrash_campaign.csv"));

  util::Table faults({"kill", "seed", "completed", "committed", "rolled_back",
                      "open_at_end", "total_s"});
  std::cout << "\n";
  for (const auto seed : seeds) {
    for (const bool killTarget : {true, false}) {
      const FaultOutcome o = runMidActionFault(seed, killTarget);
      faults.addRow({killTarget ? "target" : "source",
                     static_cast<std::int64_t>(seed),
                     std::string(o.completed ? "yes" : "NO"),
                     static_cast<std::int64_t>(o.committed),
                     static_cast<std::int64_t>(o.rolledBack),
                     static_cast<std::int64_t>(o.openAtEnd), o.seconds});
      if (!o.completed) {
        std::cout << "VIOLATION: mid-action " << (killTarget ? "target" : "source")
                  << "-kill seed " << seed << " lost the run: " << o.error
                  << "\n";
        ok = false;
      }
      if (!o.killed) {
        std::cout << "VIOLATION: seed " << seed
                  << " never armed the mid-action kill\n";
        ok = false;
      }
      if (o.rolledBack < 1) {
        std::cout << "VIOLATION: mid-action " << (killTarget ? "target" : "source")
                  << "-kill seed " << seed << " resolved without a rollback\n";
        ok = false;
      }
      if (o.openAtEnd != 0) {
        std::cout << "VIOLATION: seed " << seed << " stranded " << o.openAtEnd
                  << " open action record(s)\n";
        ok = false;
      }
    }
  }
  faults.print(std::cout,
               "Mid-action faults — a node killed between prepare and "
               "commit; every run must complete via rollback");
  faults.saveCsv(bench::outputPath("thrash_faults.csv"));

  std::cout << "\nExpected shape: the raw arm chases the flapping load "
               "(>=3 migrate/migrate-back oscillations), the governed arm "
               "takes at most the first migration and zero oscillations; "
               "every mid-action fault resolves as a rollback, the journal "
               "ends with no open records, and every run completes.\n";
  return ok ? 0 : 1;
}
