// Shared what-if scenario world + sandbox fork harness.
//
// One scenario, built by one function, shared by whatif_campaign, the
// scenario catalog's whatif-forked entry, and the unit tests: the
// two-cluster antiphase flapping-load testbed of thrash-governed, but with a
// governor cooldown deliberately *weaker* than the load's flip period —
// model-only, the control plane thrashes (migrate, migrate back, pay the
// checkpoint-restore toll each way), which is exactly the harm the what-if
// fork driver exists to avoid committing.
//
// The sandbox harness (runWhatifFork) is the SandboxRunner the ForkDriver
// is armed with: a fork is a whole second control plane — engine, grid,
// services, manager — restored from the parent's snapshot image with
// RestoreKind::kSandbox, with the candidate action injected through the
// journal prepare path as a *pinned* record before the app relaunches. The
// fork then runs the ordinary restore protocol for `horizonSec` of virtual
// time under an optional pessimistic perturbation, and the realized outcome
// (violation recurrences, migrate-backs, progress, checkpoint spend) is
// read off the same counters the live control plane keeps. Every candidate
// — including suppress — pays identical injection mechanics (restore from
// the last checkpoint onto the pinned mapping), so the comparison is fair;
// suppress is thereby scored slightly pessimistically (the live suppress
// never restarts), which only biases the driver toward conservatism.
//
// Header-only, like everything it calls in scenarios.hpp.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apps/qr.hpp"
#include "core/app_manager.hpp"
#include "core/snapshot.hpp"
#include "grid/load.hpp"
#include "grid/testbeds.hpp"
#include "reschedule/chaos.hpp"
#include "reschedule/governor.hpp"
#include "reschedule/journal.hpp"
#include "reschedule/rescheduler.hpp"
#include "reschedule/whatif/fork_driver.hpp"
#include "scenarios.hpp"
#include "services/gis.hpp"
#include "sim/engine.hpp"

namespace grads::bench {

struct WhatifConfig {
  std::uint64_t seed = 31;
  /// Antiphase square-wave load: `weight` competitors for `period` seconds,
  /// alternating clusters, `loadCycles` times.
  double loadPeriodSec = 90.0;
  double loadWeight = 3.0;
  int loadCycles = 10;
  double nwsNoiseFrac = 0.02;
  /// Deliberately weaker than the load's flip period (thrash_campaign's
  /// governed arm uses 600 s): the cooldown lapses before the load flips
  /// back, so the model-only arm re-migrates every cycle and realizes the
  /// oscillation harm the fork driver's speculation is meant to veto.
  double cooldownSec = 60.0;
  /// Parent chaos campaign (the "chaos-perturbed scenarios" of the
  /// acceptance bar): seeded link degrades on the WAN and/or outages of the
  /// stable depot, on top of the flapping load.
  int linkDegrades = 0;
  int depotOutages = 0;
  /// Attach the fork driver to the rescheduler/governor and arm it with the
  /// sandbox runner. False = model-only control plane; the driver is still
  /// constructed and registered so every arm's snapshot carries the same
  /// sections (SnapshotRegistry restore is all-or-nothing).
  bool withDriver = false;
  reschedule::whatif::DriverOptions driver;
};

/// Node/link identities the fork harness needs to aim perturbations at.
struct WhatifTestbed {
  std::vector<grid::NodeId> eastNodes;
  std::vector<grid::NodeId> westNodes;
  grid::LinkId wan = grid::kNoId;
  grid::NodeId stableDepot = grid::kNoId;
  grid::NodeId replicaDepot = grid::kNoId;
};

inline reschedule::whatif::ForkOutcome runWhatifFork(
    const WhatifConfig& parentConfig,
    const reschedule::whatif::ForkRequest& rq);

/// bench::squareWave under the name perfbench/worlds.cpp calls.
inline grid::LoadTrace whatifSquareWave(double firstOnset, double period,
                                        double weight, int cycles) {
  return squareWave(firstOnset, period, weight, cycles);
}

/// Builds the scenario into any World-shaped struct (W needs the member set
/// of bench::World). `armDaemons` as in bench::build: true for fresh runs,
/// false for arms that arm everything through the restore protocol.
template <typename W>
inline WhatifTestbed buildWhatifWorld(W& w, const WhatifConfig& cfg,
                                      bool armDaemons) {
  constexpr double kMB = 1024.0 * 1024.0;
  WhatifTestbed tb;
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
  // runs on — the depot-outage perturbation has real teeth.
  tb.stableDepot = tb.westNodes[3];
  tb.replicaDepot = tb.eastNodes[3];

  w.gis.emplace(w.g);
  w.gis->installEverywhere(services::software::kLocalBinder);
  w.gis->installEverywhere(services::software::kScalapack);
  w.gis->installEverywhere(services::software::kSrsLibrary);
  w.gis->installEverywhere(services::software::kAutopilotSensors);
  w.nws.emplace(w.eng, w.g, 10.0, cfg.nwsNoiseFrac, cfg.seed);
  w.ibp.emplace(w.g);
  w.autopilot.emplace(w.eng);
  w.injector.emplace(w.eng, *w.gis);
  w.chaos.emplace(w.eng, w.g, *w.injector, &*w.nws, &*w.ibp);

  for (const auto n : tb.eastNodes) {
    w.traces.emplace_back(n, squareWave(cfg.loadPeriodSec, cfg.loadPeriodSec,
                                        cfg.loadWeight, cfg.loadCycles));
  }
  for (const auto n : tb.westNodes) {
    w.traces.emplace_back(n, squareWave(2.0 * cfg.loadPeriodSec,
                                        cfg.loadPeriodSec, cfg.loadWeight,
                                        cfg.loadCycles));
  }

  reschedule::CampaignConfig cc;
  cc.seed = cfg.seed * 1000003ULL + 7;
  cc.horizonSec = 1500.0;
  cc.linkDegrades = cfg.linkDegrades;
  cc.degradeScale = 0.3;
  cc.degradeDurationSec = 200.0;
  cc.candidateLinks = {tb.wan};
  cc.depotOutages = cfg.depotOutages;
  cc.depotOutageSec = 180.0;
  cc.candidateDepots = {tb.stableDepot};
  w.schedule = reschedule::makeCampaign(cc);

  apps::QrConfig qr;
  qr.n = 6000;
  qr.checkpointEveryPanels = 8;
  w.cop = apps::makeQrCop(w.g, qr);

  w.journal.emplace(w.eng);
  reschedule::ReschedulerOptions ropts;
  ropts.worstCaseMigrationSec = 40.0;
  w.rescheduler.emplace(*w.gis, &*w.nws, ropts);
  w.rescheduler->setJournal(&*w.journal);

  reschedule::GovernorOptions gopts;
  gopts.quorumK = 2;
  gopts.quorumN = 4;
  gopts.hysteresisBand = 0.1;
  gopts.cooldownSec = cfg.cooldownSec;
  gopts.maxConcurrentActions = 1;
  w.governor.emplace(w.eng, *w.journal, gopts);

  w.fork.emplace(w.eng, cfg.driver);

  w.mgr.emplace(w.g, *w.gis, &*w.nws, *w.ibp, *w.autopilot);
  w.mopts.journal = &*w.journal;
  w.mopts.governor = &*w.governor;
  w.mopts.retrySeed = cfg.seed;
  w.mopts.stableDepot = tb.stableDepot;
  w.mopts.replicaDepot = tb.replicaDepot;
  w.mopts.failures = &*w.injector;
  w.mopts.depotRetry.maxAttempts = 3;
  w.mopts.depotRetry.baseDelaySec = 20.0;

  registerComponents(w);

  if (cfg.withDriver) {
    w.rescheduler->setForkDriver(&*w.fork);
    w.governor->setCooldownExtra([drv = &*w.fork](const std::string& app) {
      return drv->cooldownExtraFor(app);
    });
    w.fork->setSnapshotSource(
        [mgr = &*w.mgr] { return mgr->snapshotNow().serialize(); });
    w.fork->setRunner([cfg](const reschedule::whatif::ForkRequest& rq) {
      return runWhatifFork(cfg, rq);
    });
  }

  if (armDaemons) startDaemons(w);
  return tb;
}

/// The SandboxRunner: one fork = restore + pinned injection + perturbation
/// + bounded horizon. Self-contained and deterministic in (image bytes,
/// candidate, perturbation) — the fork-determinism oracle hashes exactly
/// this function's pop stream.
inline reschedule::whatif::ForkOutcome runWhatifFork(
    const WhatifConfig& parentConfig,
    const reschedule::whatif::ForkRequest& rq) {
  using reschedule::whatif::CandidateKind;
  using reschedule::whatif::PerturbationKind;
  reschedule::whatif::ForkOutcome out;

  WhatifConfig cfg = parentConfig;
  cfg.withDriver = false;  // forks never recurse into speculation
  World w;
  const WhatifTestbed tb = buildWhatifWorld(w, cfg, /*armDaemons=*/false);

  PopObserver obs;
  obs.cap = rq.maxEvents;
  obs.attach(w.eng);

  int baseGoverned = 0;
  bool restoredOk = false;
  try {
    const core::SnapshotImage img = core::SnapshotImage::parse(*rq.image);
    w.eng.runUntil(img.simTime);
    w.mgr->restoreFrom(img, core::AppManager::RestoreKind::kSandbox);
    w.journal->recover("whatif fork");
    // Inject the candidate through the journal prepare path: a pinned
    // record whose target the relaunch honors verbatim. Suppress pins the
    // *current* mapping — without the pin the relaunch would re-run the
    // mapper and could freely migrate, and "suppress" would mean nothing.
    const std::vector<grid::NodeId>& pin =
        (rq.candidate.kind == CandidateKind::kSuppress ||
         rq.candidate.target.empty())
            ? rq.current
            : rq.candidate.target;
    w.journal->open(rq.app, reschedule::ActionKind::kMigrate, rq.current, pin,
                    /*pinned=*/true,
                    "whatif fork: " + rq.candidate.label);

    // Pessimistic perturbation, injected shortly after the fork point.
    std::vector<reschedule::ChaosEvent> schedule = w.schedule;
    switch (rq.perturbation.kind) {
      case PerturbationKind::kNone:
        break;
      case PerturbationKind::kTargetSlowdown:
        // Competitor load lands on the nodes this candidate bets on.
        for (const auto n : pin) {
          w.traces.emplace_back(
              n, grid::LoadTrace::stepAt(img.simTime + 5.0,
                                         rq.perturbation.severity));
        }
        break;
      case PerturbationKind::kLinkDegrade: {
        reschedule::ChaosEvent ev;
        ev.kind = reschedule::ChaosKind::kLinkDegrade;
        ev.atSec = img.simTime + 5.0;
        ev.durationSec = rq.horizonSec;
        ev.link = tb.wan;
        ev.bandwidthScale = rq.perturbation.severity;
        schedule.push_back(ev);
        break;
      }
      case PerturbationKind::kDepotOutage: {
        // Both depots dark: the replica must not quietly absorb the fault.
        for (const auto depot : {tb.stableDepot, tb.replicaDepot}) {
          reschedule::ChaosEvent ev;
          ev.kind = reschedule::ChaosKind::kDepotOutage;
          ev.atSec = img.simTime + 5.0;
          ev.durationSec = rq.perturbation.severity;
          ev.node = depot;
          schedule.push_back(ev);
        }
        break;
      }
    }

    // The rest of bench::restore's sequence, with the perturbed schedule.
    w.chaos->armFrom(schedule, img.simTime);
    for (const auto& [node, trace] : w.traces) {
      grid::applyLoadTraceFrom(w.eng, w.g.node(node), trace, img.simTime);
    }
    w.nws->start();

    baseGoverned =
        w.governor->stats().admitted + w.governor->stats().suppressed();
    restoredOk = true;
    spawnApps(w, /*restored=*/true);
    w.eng.runUntil(img.simTime + rq.horizonSec);
  } catch (const std::exception&) {
    // A sandbox that dies is a realized worst case, not a harness error:
    // score it as aborted and let abortPenalty bury the candidate.
    out.aborted = true;
  }

  out.aborted = out.aborted || obs.tripped;
  out.events = obs.seen;
  out.completed = !out.aborted && w.mgr->isCompleted(rq.app);
  out.makespanSec = out.completed ? w.bd.totalSeconds : rq.horizonSec;
  out.progressSec = w.bd.sumSegment(w.bd.appDuration);
  out.checkpointCostSec = w.bd.sumSegment(w.bd.checkpointWrite) +
                          w.bd.sumSegment(w.bd.checkpointRead);
  if (restoredOk) {
    out.violationRecurrences = w.governor->stats().admitted +
                               w.governor->stats().suppressed() - baseGoverned;
  }
  std::vector<std::vector<grid::NodeId>> maps;
  maps.push_back(rq.current);
  maps.insert(maps.end(), w.bd.mappings.begin(), w.bd.mappings.end());
  out.migrateBacks = countOscillations(maps);
  foldOutcome(obs.ds, w);
  out.forkDigest = obs.ds.digest();
  return out;
}

/// One full scenario run under the replay-digest oracle — the campaign's
/// unit of comparison across the model-only / forked / shadow arms.
struct WhatifRunResult {
  bool completed = false;
  std::uint64_t digest = 0;
  core::RunBreakdown bd;
  std::vector<reschedule::ActionRecord> journal;
  reschedule::ViolationGovernor::Stats governor;
  reschedule::whatif::DriverStats driver;
  int oscillations = 0;
};

inline WhatifRunResult runWhatifScenario(const WhatifConfig& cfg) {
  World w;
  buildWhatifWorld(w, cfg, /*armDaemons=*/true);
  PopObserver obs;
  obs.attach(w.eng);
  spawnApps(w, /*restored=*/false);
  w.eng.run();
  w.eng.rethrowIfFailed();

  WhatifRunResult res;
  res.completed = scenarioCompleted(w);
  res.bd = w.bd;
  res.journal = w.journal->records();
  res.governor = w.governor->stats();
  res.driver = w.fork->stats();
  res.oscillations = countOscillations(w.bd.mappings);
  foldOutcome(obs.ds, w);
  res.digest = obs.ds.digest();
  return res;
}

/// Harmful committed action (the acceptance metric): a committed migrate
/// after which the app needed *another* action within `horizonSec` — i.e.
/// the violation recurred — or whose successor committed straight back to
/// the mapping it left (migrate-back). Counted identically for every arm.
inline int countHarmfulCommits(
    const std::vector<reschedule::ActionRecord>& records, double horizonSec) {
  int harmful = 0;
  for (const auto& r : records) {
    if (r.state != reschedule::ActionState::kCommitted) continue;
    if (r.resolvedAt < 0.0) continue;
    bool bad = false;
    for (const auto& s : records) {
      if (s.id == r.id || s.app != r.app) continue;
      if (s.openedAt > r.resolvedAt &&
          s.openedAt <= r.resolvedAt + horizonSec) {
        bad = true;  // violation recurred: another action within the horizon
        if (s.state == reschedule::ActionState::kCommitted &&
            s.target == r.prior) {
          break;  // and it was a straight migrate-back
        }
      }
    }
    if (bad) ++harmful;
  }
  return harmful;
}

}  // namespace grads::bench
