// Shared what-if scenario world + sandbox fork harness.
//
// One scenario, built by one function, shared by whatif_campaign, the
// scenario catalog's whatif-forked entry, the unit tests and perfbench: the
// catalog's flapping-load world (buildFlapWorld, as in thrash-governed), but
// with a governor cooldown deliberately *weaker* than the load's flip period
// — model-only, the control plane thrashes (migrate, migrate back, pay the
// checkpoint-restore toll each way), which is exactly the harm the what-if
// fork driver exists to avoid committing.
//
// The sandbox harness (runWhatifFork) is the SandboxRunner the ForkDriver
// is armed with: a fork is a whole second control plane — engine, grid,
// services, manager — restored from the parent's snapshot image through the
// catalog's restore steps. It decodes with RestoreKind::kSandbox, recovers
// the journal, injects the candidate action through the journal prepare
// path as a *pinned* record, adds an optional pessimistic perturbation to
// the world's schedule and traces, and only then resumes, for `horizonSec`
// of virtual time. The realized outcome (violation recurrences,
// migrate-backs, progress, checkpoint spend) is read off the same counters
// the live control plane keeps. Every candidate — including suppress — pays
// identical injection mechanics (restore from the last checkpoint onto the
// pinned mapping), so the comparison is fair; suppress is thereby scored
// slightly pessimistically (the live suppress never restarts), which only
// biases the driver toward conservatism.
//
// Header-only, like everything it calls in scenarios.hpp.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/app_manager.hpp"
#include "grid/load.hpp"
#include "reschedule/chaos.hpp"
#include "reschedule/governor.hpp"
#include "reschedule/journal.hpp"
#include "reschedule/rescheduler.hpp"
#include "reschedule/whatif/fork_driver.hpp"
#include "scenarios.hpp"
#include "sim/engine.hpp"

namespace grads::bench {

struct WhatifConfig {
  std::uint64_t seed = 31;
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
inline FlapTestbed buildWhatifWorld(W& w, const WhatifConfig& cfg,
                                    bool armDaemons) {
  // A 60 s cooldown is deliberately weaker than the load's flip period
  // (thrash-governed uses 600 s): it lapses before the load flips back, so
  // the model-only arm re-migrates every cycle and realizes the oscillation
  // harm the fork driver's speculation is meant to veto.
  const FlapTestbed tb = buildFlapWorld(w, cfg.seed, /*cooldownSec=*/60.0,
                                        /*checkpointEveryPanels=*/8);

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

  w.fork.emplace(w.eng, cfg.driver);
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
  const FlapTestbed tb = buildWhatifWorld(w, cfg, /*armDaemons=*/false);

  PopObserver obs;
  obs.cap = rq.maxEvents;
  obs.attach(w.eng);

  std::optional<int> baseGoverned;  // set once the fork is restored
  try {
    const double t =
        decode(w, *rq.image, core::AppManager::RestoreKind::kSandbox);
    w.journal->recover("whatif fork");
    // Inject the candidate through the journal prepare path: a pinned
    // record whose target the relaunch honors verbatim. Suppress pins the
    // *current* mapping — without the pin the relaunch would re-run the
    // mapper and could freely migrate, and "suppress" would mean nothing.
    // The record opens after recovery: recovery would roll it back.
    const std::vector<grid::NodeId>& pin =
        (rq.candidate.kind == CandidateKind::kSuppress ||
         rq.candidate.target.empty())
            ? rq.current
            : rq.candidate.target;
    w.journal->open(rq.app, reschedule::ActionKind::kMigrate, rq.current, pin,
                    /*pinned=*/true,
                    "whatif fork: " + rq.candidate.label);

    // Pessimistic perturbation, injected shortly after the fork point into
    // the schedule and traces that resume() arms.
    switch (rq.perturbation.kind) {
      case PerturbationKind::kNone:
        break;
      case PerturbationKind::kTargetSlowdown:
        // Competitor load lands on the nodes this candidate bets on.
        for (const auto n : pin) {
          w.traces.emplace_back(
              n, grid::LoadTrace::stepAt(t + 5.0, rq.perturbation.severity));
        }
        break;
      case PerturbationKind::kLinkDegrade: {
        reschedule::ChaosEvent ev;
        ev.kind = reschedule::ChaosKind::kLinkDegrade;
        ev.atSec = t + 5.0;
        ev.durationSec = rq.horizonSec;
        ev.link = tb.wan;
        ev.bandwidthScale = rq.perturbation.severity;
        w.schedule.push_back(ev);
        break;
      }
      case PerturbationKind::kDepotOutage: {
        // Both depots dark: the replica must not quietly absorb the fault.
        for (const auto depot : {tb.stableDepot, tb.replicaDepot}) {
          reschedule::ChaosEvent ev;
          ev.kind = reschedule::ChaosKind::kDepotOutage;
          ev.atSec = t + 5.0;
          ev.durationSec = rq.perturbation.severity;
          ev.node = depot;
          w.schedule.push_back(ev);
        }
        break;
      }
    }

    baseGoverned =
        w.governor->stats().admitted + w.governor->stats().suppressed();
    resume(w, t);
    w.eng.runUntil(t + rq.horizonSec);
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
  if (baseGoverned) {
    out.violationRecurrences = w.governor->stats().admitted +
                               w.governor->stats().suppressed() - *baseGoverned;
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
