#include "scenarios.hpp"

#include <functional>
#include <memory>
#include <string>

#include "apps/qr.hpp"
#include "core/snapshot.hpp"
#include "grid/testbeds.hpp"
#include "microgrid/dml.hpp"
#include "util/error.hpp"
#include "whatif_world.hpp"

namespace grads::bench {

namespace {

/// chaos-qr and integrity-qr: QR on the UIUC side of the QR testbed (UTK is
/// marked down), one mid-run node failure, and on top either depot and NWS
/// outages plus WAN degrades (chaos) or bit flips, torn writes and stale
/// deliveries against both depots under verified, fenced, scrubbed
/// checkpoints (integrity).
void buildQr(World& w, std::uint64_t seed, bool integrity) {
  const auto tb = grid::buildQrTestbed(w.g);
  w.gis.emplace(w.g);
  installQrSoftware(*w.gis);
  // Compute stays on UIUC; UTK would pull every restore across the WAN and
  // drown the fault signal in transfer time.
  for (const auto node : tb.utkNodes) w.gis->setNodeUp(node, false);
  w.nws.emplace(w.eng, w.g, 10.0, 0.0, 9);
  w.ibp.emplace(w.g);
  w.autopilot.emplace(w.eng);
  w.injector.emplace(w.eng, *w.gis);
  w.chaos.emplace(w.eng, w.g, *w.injector, &*w.nws, &*w.ibp);

  const grid::NodeId depot = tb.uiucNodes[7];
  const grid::NodeId replica = tb.uiucNodes[6];
  reschedule::CampaignConfig cc;
  cc.seed = seed;
  cc.horizonSec = 450.0;
  cc.nodeFailures = 1;
  cc.nodeOutageSec = 400.0;
  cc.detectionDelaySec = 5.0;
  cc.candidateNodes.assign(tb.uiucNodes.begin(), tb.uiucNodes.begin() + 6);
  if (integrity) {
    // Corruption only matters if it lands between the last periodic
    // checkpoint and the post-failure restore (later checkpoints rewrite
    // the objects clean), so draw plenty of events.
    cc.bitFlips = 8;
    cc.tornWrites = 4;
    cc.staleDeliveries = 4;
    cc.tornKeepFrac = 0.5;
    cc.integrityDepots = {depot, replica};
  } else {
    cc.gisLagSec = 45.0;
    cc.depotOutages = 2;
    cc.depotOutageSec = 200.0;
    cc.candidateDepots = {depot};
    cc.nwsOutages = 1;
    cc.nwsOutageSec = 300.0;
    // WAN degrades force the flow registry to re-share mid-flight transfers
    // (checkpoint pushes, restore reads) across crash/restore boundaries.
    cc.linkDegrades = 2;
    cc.degradeScale = 0.5;
    cc.degradeDurationSec = 120.0;
    cc.candidateLinks = {w.g.route(tb.utkNodes[0], tb.uiucNodes[0]).links[1]};
  }
  w.schedule = reschedule::makeCampaign(cc);

  apps::QrConfig cfg;
  cfg.n = 6000;
  cfg.checkpointEveryPanels = 8;
  w.cop = apps::makeQrCop(w.g, cfg);
  w.mgr.emplace(w.g, *w.gis, &*w.nws, *w.ibp, *w.autopilot);
  w.mopts.monitorContract = false;
  w.mopts.stableDepot = depot;
  w.mopts.replicaDepot = replica;
  w.mopts.failures = &*w.injector;
  w.mopts.retrySeed = seed;
  w.mopts.depotRetry.maxAttempts = 3;
  w.mopts.depotRetry.baseDelaySec = 20.0;
  if (integrity) {
    w.mopts.verifyCheckpoints = true;
    w.mopts.fenceWrites = true;
    w.mopts.scrubPeriodSec = 60.0;
  }
  registerComponents(w);
}

/// thrash-governed: the flapping-load world, whose governor's quorum,
/// hysteresis and 600 s cooldown (longer than the load's flip period by far)
/// hold the rescheduler to at most the first migration.
void buildThrash(World& w, std::uint64_t seed) {
  buildFlapWorld(w, seed, /*cooldownSec=*/600.0, /*checkpointEveryPanels=*/0);
  registerComponents(w);
}

/// tenant-overload: the multi-tenant metascheduler over a 4-slot pool at
/// ~2.2x offered load, so admission, shedding, jittered resubmits, brownout
/// deferral and journaled checkpoint-and-park preemption all run.
void buildTenant(World& w, std::uint64_t seed) {
  const auto site = w.g.addCluster(
      grid::ClusterSpec{"site", "Site", grid::fastEthernetLan("site.lan", 4)});
  std::vector<grid::NodeId> slots;
  for (int i = 0; i < 4; ++i) {
    slots.push_back(w.g.addNode(site, grid::utkQrNodeSpec(i)));
  }
  w.gis.emplace(w.g);
  w.gis->installEverywhere(services::software::kLocalBinder);
  w.gis->installEverywhere(services::software::kSrsLibrary);
  w.nws.emplace(w.eng, w.g, 60.0, 0.0, 9);
  w.ibp.emplace(w.g);
  w.autopilot.emplace(w.eng);
  w.journal.emplace(w.eng);
  w.mgr.emplace(w.g, *w.gis, &*w.nws, *w.ibp, *w.autopilot);

  const double refRate =
      w.g.node(slots.front()).spec().effectiveFlopsPerCpu();
  metasched::FrontendOptions fo;
  fo.slots = slots;
  fo.horizonSec = 1200.0;
  fo.hardDeadlineSec = 2400.0;
  fo.controlPeriodSec = 30.0;
  fo.flopsPerPhase = refRate * 15.0;
  fo.refFlopsPerSec = refRate;
  fo.seed = seed;
  const struct { const char* name; int tier; double weight; double share; }
      shapes[] = {{"hi", 2, 2.0, 0.2}, {"norm", 1, 1.0, 0.3},
                  {"batch", 0, 1.0, 0.5}};
  const double totalRate = 2.2 * 4.0 / 100.0;
  int i = 0;
  for (const auto& s : shapes) {
    metasched::TenantSpec t;
    t.name = s.name;
    t.tier = s.tier;
    t.weight = s.weight;
    t.baseRatePerSec = s.share * totalRate;
    t.diurnalAmplitude = 0.4;
    t.diurnalPeriodSec = 600.0;
    t.diurnalPhaseSec = 150.0 * i;
    t.paretoXmFlops = refRate * 45.0;
    t.paretoAlpha = 1.9;
    t.maxJobFlops = refRate * 450.0;
    t.resubmit.maxAttempts = 3;
    t.resubmit.baseDelaySec = 20.0;
    t.resubmit.maxDelaySec = 200.0;
    t.resubmit.jitterFrac = 0.2;
    t.seed = seed + 17 * static_cast<std::uint64_t>(i + 1);
    fo.tenants.push_back(t);
    ++i;
  }
  fo.admission.maxQueuedPerTenant = 10;
  fo.admission.maxQueuedTotal = 32;
  fo.admission.maxBacklogSec = 400.0;
  fo.admission.retryAfterMinSec = 15.0;
  fo.admission.retryAfterMaxSec = 240.0;
  fo.brownout.dwellSec = 60.0;
  fo.preempt.minRunSec = 20.0;
  fo.preempt.cooldownSec = 90.0;
  fo.preempt.highTierMaxWaitSec = 120.0;
  fo.jobOptions.resourceSelectionSec = 1.0;
  fo.jobOptions.perfModelingSec = 0.5;
  fo.jobOptions.appStartPerRankSec = 0.5;
  fo.jobOptions.monitorContract = false;
  w.meta.emplace(*w.mgr, w.g, *w.gis, &*w.nws, &*w.journal, std::move(fo));
  registerComponents(w);
}

/// whatif-forked: the shared what-if world with WAN link degrades and the
/// fork driver active, so every governed violation speculates in sandboxed
/// futures before committing. A reduced fork budget keeps the crash sweep
/// tractable.
void buildWhatif(World& w, std::uint64_t seed) {
  WhatifConfig cfg;
  cfg.seed = seed;
  cfg.linkDegrades = 2;
  cfg.withDriver = true;
  cfg.driver.budget.maxForks = 4;
  cfg.driver.budget.pessimisticFutures = 1;
  buildWhatifWorld(w, cfg, /*armDaemons=*/false);
}

}  // namespace

void build(World& w, std::string_view name, std::uint64_t seed,
           bool armDaemons) {
  if (name == "chaos-qr") {
    buildQr(w, seed, /*integrity=*/false);
  } else if (name == "integrity-qr") {
    buildQr(w, seed, /*integrity=*/true);
  } else if (name == "thrash-governed") {
    buildThrash(w, seed);
  } else if (name == "tenant-overload") {
    buildTenant(w, seed);
  } else if (name == "whatif-forked") {
    buildWhatif(w, seed);
  } else {
    throw InvalidArgument("bench::build: unknown scenario '" +
                          std::string(name) + "'");
  }
  if (armDaemons) startDaemons(w);
}

Recording record(const Scenario& sc, std::size_t kill) {
  constexpr double kSnapshotPeriodSec = 90.0;
  World w;
  build(w, sc.name, sc.seed, /*armDaemons=*/true);
  Recording rec;
  std::size_t taken = 0;
  const auto sink = [&rec, &w, &taken, kill](core::SnapshotImage img) {
    const std::size_t ordinal = taken++;
    if (kill == kNoKill || ordinal == kill) {
      rec.images.push_back({img.simTime, img.serialize()});
    }
    if (ordinal == kill) w.eng.stop();
  };
  spawnApps(w, /*restored=*/false);
  w.mgr->armSnapshotDaemon(kSnapshotPeriodSec, sink);
  sink(w.mgr->snapshotNow());
  if (kill != 0) {
    w.eng.run();
    w.eng.rethrowIfFailed();
  }
  rec.completed = scenarioCompleted(w);
  return rec;
}

QrMigrationRun runQrMigration(std::size_t n,
                              reschedule::ReschedulerMode mode) {
  sim::Engine eng;
  grid::Grid g(eng);
  const auto tb = grid::buildQrTestbed(g);
  services::Gis gis(g);
  installQrSoftware(gis);
  services::Nws nws(eng, g, 10.0, 0.01, 42);
  nws.start();
  services::Ibp ibp(g);
  autopilot::AutopilotManager autopilot(eng);

  grid::applyLoadTrace(eng, g.node(tb.utkNodes[0]),
                       grid::LoadTrace::stepAt(300.0, 2.65));

  apps::QrConfig cfg;
  cfg.n = n;
  const core::Cop cop = apps::makeQrCop(g, cfg);

  reschedule::ReschedulerOptions ropts;
  ropts.mode = mode;
  ropts.worstCaseMigrationSec = 900.0;
  reschedule::StopRestartRescheduler rescheduler(gis, &nws, ropts);

  core::AppManager manager(g, gis, &nws, ibp, autopilot);
  QrMigrationRun run;
  eng.spawn(manager.run(cop, &rescheduler, core::ManagerOptions{},
                        &run.breakdown),
            "app-manager");
  eng.run();
  run.decisions = rescheduler.decisions();
  return run;
}

SwapExperimentRun runSwapExperiment(reschedule::SwapPolicy policy,
                                    bool emulated) {
  sim::Engine eng;
  grid::Grid g(eng);
  microgrid::instantiate(g, microgrid::parseDml(microgrid::swapExperimentDml()),
                         emulated);
  services::Nws nws(eng, g, 10.0, 0.01, 7);
  nws.start();

  const auto utk = g.clusterNodes(*g.findCluster("utk"));
  const auto uiuc = g.clusterNodes(*g.findCluster("uiuc"));
  grid::applyLoadTrace(eng, g.node(utk[0]), grid::LoadTrace::stepAt(80.0, 2.0));

  apps::NBodyConfig cfg;
  cfg.particles = 10000;
  cfg.iterations = 100;
  vmpi::World world(g, {utk[0], utk[1], utk[2]}, "nbody");
  std::vector<grid::NodeId> pool = utk;
  pool.insert(pool.end(), uiuc.begin(), uiuc.end());

  reschedule::SwapConfig scfg;
  scfg.policy = policy;
  scfg.flopsPerRankPerIteration = apps::nbodyIterationFlopsPerRank(cfg, 3);
  scfg.messagesPerIteration = 4.0;
  reschedule::SwapManager swap(world, pool, &nws, scfg);
  swap.start();

  SwapExperimentRun run;
  for (int r = 0; r < 3; ++r) {
    eng.spawn(apps::nbodyRank(world, &swap, cfg, r, nullptr, "nbody",
                              &run.progress));
  }
  eng.run();
  run.swaps = swap.history();
  for (int r = 0; r < 3; ++r) {
    run.finalClusters.push_back(g.node(world.nodeOf(r)).cluster());
  }
  run.finishedAt = eng.now();
  run.processedEvents = eng.processedEvents();
  return run;
}

MidActionKillRun runMidActionKill(std::uint64_t seed, bool killTarget) {
  sim::Engine eng;
  grid::Grid g(eng);
  const auto tb = grid::buildQrTestbed(g);
  services::Gis gis(g);
  installQrSoftware(gis);
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
  reschedule::StopRestartRescheduler rescheduler(
      gis, &nws, reschedule::ReschedulerOptions{});
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

  MidActionKillRun out;
  eng.spawn(mgr.run(cop, &rescheduler, mopts, &out.bd), "qr");
  try {
    eng.run();
    eng.rethrowIfFailed();
    out.completed = out.bd.totalSeconds > 0.0;
    out.seconds = out.bd.totalSeconds;
  } catch (const std::exception& e) {
    out.error = e.what();
    out.seconds = eng.now();
  }
  out.killed = watch->armed;
  out.committed = journal.committed();
  out.rolledBack = journal.rolledBack();
  out.openAtEnd = journal.inFlight();
  out.records = journal.records();
  return out;
}

}  // namespace grads::bench
