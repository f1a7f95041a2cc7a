#include "worlds.hpp"

#include <algorithm>
#include <string>

#include "apps/qr.hpp"
#include "bench/whatif_world.hpp"
#include "core/snapshot.hpp"
#include "grid/testbeds.hpp"

namespace perfbench {

namespace grid = grads::grid;
namespace reschedule = grads::reschedule;
namespace services = grads::services;
namespace whatif = grads::reschedule::whatif;

namespace {

constexpr double kMB = 1024.0 * 1024.0;

void registerComponents(World& w) {
  auto& reg = w.mgr->snapshots();
  reg.add(w.g);
  reg.add(*w.gis);
  reg.add(*w.nws);
  reg.add(*w.ibp);
  reg.add(*w.autopilot);
  if (w.journal) reg.add(*w.journal);
  if (w.governor) reg.add(*w.governor);
  if (w.meta) reg.add(*w.meta);
}

void installQrSoftware(services::Gis& gis) {
  gis.installEverywhere(services::software::kLocalBinder);
  gis.installEverywhere(services::software::kScalapack);
  gis.installEverywhere(services::software::kSrsLibrary);
  gis.installEverywhere(services::software::kAutopilotSensors);
}

grads::core::Cop makeQr(grid::Grid& g, int checkpointEveryPanels) {
  grads::apps::QrConfig cfg;
  cfg.n = 6000;
  if (checkpointEveryPanels > 0) cfg.checkpointEveryPanels = checkpointEveryPanels;
  return grads::apps::makeQrCop(g, cfg);
}

/// chaos-qr and integrity-qr: the QR testbed with the UTK side down, one
/// node failure, and either depot/NWS outages plus WAN degrades (chaos) or
/// bit flips, torn writes and stale deliveries (integrity).
void buildQrFault(World& w, std::uint64_t seed, bool integrity) {
  const auto tb = grid::buildQrTestbed(w.g);
  w.gis.emplace(w.g);
  installQrSoftware(*w.gis);
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
    cc.linkDegrades = 2;
    cc.degradeScale = 0.5;
    cc.degradeDurationSec = 120.0;
    cc.candidateLinks = {w.g.route(tb.utkNodes[0], tb.uiucNodes[0]).links[1]};
  }
  w.schedule = reschedule::makeCampaign(cc);

  w.cop = makeQr(w.g, 8);
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
}

/// Two 4-node clusters over a WAN with antiphase square-wave load, governed
/// rescheduling with a cooldown longer than the flip period.
void buildThrash(World& w, std::uint64_t seed) {
  const auto east = w.g.addCluster(
      grid::ClusterSpec{"east", "East", grid::fastEthernetLan("east.lan", 4)});
  const auto west = w.g.addCluster(
      grid::ClusterSpec{"west", "West", grid::fastEthernetLan("west.lan", 4)});
  std::vector<grid::NodeId> eastNodes;
  std::vector<grid::NodeId> westNodes;
  for (int i = 0; i < 4; ++i) {
    eastNodes.push_back(w.g.addNode(east, grid::utkQrNodeSpec(i)));
    westNodes.push_back(w.g.addNode(west, grid::utkQrNodeSpec(i + 4)));
  }
  w.g.connectClusters(east, west,
                      grid::internetWan("east-west.wan", 0.005, 12.0 * kMB));

  w.gis.emplace(w.g);
  installQrSoftware(*w.gis);
  w.nws.emplace(w.eng, w.g, 10.0, 0.02, seed);
  w.ibp.emplace(w.g);
  w.autopilot.emplace(w.eng);
  w.injector.emplace(w.eng, *w.gis);
  w.chaos.emplace(w.eng, w.g, *w.injector, &*w.nws, &*w.ibp);

  constexpr double kPeriod = 90.0;
  constexpr double kWeight = 3.0;
  for (const auto n : eastNodes) {
    w.traces.emplace_back(
        n, grads::bench::whatifSquareWave(kPeriod, kPeriod, kWeight, 10));
  }
  for (const auto n : westNodes) {
    w.traces.emplace_back(
        n, grads::bench::whatifSquareWave(2.0 * kPeriod, kPeriod, kWeight, 10));
  }

  w.cop = makeQr(w.g, 0);
  w.journal.emplace(w.eng);
  reschedule::ReschedulerOptions ropts;
  ropts.worstCaseMigrationSec = 40.0;
  w.rescheduler.emplace(*w.gis, &*w.nws, ropts);
  w.rescheduler->setJournal(&*w.journal);
  reschedule::GovernorOptions gopts;
  gopts.quorumK = 2;
  gopts.quorumN = 4;
  gopts.hysteresisBand = 0.1;
  gopts.cooldownSec = 600.0;
  gopts.maxConcurrentActions = 1;
  w.governor.emplace(w.eng, *w.journal, gopts);
  w.mopts.journal = &*w.journal;
  w.mopts.governor = &*w.governor;
  w.mgr.emplace(w.g, *w.gis, &*w.nws, *w.ibp, *w.autopilot);
  w.mopts.retrySeed = seed;
}

/// Metascheduler over a 4-slot pool at ~2.2x offered load: admission,
/// brownout and journaled checkpoint-and-park preemption.
void buildTenantSmall(World& w, std::uint64_t seed) {
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

  const double refRate = w.g.node(slots.front()).spec().effectiveFlopsPerCpu();
  grads::metasched::FrontendOptions fo;
  fo.slots = slots;
  fo.horizonSec = 1200.0;
  fo.hardDeadlineSec = 2400.0;
  fo.controlPeriodSec = 30.0;
  fo.flopsPerPhase = refRate * 15.0;
  fo.refFlopsPerSec = refRate;
  fo.seed = seed;
  const struct {
    const char* name;
    int tier;
    double weight;
    double share;
  } shapes[] = {{"hi", 2, 2.0, 0.2}, {"norm", 1, 1.0, 0.3},
                {"batch", 0, 1.0, 0.5}};
  const double totalRate = 2.2 * 4.0 / 100.0;
  int i = 0;
  for (const auto& s : shapes) {
    grads::metasched::TenantSpec t;
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
}

/// whatif-forked: the shared what-if world, configured as in the crash
/// sweep, with the fork driver validating every governed violation in
/// sandboxed futures. The snapshot source and sandbox runner are the shared
/// ones, wrapped so their calls are timed and counted.
void buildWhatif(World& w, std::uint64_t seed, bool armDaemons, Probe& probe) {
  grads::bench::WhatifConfig cfg;
  cfg.seed = seed;
  cfg.linkDegrades = 2;
  cfg.withDriver = true;
  cfg.driver.budget.maxForks = 4;
  cfg.driver.budget.pessimisticFutures = 1;
  grads::bench::buildWhatifWorld(w, cfg, armDaemons);
  w.fork->setSnapshotSource([mgr = &*w.mgr, p = &probe] {
    Counters& c = p->count();
    std::optional<grads::core::SnapshotImage> img;
    {
      Scope span(*p, Layer::kCapture);
      img.emplace(mgr->snapshotNow());
    }
    ++c.captures;
    std::vector<std::uint8_t> bytes;
    {
      Scope span(*p, Layer::kSerialize);
      bytes = img->serialize();
    }
    ++c.serializes;
    c.serializeBytes += bytes.size();
    return bytes;
  });
  w.fork->setRunner([cfg, p = &probe](const whatif::ForkRequest& rq) {
    Scope span(*p, Layer::kFork);
    const whatif::ForkOutcome out = grads::bench::runWhatifFork(cfg, rq);
    Counters& c = p->count();
    c.events += out.events;
    ++c.engines;
    return out;
  });
}

}  // namespace

const char* scenarioName(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::kChaos: return "chaos-qr";
    case ScenarioKind::kIntegrity: return "integrity-qr";
    case ScenarioKind::kThrash: return "thrash-governed";
    case ScenarioKind::kTenant: return "tenant-small";
    case ScenarioKind::kWhatif: return "whatif-forked";
  }
  return "?";
}

void buildScenario(World& w, ScenarioKind kind, std::uint64_t seed,
                   bool armDaemons, Probe& probe) {
  switch (kind) {
    case ScenarioKind::kChaos: buildQrFault(w, seed, false); break;
    case ScenarioKind::kIntegrity: buildQrFault(w, seed, true); break;
    case ScenarioKind::kThrash: buildThrash(w, seed); break;
    case ScenarioKind::kTenant: buildTenantSmall(w, seed); break;
    case ScenarioKind::kWhatif:
      // The shared builder registers its components and arms its daemons.
      buildWhatif(w, seed, armDaemons, probe);
      return;
  }
  registerComponents(w);
  if (!armDaemons) return;
  w.nws->start();
  for (const auto& [node, trace] : w.traces) {
    grid::applyLoadTrace(w.eng, w.g.node(node), trace);
  }
  if (w.chaos) w.chaos->armAll(w.schedule);
}

void spawnApps(World& w, bool restored) {
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

bool scenarioCompleted(const World& w) {
  if (w.meta) return w.meta->drained() && w.meta->totals().failed == 0;
  return w.mgr->isCompleted(w.cop.name);
}

void rearmAfterRestore(World& w, double simTime) {
  if (w.journal) w.journal->recover("control-plane restart");
  if (w.chaos) w.chaos->armFrom(w.schedule, simTime);
  for (const auto& [node, trace] : w.traces) {
    grid::applyLoadTraceFrom(w.eng, w.g.node(node), trace, simTime);
  }
  w.nws->start();
}

void foldOutcome(grads::util::DigestStream& ds, const World& w) {
  const grads::core::RunBreakdown& bd = w.bd;
  ds.put(static_cast<std::uint64_t>(scenarioCompleted(w)));
  ds.put(w.eng.now());
  ds.put(static_cast<std::uint64_t>(w.eng.processedEvents()));
  ds.put(bd.totalSeconds);
  for (const int v :
       {bd.incarnations, bd.launchFailures, bd.restoreFailures,
        bd.corruptRestores, bd.corruptSliceReads, bd.integrityRejects,
        bd.staleWriteRejects, bd.scrubRepairs, bd.scrubUnrepairable,
        bd.actionsOpened, bd.actionsCommitted, bd.actionsRolledBack,
        bd.violationsSuppressed, bd.whatifDecisions, bd.whatifForks,
        bd.whatifFallbacks, bd.whatifOverrides, bd.whatifDivergences,
        bd.daemonRearms}) {
    ds.put(static_cast<std::uint64_t>(v));
  }
  for (const auto& mapping : bd.mappings) {
    ds.put(static_cast<std::uint64_t>(mapping.size()));
    for (const auto node : mapping) ds.put(static_cast<std::uint64_t>(node));
  }
  if (w.chaos) ds.put(static_cast<std::uint64_t>(w.chaos->counters().total()));
  if (w.meta) w.meta->foldDigest(ds);
}

void noteWorld(Counters& c, const World& w) {
  c.noteEngine(w.eng);
  c.noteFlows(w.g);
  if (w.nws) c.nwsSamples += w.nws->samplesTaken();
}

void noteFinished(Counters& c, const World& w) {
  if (w.journal) {
    c.journalCommitted += static_cast<std::uint64_t>(w.journal->committed());
    c.journalRolledBack += static_cast<std::uint64_t>(w.journal->rolledBack());
  }
  if (w.fork) {
    const whatif::DriverStats& s = w.fork->stats();
    c.whatifDecisions += static_cast<std::uint64_t>(s.decisions);
    c.whatifForks += static_cast<std::uint64_t>(s.forksRun);
    c.whatifFallbacks += static_cast<std::uint64_t>(s.fallbacks);
    c.whatifOverrides += static_cast<std::uint64_t>(s.overrides);
  }
  if (w.meta) {
    const grads::metasched::FrontendTotals t = w.meta->totals();
    c.metaSubmitted += static_cast<std::uint64_t>(t.submitted);
    c.metaAdmitted += static_cast<std::uint64_t>(t.admitted);
    c.metaDispatched += static_cast<std::uint64_t>(t.dispatched);
    c.metaPreempted += static_cast<std::uint64_t>(t.preempted);
    c.metaShed += static_cast<std::uint64_t>(t.shed);
    c.metaPeakInSystem = std::max(c.metaPeakInSystem,
                                  static_cast<std::uint64_t>(t.peakInSystem));
  }
}

}  // namespace perfbench
