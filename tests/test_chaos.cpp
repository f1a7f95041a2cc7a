#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "grid/testbeds.hpp"
#include "reschedule/chaos.hpp"
#include "reschedule/failure.hpp"
#include "reschedule/srs.hpp"
#include "services/gis.hpp"
#include "services/ibp.hpp"
#include "services/nws.hpp"
#include "util/log.hpp"
#include "util/retry.hpp"
#include "workflow/estimator.hpp"
#include "workflow/executor.hpp"

namespace grads::reschedule {
namespace {

constexpr double kMB = 1024.0 * 1024.0;

// ---------------------------------------------------------------------------
// Bounded-retry policy.
// ---------------------------------------------------------------------------

TEST(RetryPolicy, BackoffGrowsExponentiallyAndCaps) {
  util::RetryPolicy p;
  p.baseDelaySec = 2.0;
  p.backoffFactor = 2.0;
  p.maxDelaySec = 10.0;
  p.jitterFrac = 0.0;
  EXPECT_DOUBLE_EQ(p.delaySec(0, nullptr), 2.0);
  EXPECT_DOUBLE_EQ(p.delaySec(1, nullptr), 4.0);
  EXPECT_DOUBLE_EQ(p.delaySec(2, nullptr), 8.0);
  EXPECT_DOUBLE_EQ(p.delaySec(3, nullptr), 10.0);  // capped
  EXPECT_DOUBLE_EQ(p.delaySec(9, nullptr), 10.0);
}

TEST(RetryPolicy, NonePolicyNeverGrantsARetry) {
  util::Retry retry(util::RetryPolicy::none());
  EXPECT_FALSE(retry.nextDelaySec().has_value());
  EXPECT_EQ(retry.attemptsUsed(), 0);
}

TEST(RetryPolicy, BudgetExhaustsAfterMaxAttempts) {
  util::RetryPolicy p;
  p.maxAttempts = 3;
  p.jitterFrac = 0.0;
  util::Retry retry(p);
  EXPECT_TRUE(retry.nextDelaySec().has_value());
  EXPECT_TRUE(retry.nextDelaySec().has_value());
  EXPECT_FALSE(retry.nextDelaySec().has_value());  // 3 attempts = 2 retries
  EXPECT_EQ(retry.attemptsUsed(), 2);
}

TEST(RetryPolicy, JitterIsBoundedAndDeterministicInSeed) {
  util::RetryPolicy p;
  p.baseDelaySec = 10.0;
  p.jitterFrac = 0.1;
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 5; ++i) {
    const double da = p.delaySec(i, &a);
    const double db = p.delaySec(i, &b);
    EXPECT_DOUBLE_EQ(da, db);  // same seed, same jitter
    const double nominal = p.delaySec(i, nullptr);
    EXPECT_GE(da, nominal * 0.9);
    EXPECT_LE(da, nominal * 1.1);
  }
}

// ---------------------------------------------------------------------------
// Campaign generation.
// ---------------------------------------------------------------------------

CampaignConfig smallCampaign() {
  CampaignConfig cc;
  cc.horizonSec = 500.0;
  cc.seed = 7;
  cc.nodeFailures = 3;
  cc.candidateNodes = {1, 2, 3};
  cc.linkPartitions = 2;
  cc.linkDegrades = 1;
  cc.candidateLinks = {10, 11};
  cc.nwsOutages = 2;
  cc.depotOutages = 1;
  cc.candidateDepots = {4};
  return cc;
}

TEST(Campaign, DeterministicInSeed) {
  const auto a = makeCampaign(smallCampaign());
  const auto b = makeCampaign(smallCampaign());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_DOUBLE_EQ(a[i].atSec, b[i].atSec);
    EXPECT_EQ(a[i].node, b[i].node);
    EXPECT_EQ(a[i].link, b[i].link);
  }
  auto cc = smallCampaign();
  cc.seed = 8;
  const auto c = makeCampaign(cc);
  bool differs = false;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (c[i].atSec != a[i].atSec || c[i].kind != a[i].kind) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Campaign, SortedAndDrawnFromCandidatePools) {
  const auto cc = smallCampaign();
  const auto events = makeCampaign(cc);
  ASSERT_EQ(events.size(), 9u);
  ChaosCounters want;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    if (i > 0) {
      EXPECT_GE(e.atSec, events[i - 1].atSec);
    }
    EXPECT_GE(e.atSec, 0.0);
    EXPECT_LT(e.atSec, cc.horizonSec);
    switch (e.kind) {
      case ChaosKind::kNodeFailure:
        ++want.nodeFailures;
        EXPECT_TRUE(e.node >= 1 && e.node <= 3);
        break;
      case ChaosKind::kLinkPartition:
        ++want.linkPartitions;
        EXPECT_TRUE(e.link == 10 || e.link == 11);
        break;
      case ChaosKind::kLinkDegrade:
        ++want.linkDegrades;
        EXPECT_TRUE(e.link == 10 || e.link == 11);
        break;
      case ChaosKind::kNwsOutage:
        ++want.nwsOutages;
        break;
      case ChaosKind::kDepotOutage:
        ++want.depotOutages;
        EXPECT_EQ(e.node, 4u);
        break;
      case ChaosKind::kBitFlip:
        ++want.bitFlips;
        break;
      case ChaosKind::kTornWrite:
        ++want.tornWrites;
        break;
      case ChaosKind::kStaleDelivery:
        ++want.staleDeliveries;
        break;
    }
  }
  EXPECT_EQ(want.nodeFailures, cc.nodeFailures);
  EXPECT_EQ(want.linkPartitions, cc.linkPartitions);
  EXPECT_EQ(want.linkDegrades, cc.linkDegrades);
  EXPECT_EQ(want.nwsOutages, cc.nwsOutages);
  EXPECT_EQ(want.depotOutages, cc.depotOutages);
}

// ---------------------------------------------------------------------------
// ChaosDriver semantics.
// ---------------------------------------------------------------------------

/// Runs `fn` with the log sink pointed at a string, restores the old sink
/// even if `fn` throws, and returns what was logged.
template <class Fn>
std::string captureLog(Fn fn) {
  std::ostringstream captured;
  struct SinkGuard {
    std::ostream* saved = log::config().sink;
    ~SinkGuard() { log::config().sink = saved; }
  } guard;
  log::config().sink = &captured;
  fn();
  return captured.str();
}

struct ChaosFixture {
  sim::Engine eng;
  grid::Grid g{eng};
  grid::QrTestbed tb;
  std::unique_ptr<services::Gis> gis;
  std::unique_ptr<services::Nws> nws;
  std::unique_ptr<services::Ibp> ibp;
  std::unique_ptr<FailureInjector> injector;
  std::unique_ptr<ChaosDriver> chaos;

  ChaosFixture() {
    tb = grid::buildQrTestbed(g);
    gis = std::make_unique<services::Gis>(g);
    nws = std::make_unique<services::Nws>(eng, g, 10.0, 0.0, 7);
    nws->start();
    ibp = std::make_unique<services::Ibp>(g);
    injector = std::make_unique<FailureInjector>(eng, *gis);
    chaos = std::make_unique<ChaosDriver>(eng, g, *injector, nws.get(),
                                          ibp.get());
  }

  // A cross-site route is [source LAN, WAN, destination LAN].
  grid::LinkId wanLink() const {
    return g.route(tb.utkNodes[0], tb.uiucNodes[0]).links[1];
  }

  ChaosEvent event(ChaosKind kind, double at, double dur) const {
    ChaosEvent e;
    e.kind = kind;
    e.atSec = at;
    e.durationSec = dur;
    return e;
  }
};

TEST(ChaosDriver, LinkPartitionFailsFastAndHeals) {
  ChaosFixture f;
  auto e = f.event(ChaosKind::kLinkPartition, 30.0, 60.0);
  e.link = f.wanLink();
  f.chaos->arm(e);

  f.eng.runUntil(50.0);
  EXPECT_FALSE(f.g.link(e.link).isUp());

  // A transfer across the partition fails immediately — no bandwidth is
  // consumed, no time passes before the error surfaces.
  bool failedFast = false;
  double failedAt = -1.0;
  f.eng.spawn([](ChaosFixture& f, bool* flag, double* at) -> sim::Task {
    try {
      co_await f.g.transfer(f.tb.utkNodes[0], f.tb.uiucNodes[0], kMB);
    } catch (const grid::LinkDownError&) {
      *flag = true;
      *at = f.eng.now();
    }
  }(f, &failedFast, &failedAt),
              "xfer-down");
  f.eng.runUntil(55.0);
  EXPECT_TRUE(failedFast);
  EXPECT_DOUBLE_EQ(failedAt, 50.0);

  // After the window the partition heals and transfers flow again.
  f.eng.runUntil(100.0);
  EXPECT_TRUE(f.g.link(e.link).isUp());
  bool ok = false;
  f.eng.spawn([](ChaosFixture& f, bool* flag) -> sim::Task {
    co_await f.g.transfer(f.tb.utkNodes[0], f.tb.uiucNodes[0], kMB);
    *flag = true;
  }(f, &ok),
              "xfer-up");
  f.eng.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(f.chaos->counters().linkPartitions, 1);
}

TEST(ChaosDriver, LogLinesCarryTheEngineTime) {
  ChaosFixture f;
  auto e = f.event(ChaosKind::kLinkPartition, 42.0, 60.0);
  e.link = f.wanLink();
  f.chaos->arm(e);
  EXPECT_EQ(captureLog([&] { f.eng.runUntil(100.0); }),
            "[     42.0000] WARN chaos: link utk-uiuc.wan partitioned\n");
}

TEST(ChaosDriver, LinkDegradeScalesBandwidthAndRestores) {
  ChaosFixture f;
  auto e = f.event(ChaosKind::kLinkDegrade, 10.0, 100.0);
  e.link = f.wanLink();
  e.bandwidthScale = 0.25;
  f.chaos->arm(e);
  f.eng.runUntil(20.0);
  EXPECT_DOUBLE_EQ(f.g.link(e.link).bandwidthScale(), 0.25);
  f.eng.runUntil(150.0);
  EXPECT_DOUBLE_EQ(f.g.link(e.link).bandwidthScale(), 1.0);
  EXPECT_EQ(f.chaos->counters().linkDegrades, 1);
}

TEST(ChaosDriver, OverlappingDepotOutagesNest) {
  ChaosFixture f;
  const grid::NodeId depot = f.tb.uiucNodes[7];
  auto a = f.event(ChaosKind::kDepotOutage, 10.0, 100.0);  // ends at 110
  a.node = depot;
  auto b = f.event(ChaosKind::kDepotOutage, 50.0, 30.0);  // ends at 80
  b.node = depot;
  f.chaos->armAll({a, b});
  f.eng.runUntil(60.0);
  EXPECT_FALSE(f.ibp->isDepotUp(depot));
  // The inner window ended, but the outer one still holds the depot down.
  f.eng.runUntil(85.0);
  EXPECT_FALSE(f.ibp->isDepotUp(depot));
  f.eng.runUntil(120.0);
  EXPECT_TRUE(f.ibp->isDepotUp(depot));
  EXPECT_EQ(f.chaos->counters().depotOutages, 2);
}

TEST(ChaosDriver, OverlappingNwsOutagesNest) {
  ChaosFixture f;
  f.chaos->armAll({f.event(ChaosKind::kNwsOutage, 10.0, 100.0),
                   f.event(ChaosKind::kNwsOutage, 50.0, 30.0)});
  f.eng.runUntil(60.0);
  EXPECT_TRUE(f.nws->dark());
  f.eng.runUntil(85.0);
  EXPECT_TRUE(f.nws->dark());  // outer window still open
  f.eng.runUntil(120.0);
  EXPECT_FALSE(f.nws->dark());
  EXPECT_EQ(f.chaos->counters().nwsOutages, 2);
}

TEST(ChaosDriver, NodeFailureRoutesThroughInjectorWithStaleGisWindow) {
  ChaosFixture f;
  auto e = f.event(ChaosKind::kNodeFailure, 20.0, 100.0);
  e.node = f.tb.uiucNodes[0];
  e.detectionDelaySec = 5.0;
  e.gisLagSec = 30.0;
  f.chaos->arm(e);
  EXPECT_EQ(f.chaos->armed(), 1u);
  f.eng.runUntil(25.0);
  // Down in truth, still advertised by the stale directory.
  EXPECT_FALSE(f.gis->isNodeReachable(e.node));
  EXPECT_TRUE(f.gis->isNodeUp(e.node));
  f.eng.runUntil(60.0);
  EXPECT_FALSE(f.gis->isNodeUp(e.node));  // registration timed out
  f.eng.runUntil(130.0);
  EXPECT_TRUE(f.gis->isNodeReachable(e.node));
  EXPECT_TRUE(f.gis->isNodeUp(e.node));
  EXPECT_EQ(f.injector->failuresInjected(), 1u);
  EXPECT_EQ(f.chaos->counters().nodeFailures, 1);
  EXPECT_EQ(f.chaos->counters().nodeRecoveries, 1);
}

// ---------------------------------------------------------------------------
// NWS degradation ladder: live -> last-known -> static specs.
// ---------------------------------------------------------------------------

TEST(NwsDegradation, ServesLastKnownValuesWhenDark) {
  ChaosFixture f;
  f.eng.runUntil(100.0);  // plenty of samples
  f.nws->setDark(true);
  f.eng.runUntil(200.0);
  EXPECT_TRUE(f.nws->stale());
  const auto node = f.tb.utkNodes[0];
  // try* accessors keep serving the last-known measurements.
  EXPECT_TRUE(f.nws->tryCpuAvailability(node).has_value());
  EXPECT_TRUE(f.nws->tryEffectiveRate(node).has_value());
  // The workflow estimator stays usable (no throw, finite cost).
  workflow::Component c;
  c.flops = 1e9;
  workflow::GridEstimator est(*f.gis, f.nws.get());
  const double cost = est.ecost(c, node);
  EXPECT_GT(cost, 0.0);
  EXPECT_LT(cost, workflow::kInfeasible);
}

TEST(NwsDegradation, FallsBackToStaticSpecsWhenNeverMeasured) {
  sim::Engine eng;
  grid::Grid g(eng);
  const auto tb = grid::buildQrTestbed(g);
  services::Gis gis(g);
  services::Nws nws(eng, g, 10.0, 0.0, 4);
  nws.setDark(true);  // dark from birth: no sweep ever lands
  nws.start();
  eng.runUntil(50.0);
  EXPECT_EQ(nws.samplesTaken(), 0u);
  const auto node = tb.utkNodes[0];
  EXPECT_FALSE(nws.tryCpuAvailability(node).has_value());
  workflow::Component c;
  c.flops = 1e9;
  workflow::GridEstimator est(gis, &nws);
  const double cost = est.ecost(c, node);  // static-spec fallback
  EXPECT_GT(cost, 0.0);
  EXPECT_LT(cost, workflow::kInfeasible);
  const double xfer =
      nws.transferTimeDegraded(tb.utkNodes[0], tb.uiucNodes[0], kMB);
  EXPECT_GT(xfer, 0.0);
}

// ---------------------------------------------------------------------------
// SRS degraded restores: replica fallback, bounded retry, generation walk.
// ---------------------------------------------------------------------------

struct SrsFixture : ChaosFixture {
  Rss rss{eng, "app"};

  void writeGeneration(Srs& srs, int ranks) {
    for (int r = 0; r < ranks; ++r) {
      eng.spawn([](Srs& s, int rank) -> sim::Task {
        co_await s.writeCheckpoint(rank);
      }(srs, r));
    }
    eng.run();
    rss.storeIteration(5 * static_cast<std::size_t>(rss.incarnation()));
  }
};

TEST(SrsDegraded, RestoreFallsBackToReplicaWhenPrimaryDark) {
  SrsFixture f;
  const grid::NodeId primary = f.tb.uiucNodes[7];
  const grid::NodeId replica = f.tb.uiucNodes[6];
  vmpi::World w(f.g, {f.tb.uiucNodes[0], f.tb.uiucNodes[1]});
  f.rss.beginIncarnation(2);
  Srs srs(*f.ibp, f.rss, w);
  srs.registerArray("A", 8.0 * kMB);
  srs.setStableDepot(primary);
  srs.setReplicaDepot(replica);
  f.writeGeneration(srs, 2);

  f.ibp->setDepotUp(primary, false);
  EXPECT_FALSE(f.ibp->readable(Srs::objectKey("app", "A", 0, 1)));
  EXPECT_TRUE(f.ibp->readable(Srs::objectKey("app", "A", 0, 1, true)));

  vmpi::World w2(f.g, {f.tb.uiucNodes[2], f.tb.uiucNodes[3]});
  f.rss.beginIncarnation(2);
  Srs srs2(*f.ibp, f.rss, w2);
  srs2.registerArray("A", 8.0 * kMB);
  for (int r = 0; r < 2; ++r) {
    f.eng.spawn([](Srs& s, int rank) -> sim::Task {
      co_await s.restoreCheckpoint(rank);
    }(srs2, r));
  }
  f.eng.run();  // no retry budget needed: the replica is readable right away
  EXPECT_TRUE(srs2.restoredThisIncarnation());
}

TEST(SrsDegraded, RestoreRetriesUntilDepotReturns) {
  SrsFixture f;
  const grid::NodeId depot = f.tb.uiucNodes[7];
  vmpi::World w(f.g, {f.tb.uiucNodes[0], f.tb.uiucNodes[1]});
  f.rss.beginIncarnation(2);
  Srs srs(*f.ibp, f.rss, w);
  srs.registerArray("A", 8.0 * kMB);
  srs.setStableDepot(depot);
  f.writeGeneration(srs, 2);

  f.ibp->setDepotUp(depot, false);
  const double t0 = f.eng.now();
  f.eng.scheduleDaemonAt(t0 + 40.0, [&f, depot] {
    f.ibp->setDepotUp(depot, true);
  });

  vmpi::World w2(f.g, {f.tb.uiucNodes[2], f.tb.uiucNodes[3]});
  f.rss.beginIncarnation(2);
  Srs srs2(*f.ibp, f.rss, w2);
  srs2.registerArray("A", 8.0 * kMB);
  util::RetryPolicy p;
  p.maxAttempts = 5;
  p.baseDelaySec = 30.0;
  srs2.setRetryPolicy(p, 0xfeedULL);
  for (int r = 0; r < 2; ++r) {
    f.eng.spawn([](Srs& s, int rank) -> sim::Task {
      co_await s.restoreCheckpoint(rank);
    }(srs2, r));
  }
  f.eng.run();
  EXPECT_TRUE(srs2.restoredThisIncarnation());
  EXPECT_GE(f.eng.now(), t0 + 40.0);  // the backoff outlasted the outage
}

TEST(SrsDegraded, RestoreThrowsWhenRetryBudgetExhausted) {
  SrsFixture f;
  const grid::NodeId depot = f.tb.uiucNodes[7];
  vmpi::World w(f.g, {f.tb.uiucNodes[0]});
  f.rss.beginIncarnation(1);
  Srs srs(*f.ibp, f.rss, w);
  srs.registerArray("A", kMB);
  srs.setStableDepot(depot);
  f.writeGeneration(srs, 1);

  f.ibp->setDepotUp(depot, false);  // and it never comes back
  vmpi::World w2(f.g, {f.tb.uiucNodes[1]});
  f.rss.beginIncarnation(1);
  Srs srs2(*f.ibp, f.rss, w2);
  srs2.registerArray("A", kMB);  // default policy: no retries
  f.eng.spawn([](Srs& s) -> sim::Task {
    co_await s.restoreCheckpoint(0);
  }(srs2));
  EXPECT_THROW(f.eng.run(), CheckpointUnavailableError);
}

TEST(SrsDegraded, DarkDepotsLogOneLinePerRankAndCopy) {
  SrsFixture f;
  const grid::NodeId primary = f.tb.uiucNodes[7];
  const grid::NodeId replica = f.tb.uiucNodes[6];
  vmpi::World w(f.g, {f.tb.uiucNodes[0], f.tb.uiucNodes[1]});
  f.rss.beginIncarnation(2);
  Srs srs(*f.ibp, f.rss, w);
  srs.registerArray("A", 8.0 * kMB);
  srs.registerArray("B", kMB);
  srs.setStableDepot(primary);
  srs.setReplicaDepot(replica);
  f.ibp->setDepotUp(primary, false);
  f.ibp->setDepotUp(replica, false);

  const std::string logged = captureLog([&] { f.writeGeneration(srs, 2); });

  // Two ranks × two copies, each line naming both arrays.
  std::istringstream lines(logged);
  int srsLines = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.find(" srs: ") == std::string::npos) continue;
    ++srsLines;
    EXPECT_NE(line.find("for A, B"), std::string::npos) << line;
  }
  EXPECT_EQ(srsLines, 4) << logged;
}

TEST(SrsDegraded, FindRestorableGenerationWalksBackThenGivesUp) {
  SrsFixture f;
  vmpi::World w(f.g, {f.tb.uiucNodes[0], f.tb.uiucNodes[1]});
  f.rss.beginIncarnation(2);
  Srs gen1(*f.ibp, f.rss, w);
  gen1.registerArray("A", 4.0 * kMB);
  f.writeGeneration(gen1, 2);
  f.rss.beginIncarnation(2);
  Srs gen2(*f.ibp, f.rss, w);
  gen2.registerArray("A", 4.0 * kMB);
  f.writeGeneration(gen2, 2);

  const std::vector<std::string> arrays = {"A"};
  // Both generations intact: prefer the newest.
  EXPECT_EQ(findRestorableGeneration(*f.ibp, f.rss, arrays), 2);
  // Losing one object of generation 2 walks the restore back to 1.
  f.ibp->remove(Srs::objectKey("app", "A", 0, 2));
  EXPECT_EQ(findRestorableGeneration(*f.ibp, f.rss, arrays), 1);
  // Losing generation 1 too means scratch restart.
  f.ibp->remove(Srs::objectKey("app", "A", 0, 1));
  EXPECT_EQ(findRestorableGeneration(*f.ibp, f.rss, arrays), std::nullopt);
}

TEST(SrsDegraded, FindRestorableGenerationAcceptsReplicaCopies) {
  SrsFixture f;
  vmpi::World w(f.g, {f.tb.uiucNodes[0], f.tb.uiucNodes[1]});
  f.rss.beginIncarnation(2);
  Srs srs(*f.ibp, f.rss, w);
  srs.registerArray("A", 4.0 * kMB);
  srs.setStableDepot(f.tb.uiucNodes[7]);
  srs.setReplicaDepot(f.tb.uiucNodes[6]);
  f.writeGeneration(srs, 2);
  f.ibp->remove(Srs::objectKey("app", "A", 0, 1));
  f.ibp->remove(Srs::objectKey("app", "A", 1, 1));
  // Primaries gone, replicas intact: the generation still qualifies.
  EXPECT_EQ(findRestorableGeneration(*f.ibp, f.rss, {"A"}), 1);
}

// ---------------------------------------------------------------------------
// Workflow executor degraded mode.
// ---------------------------------------------------------------------------

struct ExecFixture {
  sim::Engine eng;
  grid::Grid g{eng};
  grid::QrTestbed tb;
  std::unique_ptr<services::Gis> gis;
  std::unique_ptr<services::Nws> nws;

  ExecFixture() {
    tb = grid::buildQrTestbed(g);
    gis = std::make_unique<services::Gis>(g);
    nws = std::make_unique<services::Nws>(eng, g, 10.0, 0.0, 4);
    nws->start();
  }

  workflow::ExecutionResult run(const workflow::Dag& dag,
                                workflow::ExecutionOptions opts = {}) {
    workflow::WorkflowExecutor exec(g, *gis, nws.get());
    workflow::ExecutionResult result;
    eng.spawn(exec.execute(dag, opts, &result), "workflow");
    eng.run();
    eng.rethrowIfFailed();
    return result;
  }
};

workflow::Dag singleComponentDag(const std::string& tag) {
  workflow::Dag dag;
  workflow::Component c;
  c.name = "solo";
  c.flops = 1e9;
  c.requiredSoftware = {tag};
  dag.add(c);
  return dag;
}

TEST(ExecutorDegraded, RemapsStaleGisTargetAtLaunch) {
  // Pin the component to two eligible nodes; find which one the scheduler
  // picks, then kill exactly that one (GIS still advertising it) and demand
  // the fault-tolerant executor land on the other.
  const auto pinned = [](ExecFixture& f) {
    f.gis->installSoftware(f.tb.utkNodes[0], "tag");
    f.gis->installSoftware(f.tb.uiucNodes[0], "tag");
  };
  grid::NodeId chosen;
  {
    ExecFixture probe;
    pinned(probe);
    chosen = probe.run(singleComponentDag("tag")).runs[0].node;
  }
  ExecFixture f;
  pinned(f);
  const grid::NodeId other =
      chosen == f.tb.utkNodes[0] ? f.tb.uiucNodes[0] : f.tb.utkNodes[0];
  f.gis->setNodeReachable(chosen, false);  // dead, but the directory lags
  ASSERT_TRUE(f.gis->isNodeUp(chosen));
  workflow::ExecutionOptions opts;
  opts.faultTolerant = true;
  const auto res = f.run(singleComponentDag("tag"), opts);
  EXPECT_EQ(res.runs[0].node, other);
  EXPECT_TRUE(res.runs[0].remapped);
  EXPECT_GE(res.launchFailures, 1);
  EXPECT_GT(res.makespan, 0.0);
}

TEST(ExecutorDegraded, LaunchBacksOffUntilNodeRecovers) {
  // Only one eligible node and it is dead at launch: with no alternate the
  // executor must back off (bounded) and launch once the node returns.
  ExecFixture f;
  f.gis->installSoftware(f.tb.utkNodes[0], "tag");
  f.gis->setNodeReachable(f.tb.utkNodes[0], false);
  f.eng.scheduleDaemonAt(50.0, [&f] {
    f.gis->setNodeReachable(f.tb.utkNodes[0], true);
  });
  workflow::ExecutionOptions opts;
  opts.faultTolerant = true;
  opts.retry.maxAttempts = 6;
  opts.retry.baseDelaySec = 20.0;
  const auto res = f.run(singleComponentDag("tag"), opts);
  EXPECT_GE(res.launchFailures, 1);
  EXPECT_EQ(res.runs[0].node, f.tb.utkNodes[0]);
  EXPECT_GE(res.makespan, 50.0);
}

workflow::Dag wanCrossingDag() {
  workflow::Dag dag;
  workflow::Component a;
  a.name = "producer";
  a.flops = 1e6;
  a.requiredSoftware = {"src-only"};
  const auto ca = dag.add(a);
  workflow::Component b;
  b.name = "consumer";
  b.flops = 1e6;
  b.requiredSoftware = {"dst-only"};
  const auto cb = dag.add(b);
  dag.addEdge(ca, cb, 60.0 * kMB);
  return dag;
}

TEST(ExecutorDegraded, TransferRetriesOutlastPartition) {
  ExecFixture f;
  f.gis->installSoftware(f.tb.utkNodes[0], "src-only");
  f.gis->installSoftware(f.tb.uiucNodes[0], "dst-only");
  const grid::LinkId wan =
      f.g.route(f.tb.utkNodes[0], f.tb.uiucNodes[0]).links[1];
  f.g.link(wan).setUp(false);  // partitioned from the start...
  f.eng.scheduleDaemonAt(100.0, [&f, wan] { f.g.link(wan).setUp(true); });
  workflow::ExecutionOptions opts;
  opts.faultTolerant = true;
  opts.retry.maxAttempts = 8;
  opts.retry.baseDelaySec = 30.0;
  const auto res = f.run(wanCrossingDag(), opts);
  EXPECT_GE(res.transferRetries, 1);
  EXPECT_GT(res.makespan, 100.0);  // waited out the partition, then moved data
}

TEST(ExecutorDegraded, NoRetryBudgetLosesTheComponent) {
  ExecFixture f;
  f.gis->installSoftware(f.tb.utkNodes[0], "src-only");
  f.gis->installSoftware(f.tb.uiucNodes[0], "dst-only");
  const grid::LinkId wan =
      f.g.route(f.tb.utkNodes[0], f.tb.uiucNodes[0]).links[1];
  f.g.link(wan).setUp(false);  // permanent partition
  workflow::WorkflowExecutor exec(f.g, *f.gis, f.nws.get());
  workflow::ExecutionOptions opts;
  opts.faultTolerant = true;
  opts.retry = util::RetryPolicy::none();
  workflow::ExecutionResult res;
  const workflow::Dag dag = wanCrossingDag();
  f.eng.spawn(exec.execute(dag, opts, &res), "workflow");
  bool threw = false;
  try {
    f.eng.run();
    f.eng.rethrowIfFailed();
  } catch (const std::exception&) {
    threw = true;
  }
  // The consumer died on the partition: either the error surfaced, or the
  // workflow stalled with its makespan never set. It must not "complete".
  EXPECT_TRUE(threw || res.makespan == 0.0);
}

}  // namespace
}  // namespace grads::reschedule
