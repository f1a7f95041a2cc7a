#include <gtest/gtest.h>

#include "apps/nbody.hpp"
#include "apps/qr.hpp"
#include "core/app_manager.hpp"
#include "grid/load.hpp"
#include "grid/testbeds.hpp"
#include "microgrid/dml.hpp"
#include "reschedule/journal.hpp"
#include "reschedule/rescheduler.hpp"
#include "reschedule/srs.hpp"
#include "reschedule/swap.hpp"
#include "scenarios.hpp"
#include "services/gis.hpp"
#include "services/ibp.hpp"
#include "services/nws.hpp"
#include "sim/sync.hpp"
#include "util/error.hpp"

namespace grads::reschedule {
namespace {

constexpr double kMB = 1024.0 * 1024.0;

struct Fixture {
  sim::Engine eng;
  grid::Grid g{eng};
  grid::QrTestbed tb;
  std::unique_ptr<services::Ibp> ibp;

  Fixture() {
    tb = grid::buildQrTestbed(g);
    ibp = std::make_unique<services::Ibp>(g);
  }
};

TEST(Rss, StopFlagLifecycle) {
  sim::Engine eng;
  Rss rss(eng, "app");
  EXPECT_FALSE(rss.stopRequested());
  rss.requestStop();
  EXPECT_TRUE(rss.stopRequested());
  rss.beginIncarnation(4);
  EXPECT_FALSE(rss.stopRequested());  // cleared for the new incarnation
  EXPECT_EQ(rss.incarnation(), 1);
  EXPECT_EQ(rss.previousProcs(), 0);
  rss.beginIncarnation(8);
  EXPECT_EQ(rss.incarnation(), 2);
  EXPECT_EQ(rss.previousProcs(), 4);
}

TEST(Rss, IterationStore) {
  sim::Engine eng;
  Rss rss(eng, "app");
  rss.storeIteration(17);
  EXPECT_EQ(rss.storedIteration(), 17u);
}

TEST(Srs, RegisteredBytesAccumulate) {
  Fixture f;
  Rss rss(f.eng, "qr");
  vmpi::World w(f.g, {f.tb.utkNodes[0], f.tb.utkNodes[1]});
  rss.beginIncarnation(2);
  Srs srs(*f.ibp, rss, w);
  srs.registerArray("A", 100.0 * kMB);
  srs.registerArray("B", 1.0 * kMB);
  EXPECT_DOUBLE_EQ(srs.registeredBytes(), 101.0 * kMB);
}

TEST(Srs, CheckpointWritesPerRankShares) {
  Fixture f;
  Rss rss(f.eng, "qr");
  vmpi::World w(f.g, {f.tb.utkNodes[0], f.tb.utkNodes[1]});
  rss.beginIncarnation(2);
  Srs srs(*f.ibp, rss, w);
  srs.registerArray("A", 60.0 * kMB);
  for (int r = 0; r < 2; ++r) {
    f.eng.spawn([](Srs& s, int rank) -> sim::Task {
      co_await s.writeCheckpoint(rank);
    }(srs, r));
  }
  f.eng.run();
  EXPECT_TRUE(rss.hasCheckpoint());
  EXPECT_EQ(f.ibp->objectCount(), 2u);  // one object per rank
  EXPECT_DOUBLE_EQ(f.ibp->sizeOf("qr.ckpt.A.r0.i1"), 30.0 * kMB);
  // Writes go to local disks (30 MB/s): each rank writes 30 MB in parallel.
  EXPECT_NEAR(srs.writeSpanSeconds(), 1.0, 0.05);
}

TEST(Srs, CheckIfStopOnlyTriggersWhenRequested) {
  Fixture f;
  Rss rss(f.eng, "qr");
  vmpi::World w(f.g, {f.tb.utkNodes[0]});
  rss.beginIncarnation(1);
  Srs srs(*f.ibp, rss, w);
  srs.registerArray("A", 1.0 * kMB);
  bool stop1 = true;
  bool stop2 = false;
  f.eng.spawn([](Srs& s, Rss& rss, bool* s1, bool* s2) -> sim::Task {
    co_await s.checkIfStop(0, s1);
    rss.requestStop();
    co_await s.checkIfStop(0, s2);
  }(srs, rss, &stop1, &stop2));
  f.eng.run();
  EXPECT_FALSE(stop1);
  EXPECT_TRUE(stop2);
  EXPECT_TRUE(rss.hasCheckpoint());
}

TEST(Srs, RestoreRedistributesNtoM) {
  // Write a checkpoint from 2 UTK ranks, restore into 4 UIUC ranks: each
  // new rank reads totalBytes/(N*M) from each old depot across the WAN.
  Fixture f;
  Rss rss(f.eng, "qr");
  const double total = 24.0 * kMB;
  {
    vmpi::World wOld(f.g, {f.tb.utkNodes[0], f.tb.utkNodes[1]});
    rss.beginIncarnation(2);
    Srs srsOld(*f.ibp, rss, wOld);
    srsOld.registerArray("A", total);
    for (int r = 0; r < 2; ++r) {
      f.eng.spawn([](Srs& s, int rank) -> sim::Task {
        co_await s.writeCheckpoint(rank);
      }(srsOld, r));
    }
    f.eng.run();
  }
  vmpi::World wNew(f.g, {f.tb.uiucNodes[0], f.tb.uiucNodes[1],
                         f.tb.uiucNodes[2], f.tb.uiucNodes[3]});
  rss.beginIncarnation(4);
  Srs srsNew(*f.ibp, rss, wNew);
  srsNew.registerArray("A", total);
  for (int r = 0; r < 4; ++r) {
    f.eng.spawn([](Srs& s, int rank) -> sim::Task {
      co_await s.restoreCheckpoint(rank);
    }(srsNew, r));
  }
  f.eng.run();
  EXPECT_TRUE(srsNew.restoredThisIncarnation());
  // All 24 MB cross the 1.2 MB/s WAN (shared) → read span ≈ 20 s.
  EXPECT_NEAR(srsNew.readSpanSeconds(), 20.0, 3.0);
}

TEST(Srs, RestoreWithoutCheckpointThrows) {
  Fixture f;
  Rss rss(f.eng, "qr");
  vmpi::World w(f.g, {f.tb.utkNodes[0]});
  rss.beginIncarnation(1);
  Srs srs(*f.ibp, rss, w);
  srs.registerArray("A", kMB);
  f.eng.spawn([](Srs& s) -> sim::Task { co_await s.restoreCheckpoint(0); }(srs));
  EXPECT_THROW(f.eng.run(), InvalidArgument);
}

struct ReschedulerFixture : Fixture {
  std::unique_ptr<services::Gis> gis;
  std::unique_ptr<services::Nws> nws;
  core::Cop cop;

  explicit ReschedulerFixture(std::size_t n = 8000) {
    gis = std::make_unique<services::Gis>(g);
    gis->installEverywhere(services::software::kLocalBinder);
    gis->installEverywhere(services::software::kScalapack);
    gis->installEverywhere(services::software::kSrsLibrary);
    gis->installEverywhere(services::software::kAutopilotSensors);
    nws = std::make_unique<services::Nws>(eng, g, 10.0, 0.0, 1);
    nws->start();
    apps::QrConfig cfg;
    cfg.n = n;
    cop = apps::makeQrCop(g, cfg);
  }

  std::vector<grid::NodeId> utkMapping() const {
    std::vector<grid::NodeId> m;
    for (const auto id : tb.utkNodes) {
      m.push_back(id);
      m.push_back(id);
    }
    return m;
  }
};

TEST(Rescheduler, StaysOnUnloadedBestResources) {
  ReschedulerFixture f;
  f.eng.runUntil(30.0);  // give NWS a few samples
  StopRestartRescheduler r(*f.gis, f.nws.get(), ReschedulerOptions{});
  const auto d = r.evaluate(f.cop, f.utkMapping(), 10);
  EXPECT_FALSE(d.migrate);
  EXPECT_EQ(d.target, f.utkMapping());  // current UTK is still the best
}

TEST(Rescheduler, MigratesWhenBenefitExceedsWorstCase) {
  ReschedulerFixture f(12000);
  // Heavy persistent load on one UTK node early in the run.
  f.g.node(f.tb.utkNodes[0]).injectLoad(4.0);
  f.eng.runUntil(60.0);
  StopRestartRescheduler r(*f.gis, f.nws.get(), ReschedulerOptions{});
  const auto d = r.evaluate(f.cop, f.utkMapping(), 5);
  EXPECT_TRUE(d.migrate);
  EXPECT_GT(d.remainingOnCurrentSec,
            d.remainingOnTargetSec + d.assumedMigrationCostSec);
  // Target should be the UIUC cluster.
  EXPECT_EQ(f.g.node(d.target[0]).cluster(), f.tb.uiuc);
}

TEST(Rescheduler, WorstCaseCostSuppressesMarginalMigration) {
  ReschedulerFixture f(8000);
  // Emulate the running application's own occupancy (two ranks per dual
  // node) plus the paper's artificial load on one node.
  for (const auto id : f.tb.utkNodes) f.g.node(id).injectLoad(2.0);
  f.g.node(f.tb.utkNodes[0]).injectLoad(2.65);
  f.eng.runUntil(60.0);
  ReschedulerOptions opts;
  opts.worstCaseMigrationSec = 900.0;
  StopRestartRescheduler pessimistic(*f.gis, f.nws.get(), opts);
  opts.worstCaseMigrationSec = 430.0;
  StopRestartRescheduler realistic(*f.gis, f.nws.get(), opts);
  // Early-run remaining work at N=8000: the benefit sits between the
  // pessimistic (900 s) and realistic (~430 s) cost assumptions — the
  // paper's wrong-decision regime.
  EXPECT_FALSE(pessimistic.evaluate(f.cop, f.utkMapping(), 5).migrate);
  EXPECT_TRUE(realistic.evaluate(f.cop, f.utkMapping(), 5).migrate);
}

TEST(Rescheduler, ForcedModesOverrideCostModel) {
  ReschedulerFixture f;
  f.g.node(f.tb.utkNodes[0]).injectLoad(8.0);
  f.eng.runUntil(60.0);
  ReschedulerOptions opts;
  opts.mode = ReschedulerMode::kForcedStay;
  StopRestartRescheduler stay(*f.gis, f.nws.get(), opts);
  EXPECT_FALSE(stay.evaluate(f.cop, f.utkMapping(), 5).migrate);
  opts.mode = ReschedulerMode::kForcedMigrate;
  StopRestartRescheduler migrate(*f.gis, f.nws.get(), opts);
  EXPECT_TRUE(migrate.evaluate(f.cop, f.utkMapping(), 5).migrate);
}

TEST(Rescheduler, OnViolationRequestsStopThroughRss) {
  ReschedulerFixture f(12000);
  f.g.node(f.tb.utkNodes[0]).injectLoad(4.0);
  f.eng.runUntil(60.0);
  StopRestartRescheduler r(*f.gis, f.nws.get(), ReschedulerOptions{});
  Rss rss(f.eng, f.cop.name);
  rss.beginIncarnation(8);
  const auto outcome = r.onViolation(f.cop, rss, f.utkMapping(), 5);
  EXPECT_EQ(outcome, autopilot::RescheduleOutcome::kMigrated);
  EXPECT_TRUE(rss.stopRequested());
  EXPECT_EQ(r.decisions().size(), 1u);
}

TEST(Rescheduler, OpportunisticMigratesOnFreedResources) {
  ReschedulerFixture f(12000);
  // Another app occupies all UIUC nodes, so our app sits on loaded UTK.
  std::vector<sim::PsResource::LoadId> occupied;
  for (const auto id : f.tb.uiucNodes) {
    occupied.push_back(f.g.node(id).injectLoad(1.0));
  }
  f.g.node(f.tb.utkNodes[0]).injectLoad(4.0);
  f.eng.runUntil(60.0);

  ReschedulerOptions opts;
  opts.opportunistic = true;
  StopRestartRescheduler r(*f.gis, f.nws.get(), opts);
  Rss rss(f.eng, f.cop.name);
  rss.beginIncarnation(8);
  StopRestartRescheduler::RunningApp handle;
  handle.cop = &f.cop;
  handle.rss = &rss;
  handle.mapping = [&f] { return f.utkMapping(); };
  handle.phase = [] { return std::size_t{5}; };
  r.registerRunning(f.cop.name, handle);

  // UIUC busy → no migration even when the "other app finished" event fires.
  r.onAppCompleted();
  EXPECT_FALSE(rss.stopRequested());

  // Free the UIUC nodes (the other app completed) and give NWS time to see.
  for (std::size_t i = 0; i < occupied.size(); ++i) {
    f.g.node(f.tb.uiucNodes[i]).removeLoad(occupied[i]);
  }
  f.eng.runUntil(160.0);
  r.onAppCompleted();
  EXPECT_TRUE(rss.stopRequested());
}

TEST(Rescheduler, NotOpportunisticByDefault) {
  ReschedulerFixture f;
  StopRestartRescheduler r(*f.gis, f.nws.get(), ReschedulerOptions{});
  Rss rss(f.eng, f.cop.name);
  rss.beginIncarnation(8);
  StopRestartRescheduler::RunningApp handle;
  handle.cop = &f.cop;
  handle.rss = &rss;
  handle.mapping = [&f] { return f.utkMapping(); };
  handle.phase = [] { return std::size_t{0}; };
  r.registerRunning(f.cop.name, handle);
  r.onAppCompleted();
  EXPECT_FALSE(rss.stopRequested());
  EXPECT_TRUE(r.decisions().empty());
}

/// The Figure-4 virtual grid, instantiated from the same DML as
/// bench::runSwapExperiment: the application runs on the three UTK nodes and
/// may swap onto the three UIUC ones.
struct SwapFixture {
  sim::Engine eng;
  grid::Grid g{eng};
  grid::ClusterId uiucCluster = grid::kNoId;
  std::vector<grid::NodeId> utk;
  std::vector<grid::NodeId> uiuc;
  std::unique_ptr<vmpi::World> world;
  std::vector<grid::NodeId> pool;

  SwapFixture() {
    microgrid::instantiate(
        g, microgrid::parseDml(microgrid::swapExperimentDml()));
    uiucCluster = *g.findCluster("uiuc");
    utk = g.clusterNodes(*g.findCluster("utk"));
    uiuc = g.clusterNodes(uiucCluster);
    world = std::make_unique<vmpi::World>(
        g, std::vector<grid::NodeId>{utk[0], utk[1], utk[2]}, "nbody");
    pool = utk;
    pool.insert(pool.end(), uiuc.begin(), uiuc.end());
  }

  SwapConfig config(SwapPolicy p) const {
    SwapConfig c;
    c.policy = p;
    c.flopsPerRankPerIteration = 5e8;
    return c;
  }
};

TEST(Swap, RejectsActiveOutsidePool) {
  SwapFixture f;
  EXPECT_THROW(SwapManager(*f.world, {f.uiuc[0], f.uiuc[1], f.uiuc[2]},
                           nullptr, f.config(SwapPolicy::kGreedy)),
               InvalidArgument);
}

TEST(Swap, NeverPolicyNeverSwaps) {
  SwapFixture f;
  SwapManager swap(*f.world, f.pool, nullptr, f.config(SwapPolicy::kNever));
  f.g.node(f.utk[0]).injectLoad(5.0);
  swap.evaluate();
  EXPECT_EQ(swap.pendingSwaps(), 0u);
}

TEST(Swap, GreedySwapsDegradedNode) {
  SwapFixture f;
  SwapManager swap(*f.world, f.pool, nullptr, f.config(SwapPolicy::kGreedy));
  swap.evaluate();
  EXPECT_EQ(swap.pendingSwaps(), 0u);  // nothing degraded yet
  f.g.node(f.utk[0]).injectLoad(3.0);
  swap.evaluate();
  EXPECT_EQ(swap.pendingSwaps(), 1u);  // only the loaded node is replaced
}

TEST(Swap, PendingSwapAppliedAtIterationBoundary) {
  SwapFixture f;
  SwapManager swap(*f.world, f.pool, nullptr, f.config(SwapPolicy::kGreedy));
  f.g.node(f.utk[0]).injectLoad(3.0);
  swap.evaluate();
  ASSERT_EQ(swap.pendingSwaps(), 1u);
  for (int r = 0; r < 3; ++r) {
    f.eng.spawn([](SwapManager& s, int rank) -> sim::Task {
      co_await s.atIterationBoundary(rank);
    }(swap, r));
  }
  f.eng.run();
  EXPECT_EQ(swap.pendingSwaps(), 0u);
  ASSERT_EQ(swap.history().size(), 1u);
  EXPECT_EQ(swap.history()[0].from, f.utk[0]);
  // Rank 0 now runs on a UIUC node (the only idle faster option).
  EXPECT_EQ(f.g.node(f.world->nodeOf(0)).cluster(), f.uiucCluster);
}

TEST(Swap, ModelBasedMovesWholeSetAcrossClusters) {
  // The paper's Figure 4 behaviour: with one UTK node degraded, the policy
  // prefers the *whole* UIUC cluster over a mixed set that pays WAN latency
  // every iteration.
  SwapFixture f;
  auto cfg = f.config(SwapPolicy::kModelBased);
  cfg.messagesPerIteration = 50.0;  // make cross-cluster latency expensive
  SwapManager swap(*f.world, f.pool, nullptr, cfg);
  f.g.node(f.utk[0]).injectLoad(3.0);
  swap.evaluate();
  EXPECT_EQ(swap.pendingSwaps(), 3u);  // all three ranks move
}

TEST(Swap, ModelBasedStaysWhenCurrentIsBest) {
  SwapFixture f;
  SwapManager swap(*f.world, f.pool, nullptr,
                   f.config(SwapPolicy::kModelBased));
  swap.evaluate();
  EXPECT_EQ(swap.pendingSwaps(), 0u);
}

TEST(Swap, PredictIterationAccountsForLatency) {
  SwapFixture f;
  auto cfg = f.config(SwapPolicy::kModelBased);
  cfg.messagesPerIteration = 10.0;
  SwapManager swap(*f.world, f.pool, nullptr, cfg);
  const double utkOnly =
      swap.predictIterationSeconds({f.utk[0], f.utk[1], f.utk[2]});
  const double mixed =
      swap.predictIterationSeconds({f.utk[0], f.utk[1], f.uiuc[0]});
  // The mixed set pays 10 × 11 ms WAN latency per iteration and is gated by
  // the slower UIUC node.
  EXPECT_GT(mixed, utkOnly + 0.1);
}

TEST(Swap, FailedTransferLeavesRankInPlace) {
  // A swap whose process image cannot cross the network is dropped at the
  // iteration boundary: the rank keeps its node, and every rank still
  // passes the boundary.
  SwapFixture f;
  SwapManager swap(*f.world, f.pool, nullptr, f.config(SwapPolicy::kGreedy));
  f.g.node(f.utk[0]).injectLoad(3.0);
  swap.evaluate();
  ASSERT_EQ(swap.pendingSwaps(), 1u);
  const grid::NodeId before = f.world->nodeOf(0);
  for (const auto l : f.g.route(f.utk[0], f.uiuc[0]).links) {
    f.g.link(l).setUp(false);
  }
  int passed = 0;
  for (int r = 0; r < 3; ++r) {
    f.eng.spawn([](SwapManager& s, int rank, int& n) -> sim::Task {
      co_await s.atIterationBoundary(rank);
      ++n;
    }(swap, r, passed));
  }
  f.eng.run();
  EXPECT_EQ(passed, 3);
  EXPECT_EQ(f.world->nodeOf(0), before);
  EXPECT_TRUE(swap.history().empty());
  EXPECT_EQ(swap.pendingSwaps(), 0u);
}

TEST(Swap, EndToEndNBodyRunSwapsUnderLoad) {
  SwapFixture f;
  services::Nws nws(f.eng, f.g, 5.0, 0.0, 3);
  nws.start();
  apps::NBodyConfig cfg;
  cfg.particles = 4000;
  cfg.iterations = 40;
  auto scfg = f.config(SwapPolicy::kModelBased);
  scfg.flopsPerRankPerIteration = apps::nbodyIterationFlopsPerRank(cfg, 3);
  SwapManager swap(*f.world, f.pool, &nws, scfg);
  swap.start();
  grid::applyLoadTrace(f.eng, f.g.node(f.utk[0]),
                       grid::LoadTrace::stepAt(4.0, 2.0));
  apps::NBodyProgress progress;
  for (int r = 0; r < 3; ++r) {
    f.eng.spawn(apps::nbodyRank(*f.world, &swap, cfg, r, nullptr, "nbody",
                                &progress));
  }
  f.eng.run();
  EXPECT_EQ(progress.samples.size(), 40u);
  EXPECT_GE(swap.history().size(), 3u);
  // Everyone ends on UIUC.
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(f.g.node(f.world->nodeOf(r)).cluster(), f.uiucCluster);
  }
}

// ---------------------------------------------------------------------------
// Transactional migrations through the application manager: a node killed
// between the action's prepare (journal open) and commit (all ranks restored
// on the target) must resolve as a rollback, and the run must complete.
// Both tests run the catalog's mid-action kill at thrash_campaign's first
// seed.
// ---------------------------------------------------------------------------

TEST(Journal, MigrationTargetDeathRollsBackToPriorMapping) {
  const auto out = bench::runMidActionKill(17, /*killTarget=*/true);
  ASSERT_TRUE(out.killed);
  EXPECT_GT(out.bd.totalSeconds, 0.0) << out.error;  // the run completed
  EXPECT_EQ(out.openAtEnd, 0);                       // no stranded records
  EXPECT_GE(out.bd.actionsRolledBack, 1);
  // Find the rolled-back action and check the relaunch restored its exact
  // prior active set.
  const ActionRecord* rb = nullptr;
  for (const auto& r : out.records) {
    ASSERT_NE(r.state, ActionState::kPrepared);
    ASSERT_NE(r.state, ActionState::kCommitting);
    if (r.state == ActionState::kRolledBack && rb == nullptr) rb = &r;
  }
  ASSERT_NE(rb, nullptr);
  ASSERT_GE(out.bd.mappings.size(), 2u);
  EXPECT_EQ(out.bd.mappings[0], rb->prior);
  EXPECT_EQ(out.bd.mappings[1], rb->prior);  // resumed on the old nodes
}

TEST(Journal, RecoveryScanIsIdempotent) {
  // Crash-restart can run the recovery scan more than once (e.g. a restore
  // that itself crashes and is restored again). The second scan must be a
  // pure no-op: nothing re-resolved, no counter drift, records untouched.
  sim::Engine eng;
  ActionJournal journal(eng);
  const int a = journal.open("qr", ActionKind::kMigrate, {1, 2}, {3, 4});
  const int b = journal.open("nbody", ActionKind::kPreempt, {5, 6});
  journal.beginCommit(a);
  ASSERT_EQ(journal.inFlight(), 2);

  EXPECT_EQ(journal.recover("control-plane restart"), 2);
  EXPECT_EQ(journal.inFlight(), 0);
  EXPECT_EQ(journal.recoveries(), 1);
  EXPECT_EQ(journal.record(a).state, ActionState::kRolledBack);
  EXPECT_EQ(journal.record(b).state, ActionState::kRolledBack);
  const auto firstScan = journal.records();
  const int rolledBack = journal.rolledBack();

  // Second scan over the already-recovered journal.
  EXPECT_EQ(journal.recover("control-plane restart"), 0);
  EXPECT_EQ(journal.recoveries(), 1);  // only scans that resolved count
  EXPECT_EQ(journal.rolledBack(), rolledBack);
  EXPECT_EQ(journal.inFlight(), 0);
  ASSERT_EQ(journal.records().size(), firstScan.size());
  for (std::size_t i = 0; i < firstScan.size(); ++i) {
    EXPECT_EQ(journal.records()[i].state, firstScan[i].state);
    EXPECT_EQ(journal.records()[i].resolvedAt, firstScan[i].resolvedAt);
    EXPECT_EQ(journal.records()[i].note, firstScan[i].note);
  }

  // A post-recovery action opened by the restored control plane is *not*
  // touched by a later stray scan wave until it is actually unresolved at
  // scan time — recover() resolves it (it is open), but exactly once.
  const int c = journal.open("qr", ActionKind::kMigrate, {3, 4});
  journal.commit(c, "normal resolution");
  EXPECT_EQ(journal.recover("late scan"), 0);
  EXPECT_EQ(journal.record(c).state, ActionState::kCommitted);
}

TEST(Journal, MigrationSourceDeathRollsBackAndRemaps) {
  // Killing a *source* node mid-prepare aborts the stop checkpoint; the
  // action rolls back, and since the prior mapping lost a node the manager
  // remaps from scratch — the run must still complete with nothing open.
  const auto out = bench::runMidActionKill(17, /*killTarget=*/false);
  ASSERT_TRUE(out.killed);
  EXPECT_GT(out.bd.totalSeconds, 0.0) << out.error;
  EXPECT_EQ(out.openAtEnd, 0);
  EXPECT_GE(out.bd.actionsRolledBack, 1);
  for (const auto& r : out.records) {
    EXPECT_GE(r.resolvedAt, 0.0);  // every action resolved
  }
}

}  // namespace
}  // namespace grads::reschedule
