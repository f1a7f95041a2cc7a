// Multi-tenant metascheduler: admission/backpressure, fair share, tiers,
// brownout ladder, journaled checkpoint-and-park preemption, and
// snapshot/restore of the whole frontend.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <set>
#include <vector>

#include "core/snapshot.hpp"
#include "grid/testbeds.hpp"
#include "metasched/admission.hpp"
#include "metasched/frontend.hpp"
#include "metasched/types.hpp"
#include "scenarios.hpp"
#include "services/gis.hpp"
#include "sim/engine.hpp"
#include "util/hash.hpp"

namespace grads {
namespace {

// ---------------------------------------------------------------------------
// BrownoutController (pure hysteresis-ladder logic).
// ---------------------------------------------------------------------------

metasched::BrownoutOptions ladderOpts() {
  metasched::BrownoutOptions o;
  o.dwellSec = 10.0;
  return o;
}

TEST(Brownout, ClimbsOneRungPerUpdate) {
  metasched::BrownoutController c(ladderOpts());
  EXPECT_EQ(c.level(), metasched::BrownoutLevel::kFull);
  // Pressure far above every threshold still climbs one rung at a time.
  EXPECT_TRUE(c.update(5.0, 0.0));
  EXPECT_EQ(c.level(), metasched::BrownoutLevel::kDeferLow);
  EXPECT_TRUE(c.update(5.0, 10.0));
  EXPECT_EQ(c.level(), metasched::BrownoutLevel::kPark);
  EXPECT_TRUE(c.update(5.0, 20.0));
  EXPECT_EQ(c.level(), metasched::BrownoutLevel::kShed);
  EXPECT_FALSE(c.update(5.0, 30.0));  // top rung: nowhere to go
  EXPECT_EQ(c.escalations(), 3);
}

TEST(Brownout, DwellBlocksImmediateTransitions) {
  metasched::BrownoutController c(ladderOpts());
  EXPECT_TRUE(c.update(5.0, 0.0));
  EXPECT_FALSE(c.update(5.0, 5.0));  // inside the 10 s dwell
  EXPECT_EQ(c.level(), metasched::BrownoutLevel::kDeferLow);
  EXPECT_TRUE(c.update(5.0, 10.0));
}

TEST(Brownout, HysteresisBandHoldsTheRung) {
  metasched::BrownoutController c(ladderOpts());
  EXPECT_TRUE(c.update(0.4, 0.0));  // above enter[0]=0.35
  // Pressure between exit[0]=0.25 and enter[1]=0.65: neither direction moves.
  EXPECT_FALSE(c.update(0.3, 20.0));
  EXPECT_FALSE(c.update(0.6, 40.0));
  EXPECT_EQ(c.level(), metasched::BrownoutLevel::kDeferLow);
  EXPECT_TRUE(c.update(0.1, 60.0));  // below exit[0]: de-escalate
  EXPECT_EQ(c.level(), metasched::BrownoutLevel::kFull);
  EXPECT_EQ(c.deescalations(), 1);
}

TEST(Brownout, SnapshotRoundTrip) {
  metasched::BrownoutController a(ladderOpts());
  a.update(5.0, 0.0);
  a.update(5.0, 10.0);
  core::SnapshotWriter w;
  w(a);
  metasched::BrownoutController b(ladderOpts());
  core::SnapshotReader r(w.words());
  r(b);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(b.level(), metasched::BrownoutLevel::kPark);
  EXPECT_EQ(b.escalations(), 2);
  // Dwell anchor survives: an immediate post-restore update is still held.
  EXPECT_FALSE(b.update(5.0, 12.0));
  EXPECT_TRUE(b.update(5.0, 20.0));
}

TEST(TenantLedger, SnapshotRoundTrip) {
  metasched::TenantLedger a;
  a.submitted = 10;
  a.admitted = 7;
  a.shed = 3;
  a.completed = 5;
  a.slowdowns = {1.5, 2.25, 4.0};
  core::SnapshotWriter w;
  w(a);
  metasched::TenantLedger b;
  core::SnapshotReader r(w.words());
  r(b);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(b.submitted, 10);
  EXPECT_EQ(b.admitted, 7);
  EXPECT_EQ(b.shed, 3);
  EXPECT_EQ(b.completed, 5);
  EXPECT_EQ(b.slowdowns, a.slowdowns);
}

// ---------------------------------------------------------------------------
// AdmissionController decisions.
// ---------------------------------------------------------------------------

struct AdmissionRig {
  sim::Engine eng;
  grid::Grid g{eng};
  std::optional<services::Gis> gis;
  std::vector<grid::NodeId> slots;

  explicit AdmissionRig(int nSlots) {
    const auto site = g.addCluster(grid::ClusterSpec{
        "site", "Site", grid::fastEthernetLan("site.lan", nSlots)});
    for (int i = 0; i < nSlots; ++i) {
      slots.push_back(g.addNode(site, grid::utkQrNodeSpec(i)));
    }
    gis.emplace(g);
  }
};

TEST(Admission, DisabledAdmitsEverything) {
  AdmissionRig rig(2);
  metasched::AdmissionOptions o;
  o.enabled = false;
  metasched::AdmissionController c(rig.g, *rig.gis, nullptr, rig.slots, o);
  const auto d = c.decide(0, 1 << 20, 1 << 20, 1e9,
                          metasched::BrownoutLevel::kShed);
  EXPECT_TRUE(d.admit);
}

TEST(Admission, QueueAndBacklogBoundsShedWithHints) {
  AdmissionRig rig(2);
  metasched::AdmissionOptions o;
  o.maxQueuedPerTenant = 4;
  o.maxQueuedTotal = 10;
  o.maxBacklogSec = 100.0;
  o.retryAfterMinSec = 30.0;
  o.retryAfterMaxSec = 200.0;
  metasched::AdmissionController c(rig.g, *rig.gis, nullptr, rig.slots, o);

  EXPECT_TRUE(c.decide(0, 0, 0, 0.0, metasched::BrownoutLevel::kFull).admit);
  const auto tenantFull =
      c.decide(0, 4, 5, 10.0, metasched::BrownoutLevel::kFull);
  EXPECT_FALSE(tenantFull.admit);
  EXPECT_STREQ(tenantFull.reason, "tenant-queue-full");
  const auto globalFull =
      c.decide(0, 1, 10, 10.0, metasched::BrownoutLevel::kFull);
  EXPECT_FALSE(globalFull.admit);
  EXPECT_STREQ(globalFull.reason, "global-queue-full");
  const auto backlog =
      c.decide(0, 1, 1, 150.0, metasched::BrownoutLevel::kFull);
  EXPECT_FALSE(backlog.admit);
  EXPECT_STREQ(backlog.reason, "backlog");
  // Hint = clamp(0.5 * backlog, min, max).
  EXPECT_DOUBLE_EQ(backlog.retryAfterSec, 75.0);
  EXPECT_DOUBLE_EQ(tenantFull.retryAfterSec, 30.0);   // clamped up
  const auto huge = c.decide(0, 4, 5, 1e6, metasched::BrownoutLevel::kFull);
  EXPECT_DOUBLE_EQ(huge.retryAfterSec, 200.0);        // clamped down
}

TEST(Admission, ShedRungProtectsHighTier) {
  AdmissionRig rig(2);
  metasched::AdmissionOptions o;
  metasched::AdmissionController c(rig.g, *rig.gis, nullptr, rig.slots, o);
  EXPECT_FALSE(c.decide(0, 0, 0, 0.0, metasched::BrownoutLevel::kShed).admit);
  EXPECT_FALSE(c.decide(1, 0, 0, 0.0, metasched::BrownoutLevel::kShed).admit);
  EXPECT_TRUE(c.decide(2, 0, 0, 0.0, metasched::BrownoutLevel::kShed).admit);
}

TEST(Admission, CapacitySkipsUnreachableNodes) {
  AdmissionRig rig(2);
  metasched::AdmissionOptions o;
  metasched::AdmissionController c(rig.g, *rig.gis, nullptr, rig.slots, o);
  const double full = c.capacityFlops();
  EXPECT_GT(full, 0.0);
  // Reachability is ground truth (a fail-stopped node drops out of the
  // capacity estimate immediately, before the GIS directory catches up).
  rig.gis->setNodeReachable(rig.slots[0], false);
  EXPECT_LT(c.capacityFlops(), full);
}

// ---------------------------------------------------------------------------
// Whole-frontend scenarios over a real control plane.
// ---------------------------------------------------------------------------

using bench::World;

/// Builds a world with `nSlots` single-rank slots and the given frontend
/// tweak applied on top of test-friendly defaults. `armDaemons=false` for
/// restore arms, as in bench::build.
void buildWorld(World& w, int nSlots,
                const std::function<void(metasched::FrontendOptions&)>& tweak,
                bool armDaemons = true) {
  const auto site = w.g.addCluster(grid::ClusterSpec{
      "site", "Site", grid::fastEthernetLan("site.lan", nSlots)});
  std::vector<grid::NodeId> slots;
  for (int i = 0; i < nSlots; ++i) {
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
  fo.hardDeadlineSec = 0.0;
  fo.controlPeriodSec = 30.0;
  fo.flopsPerPhase = refRate * 15.0;
  fo.refFlopsPerSec = refRate;
  fo.seed = 0x5eed;
  fo.jobOptions.resourceSelectionSec = 1.0;
  fo.jobOptions.perfModelingSec = 0.5;
  fo.jobOptions.appStartPerRankSec = 0.5;
  fo.jobOptions.monitorContract = false;
  tweak(fo);
  w.meta.emplace(*w.mgr, w.g, *w.gis, &*w.nws, &*w.journal, std::move(fo));
  bench::registerComponents(w);
  if (armDaemons) bench::startDaemons(w);
}

metasched::TenantSpec tenant(const char* name, int tier, double weight,
                             double rate, double xmSec, double refRate,
                             std::uint64_t seed) {
  metasched::TenantSpec t;
  t.name = name;
  t.tier = tier;
  t.weight = weight;
  t.baseRatePerSec = rate;
  t.paretoXmFlops = refRate * xmSec;
  t.paretoAlpha = 1.9;
  t.maxJobFlops = refRate * xmSec * 8.0;
  t.resubmit.maxAttempts = 3;
  t.resubmit.baseDelaySec = 20.0;
  t.resubmit.maxDelaySec = 200.0;
  t.resubmit.jitterFrac = 0.2;
  t.seed = seed;
  return t;
}

void auditTotals(const World& w) {
  const metasched::FrontendTotals t = w.meta->totals();
  EXPECT_TRUE(w.meta->drained());
  EXPECT_EQ(w.meta->jobsInSystem(), 0);
  // Every admitted job reached exactly one terminal state.
  EXPECT_EQ(t.admitted, t.completed + t.failed + t.unserved);
  EXPECT_EQ(t.submitted, t.admitted + t.shed);
  EXPECT_EQ(t.parks, t.unparked);
}

TEST(MetaScheduler, RetryAfterHintPacesResubmits) {
  World w;
  buildWorld(w, 1, [](metasched::FrontendOptions& fo) {
    fo.horizonSec = 1500.0;
    auto t = tenant("only", 0, 1.0, 1.0 / 120.0, 40.0, fo.refFlopsPerSec, 5);
    t.resubmit.maxAttempts = 2;
    t.resubmit.baseDelaySec = 1.0;  // far below the hint
    t.resubmit.jitterFrac = 0.0;    // exact spacing
    fo.tenants = {t};
    fo.admission.maxQueuedTotal = 0;  // shed every submission
    fo.admission.retryAfterMinSec = 150.0;
    fo.brownout.enabled = false;
    fo.preempt.enabled = false;
  });
  std::vector<double> shedTimes;
  w.meta->setOnTransition([&w, &shedTimes](const char* kind) {
    if (std::string(kind) == "shed") shedTimes.push_back(w.eng.now());
  });
  w.meta->start();
  w.eng.run();
  w.eng.rethrowIfFailed();

  const metasched::TenantLedger& led = w.meta->ledgers()[0];
  EXPECT_EQ(led.admitted, 0);
  EXPECT_GT(led.shed, 0);
  EXPECT_GT(led.resubmits, 0);
  // Every job ends abandoned: either its retry budget ran out or its only
  // retry would have landed past the submission horizon.
  EXPECT_EQ(led.abandoned, led.submitted - led.resubmits);
  EXPECT_EQ(w.meta->jobsInSystem(), 0);
  // With backoff far below the retry-after hint and no jitter, every
  // resubmission is shed again exactly hint seconds after its first shed
  // (up to one ulp of virtual-time rounding).
  std::vector<double> sorted(shedTimes);
  std::sort(sorted.begin(), sorted.end());
  std::int64_t paced = 0;
  for (const double t : shedTimes) {
    const auto it = std::lower_bound(sorted.begin(), sorted.end(),
                                     t - 150.0 - 1e-6);
    if (it != sorted.end() && *it <= t - 150.0 + 1e-6) ++paced;
  }
  EXPECT_EQ(paced, led.resubmits);
}

TEST(MetaScheduler, BackoffExhaustionUnderSimulatedDeadline) {
  World w;
  buildWorld(w, 1, [](metasched::FrontendOptions& fo) {
    fo.horizonSec = 300.0;
    auto t = tenant("only", 0, 1.0, 1.0 / 60.0, 40.0, fo.refFlopsPerSec, 5);
    t.resubmit.maxAttempts = 10;      // budget never exhausts...
    t.resubmit.baseDelaySec = 400.0;  // ...but every retry lands past the
    t.resubmit.jitterFrac = 0.0;      //    horizon (simulated-time deadline)
    fo.tenants = {t};
    fo.admission.maxQueuedTotal = 0;
    fo.brownout.enabled = false;
    fo.preempt.enabled = false;
  });
  w.meta->start();
  w.eng.run();
  w.eng.rethrowIfFailed();
  const metasched::TenantLedger& led = w.meta->ledgers()[0];
  EXPECT_GT(led.submitted, 0);
  EXPECT_EQ(led.resubmits, 0);  // no retry fit inside the horizon
  EXPECT_EQ(led.abandoned, led.submitted);
  EXPECT_EQ(w.meta->jobsInSystem(), 0);
}

TEST(MetaScheduler, FairShareHonorsWeightsWithinTier) {
  World w;
  buildWorld(w, 2, [](metasched::FrontendOptions& fo) {
    // Deadline == horizon: the asymmetric drain tail (the 3x tenant's queue
    // empties first, handing the slow tenant a solo run) is dropped as
    // unserved instead of diluting the dispatch ratio.
    fo.horizonSec = 6000.0;
    fo.hardDeadlineSec = 6000.0;
    // Both saturated far beyond two slots; queues stay non-empty.
    fo.tenants = {
        tenant("w3", 1, 3.0, 1.0 / 20.0, 60.0, fo.refFlopsPerSec, 7),
        tenant("w1", 1, 1.0, 1.0 / 20.0, 60.0, fo.refFlopsPerSec, 8),
    };
    fo.admission.maxQueuedPerTenant = 40;
    fo.admission.maxQueuedTotal = 80;
    fo.admission.maxBacklogSec = 1e9;  // only queue depth binds
    fo.brownout.enabled = false;
    fo.preempt.enabled = false;
  });
  w.meta->start();
  w.eng.run();
  w.eng.rethrowIfFailed();
  const auto& ledgers = w.meta->ledgers();
  ASSERT_GT(ledgers[1].dispatched, 0);
  const double ratio = static_cast<double>(ledgers[0].dispatched) /
                       static_cast<double>(ledgers[1].dispatched);
  // Stride scheduling under saturation tracks the 3:1 weight ratio.
  EXPECT_GT(ratio, 2.2);
  EXPECT_LT(ratio, 3.8);
  auditTotals(w);
}

TEST(MetaScheduler, StrictTierPriority) {
  World w;
  buildWorld(w, 1, [](metasched::FrontendOptions& fo) {
    fo.horizonSec = 3000.0;
    fo.hardDeadlineSec = 20000.0;
    fo.tenants = {
        tenant("hi", 2, 1.0, 1.0 / 60.0, 50.0, fo.refFlopsPerSec, 7),
        tenant("lo", 0, 1.0, 1.0 / 60.0, 50.0, fo.refFlopsPerSec, 8),
    };
    fo.admission.maxQueuedPerTenant = 30;
    fo.admission.maxQueuedTotal = 60;
    fo.admission.maxBacklogSec = 1e9;
    fo.brownout.enabled = false;
    fo.preempt.enabled = false;  // isolate queue-order priority
  });
  w.meta->start();
  w.eng.run();
  w.eng.rethrowIfFailed();
  const auto& ledgers = w.meta->ledgers();
  ASSERT_GT(ledgers[0].completed, 0);
  ASSERT_GT(ledgers[1].completed, 0);
  const auto meanSlowdown = [](const metasched::TenantLedger& led) {
    double s = 0.0;
    for (const double x : led.slowdowns) s += x;
    return s / static_cast<double>(led.slowdowns.size());
  };
  // One slot, both tenants saturated: high tier jumps every queue cycle,
  // so its waiting time collapses relative to the batch tenant.
  EXPECT_LT(meanSlowdown(ledgers[0]) * 2.0, meanSlowdown(ledgers[1]));
  auditTotals(w);
}

/// Starvation-driven preemption on one slot: a batch tenant with long jobs
/// occupies the slot; a rare high-tier tenant arrives, starves past
/// highTierMaxWaitSec, and preempts (first at 390 s).
void applyPreemptConfig(metasched::FrontendOptions& fo) {
  const double refRate = fo.refFlopsPerSec;
  fo.horizonSec = 900.0;
  fo.hardDeadlineSec = 0.0;
  auto batch = tenant("batch", 0, 1.0, 1.0 / 150.0, 400.0, refRate, 7);
  batch.maxJobFlops = refRate * 500.0;
  auto hi = tenant("hi", 2, 1.0, 1.0 / 300.0, 30.0, refRate, 8);
  hi.maxJobFlops = refRate * 60.0;
  fo.tenants = {batch, hi};
  fo.admission.maxQueuedPerTenant = 50;
  fo.admission.maxQueuedTotal = 100;
  fo.admission.maxBacklogSec = 1e9;
  fo.brownout.enabled = false;  // starvation alone must trigger the park
  fo.preempt.minRunSec = 20.0;
  fo.preempt.cooldownSec = 60.0;
  fo.preempt.highTierMaxWaitSec = 60.0;
}

/// Restores `bytes` into `w`, built with armDaemons = false, through the
/// catalog's restore sequence, and runs it to drain.
void restoreAndDrain(World& w, const std::vector<std::uint8_t>& bytes) {
  bench::restore(w, bytes);
  w.eng.run();
  w.eng.rethrowIfFailed();
}

TEST(MetaScheduler, PreemptParksThroughJournalAndResumes) {
  World w;
  buildWorld(w, 1, applyPreemptConfig);
  std::vector<metasched::JobStats> stats;
  w.meta->setOnJobComplete(
      [&stats](const metasched::JobStats& s) { stats.push_back(s); });
  w.meta->start();
  w.eng.run();
  w.eng.rethrowIfFailed();

  const metasched::FrontendTotals t = w.meta->totals();
  EXPECT_GT(t.preempted, 0);
  EXPECT_GT(t.parks, 0);
  EXPECT_EQ(t.parks, t.unparked);
  EXPECT_EQ(t.failed, 0);
  // Each park rode the journal's prepare->commit path and resolved.
  EXPECT_GT(w.journal->opened(), 0);
  EXPECT_GT(w.journal->committed(), 0);
  EXPECT_EQ(w.journal->inFlight(), 0);
  // The victim's RunBreakdown surfaces the park (satellite: counters).
  bool sawPark = false;
  for (const auto& s : stats) {
    if (s.breakdown.preemptParks > 0) sawPark = true;
  }
  EXPECT_TRUE(sawPark);
  auditTotals(w);
}

TEST(MetaScheduler, BreakdownSurfacesAdmissionCounters) {
  World w;
  bench::build(w, "tenant-overload", 41, /*armDaemons=*/true);
  std::vector<metasched::JobStats> stats;
  w.meta->setOnJobComplete(
      [&stats](const metasched::JobStats& s) { stats.push_back(s); });
  w.meta->start();
  w.eng.run();
  w.eng.rethrowIfFailed();
  // Under 2x overload with tight admission, some completed job was shed at
  // least once before being admitted — and its breakdown says so.
  bool sawShedThenComplete = false;
  for (const auto& s : stats) {
    if (s.breakdown.admissionSheds > 0 &&
        s.breakdown.admissionRetries == s.breakdown.admissionSheds) {
      sawShedThenComplete = true;
    }
  }
  EXPECT_TRUE(sawShedThenComplete);
  const metasched::FrontendTotals t = w.meta->totals();
  EXPECT_GT(t.shed, 0);
  EXPECT_GT(t.brownoutEscalations, 0);
  auditTotals(w);
}

TEST(MetaScheduler, SnapshotRestoreResumesAndDrains) {
  // Run the catalog's tenant-overload scenario to mid-flight, capture a
  // whole-simulation snapshot, and restore it into two fresh control planes:
  // both must drain completely and agree bit-for-bit (restore is a pure
  // function of the image).
  World a;
  bench::build(a, "tenant-overload", 41, /*armDaemons=*/true);
  a.meta->start();
  a.eng.runUntil(700.0);
  const std::vector<std::uint8_t> bytes = a.mgr->snapshotNow().serialize();

  const auto drainedDigest = [&bytes](World& w) {
    bench::build(w, "tenant-overload", 41, /*armDaemons=*/false);
    restoreAndDrain(w, bytes);
    util::DigestStream ds;
    w.meta->foldDigest(ds);
    return ds.digest();
  };

  World b;
  const std::uint64_t db = drainedDigest(b);
  EXPECT_TRUE(b.meta->drained());
  EXPECT_EQ(b.meta->totals().failed, 0);
  auditTotals(b);

  World c;
  const std::uint64_t dc = drainedDigest(c);
  EXPECT_EQ(db, dc);
}

TEST(MetaScheduler, RestoredRunningJobIsStillAPreemptionVictim) {
  // Capture the preemption world 30 s before its first preempt: the batch
  // job holding the slot must come back as a victim the restored frontend
  // can park, exactly as it would have been without the crash.
  World a;
  buildWorld(a, 1, applyPreemptConfig);
  a.meta->start();
  a.eng.runUntil(360.0);
  ASSERT_EQ(a.meta->totals().preempted, 0);
  const std::vector<std::uint8_t> bytes = a.mgr->snapshotNow().serialize();

  World b;
  buildWorld(b, 1, applyPreemptConfig, /*armDaemons=*/false);
  restoreAndDrain(b, bytes);
  EXPECT_GT(b.meta->totals().preempted, 0);
  EXPECT_EQ(b.meta->totals().failed, 0);
  auditTotals(b);
}

}  // namespace
}  // namespace grads
