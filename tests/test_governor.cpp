#include <gtest/gtest.h>

#include "core/snapshot.hpp"
#include "reschedule/governor.hpp"
#include "reschedule/journal.hpp"
#include "scenarios.hpp"
#include "util/error.hpp"

namespace grads::reschedule {
namespace {

// ---------------------------------------------------------------------------
// ActionJournal: the write-ahead log of rescheduling transactions.
// ---------------------------------------------------------------------------

TEST(Journal, OpenCommitLifecycle) {
  sim::Engine eng;
  ActionJournal j(eng);
  EXPECT_EQ(j.openAction("qr"), nullptr);
  EXPECT_LT(j.lastResolvedAt("qr"), 0.0);

  const int id = j.open("qr", ActionKind::kMigrate, {1, 2}, {});
  EXPECT_EQ(j.inFlight(), 1);
  ASSERT_NE(j.openAction("qr"), nullptr);
  EXPECT_EQ(j.openAction("qr")->id, id);
  EXPECT_EQ(j.record(id).state, ActionState::kPrepared);
  EXPECT_EQ(j.record(id).prior, (std::vector<grid::NodeId>{1, 2}));

  j.setTarget(id, {5, 6});
  EXPECT_EQ(j.record(id).target, (std::vector<grid::NodeId>{5, 6}));
  j.beginCommit(id);
  EXPECT_EQ(j.record(id).state, ActionState::kCommitting);
  j.commit(id, "all ranks restored");
  EXPECT_EQ(j.record(id).state, ActionState::kCommitted);
  EXPECT_GE(j.record(id).resolvedAt, 0.0);
  EXPECT_EQ(j.record(id).note, "all ranks restored");
  EXPECT_EQ(j.openAction("qr"), nullptr);
  EXPECT_EQ(j.inFlight(), 0);
  EXPECT_EQ(j.committed(), 1);
  EXPECT_EQ(j.committedFor("qr"), 1);
  EXPECT_EQ(j.rolledBack(), 0);
  EXPECT_GE(j.lastResolvedAt("qr"), 0.0);
}

TEST(Journal, RollbackResolvesFromEitherPhase) {
  sim::Engine eng;
  ActionJournal j(eng);
  // Rollback straight from kPrepared (fault during the reversible phase).
  const int a = j.open("qr", ActionKind::kMigrate, {1});
  j.rollback(a, "checkpoint incomplete");
  EXPECT_EQ(j.record(a).state, ActionState::kRolledBack);
  EXPECT_EQ(j.record(a).note, "checkpoint incomplete");
  // Rollback from kCommitting (fault inside the commit window).
  const int b = j.open("qr", ActionKind::kPreempt, {2}, {3});
  j.beginCommit(b);
  j.rollback(b, "target died mid-transfer");
  EXPECT_EQ(j.record(b).state, ActionState::kRolledBack);
  EXPECT_EQ(j.rolledBack(), 2);
  EXPECT_EQ(j.rolledBackFor("qr"), 2);
  EXPECT_EQ(j.inFlight(), 0);
}

TEST(Journal, SecondOpenForSameAppThrows) {
  // At most one open action per app: the "doubly mapped" failure mode is
  // structurally excluded.
  sim::Engine eng;
  ActionJournal j(eng);
  j.open("qr", ActionKind::kMigrate, {1});
  EXPECT_THROW(j.open("qr", ActionKind::kPreempt, {1}), InvalidArgument);
  // A different app is fine, and resolving reopens the slot.
  EXPECT_NO_THROW(j.open("other", ActionKind::kMigrate, {2}));
  j.rollback(j.openAction("qr")->id, "fault");
  EXPECT_NO_THROW(j.open("qr", ActionKind::kMigrate, {1}));
}

TEST(Journal, RecoveryScanFindsOnlyUnresolvedActions) {
  sim::Engine eng;
  ActionJournal j(eng);
  const int a = j.open("a", ActionKind::kMigrate, {1});
  j.open("b", ActionKind::kMigrate, {2});
  j.commit(a);
  EXPECT_EQ(j.openAction("a"), nullptr);
  ASSERT_NE(j.openAction("b"), nullptr);
  EXPECT_EQ(j.inFlight(), 1);
}

TEST(Journal, OnTransitionFiresOnEveryTransition) {
  sim::Engine eng;
  ActionJournal j(eng);
  std::vector<ActionState> seen;
  j.setOnTransition([&](const ActionRecord& r) { seen.push_back(r.state); });
  const int a = j.open("a", ActionKind::kMigrate, {1});
  j.beginCommit(a);
  j.commit(a);
  j.rollback(j.open("a", ActionKind::kMigrate, {1}), "fault");
  EXPECT_EQ(seen, (std::vector<ActionState>{
                      ActionState::kPrepared, ActionState::kCommitting,
                      ActionState::kCommitted, ActionState::kPrepared,
                      ActionState::kRolledBack}));
}

TEST(Journal, TalliesSurviveDecode) {
  sim::Engine eng;
  ActionJournal j(eng);
  eng.runUntil(5.0);
  j.commit(j.open("qr", ActionKind::kMigrate, {1}));
  eng.runUntil(10.0);
  j.rollback(j.open("qr", ActionKind::kPreempt, {1}, {2}), "target died");
  j.rollback(j.open("nbody", ActionKind::kMigrate, {3}), "fault");
  eng.runUntil(15.0);
  j.commit(j.open("qr", ActionKind::kMigrate, {1}));
  eng.runUntil(20.0);
  j.beginCommit(j.open("nbody", ActionKind::kPreempt, {3}));
  ASSERT_EQ(j.committedFor("qr"), 2);
  ASSERT_EQ(j.rolledBackFor("qr"), 1);
  ASSERT_EQ(j.lastResolvedAt("qr"), 15.0);
  ASSERT_EQ(j.rolledBackFor("nbody"), 1);
  ASSERT_EQ(j.lastResolvedAt("nbody"), 10.0);

  core::SnapshotRegistry reg;
  reg.add(j);
  const auto bytes = reg.capture(eng.now()).serialize();
  sim::Engine eng2;
  ActionJournal k(eng2);
  core::SnapshotRegistry reg2;
  reg2.add(k);
  reg2.restore(core::SnapshotImage::parse(bytes));

  for (const std::string app : {"qr", "nbody"}) {
    EXPECT_EQ(k.committedFor(app), j.committedFor(app)) << app;
    EXPECT_EQ(k.rolledBackFor(app), j.rolledBackFor(app)) << app;
    EXPECT_EQ(k.lastResolvedAt(app), j.lastResolvedAt(app)) << app;
    const ActionRecord* was = j.openAction(app);
    const ActionRecord* now = k.openAction(app);
    ASSERT_EQ(was == nullptr, now == nullptr) << app;
    if (was != nullptr) {
      EXPECT_EQ(now->id, was->id) << app;
    }
  }
  EXPECT_EQ(k.inFlight(), j.inFlight());
  EXPECT_EQ(k.committed(), j.committed());
  EXPECT_EQ(k.rolledBack(), j.rolledBack());
  EXPECT_EQ(k.committedFor("absent"), 0);
  EXPECT_EQ(k.rolledBackFor("absent"), 0);
  EXPECT_EQ(k.lastResolvedAt("absent"), -1.0);
}

// ---------------------------------------------------------------------------
// ViolationGovernor: quorum, hysteresis, cooldown, concurrency.
// ---------------------------------------------------------------------------

autopilot::ViolationReport report(std::size_t phase, double avgRatio = 3.0,
                                  double upper = 1.5) {
  autopilot::ViolationReport r;
  r.app = "qr";
  r.phase = phase;
  r.ratio = avgRatio;
  r.avgRatio = avgRatio;
  r.upperTolerance = upper;
  return r;
}

TEST(Governor, QuorumRequiresKViolatingPhases) {
  sim::Engine eng;
  ActionJournal j(eng);
  GovernorOptions opts;
  opts.quorumK = 3;
  opts.quorumN = 5;
  opts.cooldownSec = 0.0;
  ViolationGovernor gov(eng, j, opts);
  EXPECT_EQ(gov.admit(report(1)), GovernorVerdict::kQuorumPending);
  EXPECT_EQ(gov.admit(report(2)), GovernorVerdict::kQuorumPending);
  EXPECT_EQ(gov.admit(report(3)), GovernorVerdict::kAdmit);
  EXPECT_EQ(gov.stats().admitted, 1);
  EXPECT_EQ(gov.stats().quorumPending, 2);
}

TEST(Governor, SamePhaseReRaiseDoesNotCountTwice) {
  // One slow phase re-confirmed by several windowed averages is a single
  // sensor reading, not a quorum.
  sim::Engine eng;
  ActionJournal j(eng);
  GovernorOptions opts;
  opts.quorumK = 2;
  opts.cooldownSec = 0.0;
  ViolationGovernor gov(eng, j, opts);
  EXPECT_EQ(gov.admit(report(1)), GovernorVerdict::kQuorumPending);
  EXPECT_EQ(gov.admit(report(1)), GovernorVerdict::kQuorumPending);
  EXPECT_EQ(gov.admit(report(1)), GovernorVerdict::kQuorumPending);
  EXPECT_EQ(gov.admit(report(2)), GovernorVerdict::kAdmit);
}

TEST(Governor, QuorumWindowPrunesOldPhases) {
  // Two violations quorumN phases apart never co-exist in the window.
  sim::Engine eng;
  ActionJournal j(eng);
  GovernorOptions opts;
  opts.quorumK = 2;
  opts.quorumN = 4;
  opts.cooldownSec = 0.0;
  ViolationGovernor gov(eng, j, opts);
  EXPECT_EQ(gov.admit(report(1)), GovernorVerdict::kQuorumPending);
  EXPECT_EQ(gov.admit(report(10)), GovernorVerdict::kQuorumPending);
  EXPECT_EQ(gov.admit(report(11)), GovernorVerdict::kAdmit);
}

TEST(Governor, HysteresisBandSuppressesMarginalRatios) {
  sim::Engine eng;
  ActionJournal j(eng);
  GovernorOptions opts;
  opts.quorumK = 2;
  opts.hysteresisBand = 0.1;  // threshold = 1.5 * 1.1 = 1.65
  opts.cooldownSec = 0.0;
  ViolationGovernor gov(eng, j, opts);
  EXPECT_EQ(gov.admit(report(1, 1.6)), GovernorVerdict::kQuorumPending);
  // Quorum reached, but the windowed ratio hovers inside the dead band.
  EXPECT_EQ(gov.admit(report(2, 1.6)), GovernorVerdict::kInsideHysteresis);
  EXPECT_EQ(gov.admit(report(3, 1.6)), GovernorVerdict::kInsideHysteresis);
  // A genuinely degraded ratio clears the band and goes through.
  EXPECT_EQ(gov.admit(report(4, 1.7)), GovernorVerdict::kAdmit);
}

TEST(Governor, CooldownAfterResolvedAction) {
  sim::Engine eng;
  ActionJournal j(eng);
  GovernorOptions opts;
  opts.quorumK = 2;
  opts.cooldownSec = 180.0;
  ViolationGovernor gov(eng, j, opts);
  // An action just resolved (commit at t=10).
  eng.runUntil(10.0);
  j.commit(j.open("qr", ActionKind::kMigrate, {1}));
  eng.runUntil(20.0);
  EXPECT_EQ(gov.admit(report(1)), GovernorVerdict::kQuorumPending);
  EXPECT_EQ(gov.admit(report(2)), GovernorVerdict::kCoolingDown);
  // Rollbacks anchor the cooldown too (a failed action must not be
  // immediately retried into the same fault).
  eng.runUntil(100.0);
  EXPECT_EQ(gov.admit(report(3)), GovernorVerdict::kCoolingDown);
  // Past the window, the same sustained signal goes through.
  eng.runUntil(10.0 + 180.0 + 1.0);
  EXPECT_EQ(gov.admit(report(4)), GovernorVerdict::kAdmit);
  EXPECT_EQ(gov.statsFor("qr").coolingDown, 2);
}

TEST(Governor, ConcurrencyLimitCountsOpenActions) {
  sim::Engine eng;
  ActionJournal j(eng);
  GovernorOptions opts;
  opts.quorumK = 2;
  opts.cooldownSec = 0.0;
  opts.maxConcurrentActions = 1;
  ViolationGovernor gov(eng, j, opts);
  // Another application holds an open (unresolved) action.
  const int other = j.open("other-app", ActionKind::kMigrate, {9});
  EXPECT_EQ(gov.admit(report(1)), GovernorVerdict::kQuorumPending);
  EXPECT_EQ(gov.admit(report(2)), GovernorVerdict::kConcurrencyLimited);
  // The slot frees when the action resolves.
  j.commit(other);
  EXPECT_EQ(gov.admit(report(3)), GovernorVerdict::kAdmit);
}

TEST(Governor, ResetAppClearsQuorumHistory) {
  // Phase numbering restarts after a migration; pre-restart violations must
  // not count toward a post-restart quorum.
  sim::Engine eng;
  ActionJournal j(eng);
  GovernorOptions opts;
  opts.quorumK = 2;
  opts.cooldownSec = 0.0;
  ViolationGovernor gov(eng, j, opts);
  EXPECT_EQ(gov.admit(report(3)), GovernorVerdict::kQuorumPending);
  gov.resetApp("qr");
  EXPECT_EQ(gov.admit(report(4)), GovernorVerdict::kQuorumPending);
  EXPECT_EQ(gov.admit(report(5)), GovernorVerdict::kAdmit);
}

// ---------------------------------------------------------------------------
// End-to-end anti-thrash scenario: antiphase flapping load on a symmetric
// two-cluster testbed. Ungoverned, the rescheduler chases the load
// (migrate → migrate-back, repeatedly); governed, the same signals produce
// at most the initial migration and zero oscillations.
// ---------------------------------------------------------------------------

struct FlapOutcome {
  int migrations = 0;
  int oscillations = 0;
  int suppressed = 0;
};

/// The catalog's thrash-governed world at thrash_campaign's first seed; the
/// raw arm leaves the governor unwired, as the campaign's does.
FlapOutcome runFlap(bool governed) {
  bench::World w;
  bench::build(w, "thrash-governed", 17, /*armDaemons=*/true);
  if (!governed) w.mopts.governor = nullptr;
  bench::spawnApps(w, /*restored=*/false);
  w.eng.run();
  w.eng.rethrowIfFailed();
  const core::RunBreakdown& bd = w.bd;
  EXPECT_GT(bd.totalSeconds, 0.0);
  FlapOutcome out;
  out.migrations = bd.incarnations > 0 ? bd.incarnations - 1 : 0;
  out.oscillations = bench::countOscillations(bd.mappings);
  out.suppressed = bd.violationsSuppressed;
  return out;
}

TEST(Governor, FlappingLoadThrashesUngoverned) {
  const FlapOutcome raw = runFlap(false);
  EXPECT_GE(raw.migrations, 4);
  EXPECT_GE(raw.oscillations, 3);
  EXPECT_EQ(raw.suppressed, 0);
}

TEST(Governor, FlappingLoadGovernedDoesNotOscillate) {
  const FlapOutcome governed = runFlap(true);
  EXPECT_LE(governed.migrations, 1);
  EXPECT_EQ(governed.oscillations, 0);
  EXPECT_GT(governed.suppressed, 0);
}

}  // namespace
}  // namespace grads::reschedule
