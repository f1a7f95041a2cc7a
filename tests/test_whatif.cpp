// Unit + integration tests for the what-if fork driver
// (reschedule/whatif): graceful degradation to model-only, budget trimming,
// minimax candidate selection with deterministic tie-breaks, shadow-mode
// purity, the mistrust ledger feeding the governor cooldown, snapshot
// round-trip, and — through the shared bench harness — bit-identical fork
// replay plus the zero-live-state-divergence oracle.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/snapshot.hpp"
#include "reschedule/whatif/fork_driver.hpp"
#include "sim/engine.hpp"
#include "whatif_world.hpp"

namespace grads::reschedule::whatif {
namespace {

/// Stub-runner fixture: a driver armed with a canned snapshot and a
/// per-candidate outcome table, so candidate selection is tested without
/// spinning up sandbox control planes.
struct DriverFixture {
  sim::Engine eng;
  DriverOptions opts;

  DriverFixture() {
    opts.budget.maxForks = 12;
    opts.budget.pessimisticFutures = 1;
  }

  ForkDriver makeArmed(ForkOutcome (*score)(const ForkRequest&)) {
    ForkDriver drv(eng, opts);
    drv.setSnapshotSource([] { return std::vector<std::uint8_t>{1, 2, 3}; });
    drv.setRunner([score](const ForkRequest& rq) { return score(rq); });
    return drv;
  }

  static ForkDriver::DecisionInput migrateInput() {
    ForkDriver::DecisionInput in;
    in.app = "qr";
    in.current = {1, 2};
    in.modelWantedMigrate = true;
    in.modelTarget = {5, 6};
    return in;
  }
};

ForkOutcome cleanOutcome(const ForkRequest&) {
  ForkOutcome o;
  o.completed = true;
  o.makespanSec = 100.0;
  o.progressSec = 90.0;
  return o;
}

/// Migrating looks clean in every future; staying put realizes violations.
ForkOutcome migrateWins(const ForkRequest& rq) {
  ForkOutcome o = cleanOutcome(rq);
  if (rq.candidate.kind == CandidateKind::kSuppress) {
    o.violationRecurrences = 2;
  }
  return o;
}

/// The model's migration thrashes (recurrence + migrate-back) under every
/// future; suppressing rides it out.
ForkOutcome suppressWins(const ForkRequest& rq) {
  ForkOutcome o = cleanOutcome(rq);
  if (rq.candidate.kind == CandidateKind::kMigrate) {
    o.violationRecurrences = 1;
    o.migrateBacks = 1;
  }
  return o;
}

TEST(ForkDriver, UnarmedFallsBackToModelDecision) {
  DriverFixture f;
  ForkDriver drv(f.eng, f.opts);
  EXPECT_FALSE(drv.armed());
  const auto d = drv.decide(DriverFixture::migrateInput());
  EXPECT_FALSE(d.fromForks);
  EXPECT_EQ(d.kind, CandidateKind::kMigrate);
  EXPECT_EQ(d.target, std::vector<grid::NodeId>({5, 6}));
  EXPECT_EQ(drv.stats().fallbacks, 1);
  EXPECT_EQ(drv.stats().forksRun, 0);
  ASSERT_EQ(drv.decisions().size(), 1u);
  EXPECT_EQ(drv.decisions()[0].fallbackReason, "no sandbox runner");
}

TEST(ForkDriver, SingleCandidateFallsBack) {
  DriverFixture f;
  ForkDriver drv = f.makeArmed(&cleanOutcome);
  ForkDriver::DecisionInput in;
  in.app = "qr";
  in.current = {1, 2};
  in.modelWantedMigrate = false;  // only the suppress candidate exists
  const auto d = drv.decide(in);
  EXPECT_FALSE(d.fromForks);
  EXPECT_EQ(d.kind, CandidateKind::kSuppress);
  ASSERT_EQ(drv.decisions().size(), 1u);
  EXPECT_EQ(drv.decisions()[0].fallbackReason, "no competing candidates");
}

TEST(ForkDriver, BudgetShedsPessimisticFuturesBeforeGivingUp) {
  DriverFixture f;
  f.opts.budget.pessimisticFutures = 3;  // 2 candidates x 4 futures = 8 asks
  f.opts.budget.maxForks = 4;            // ...trimmed to 2 x 2 = 4 forks
  ForkDriver drv = f.makeArmed(&cleanOutcome);
  const auto d = drv.decide(DriverFixture::migrateInput());
  EXPECT_TRUE(d.fromForks);
  EXPECT_EQ(drv.stats().forksRun, 4);
  EXPECT_EQ(drv.stats().fallbacks, 0);
  ASSERT_EQ(drv.decisions().size(), 1u);
  // The nominal future survives the trim for every candidate.
  for (const auto& cs : drv.decisions()[0].scores) {
    ASSERT_FALSE(cs.futures.empty());
    EXPECT_EQ(cs.futures[0].perturbation.kind, PerturbationKind::kNone);
  }
}

TEST(ForkDriver, ExhaustedBudgetDegradesToModelOnly) {
  DriverFixture f;
  f.opts.budget.maxForks = 1;  // 2 candidates don't fit even one future each
  ForkDriver drv = f.makeArmed(&cleanOutcome);
  const auto d = drv.decide(DriverFixture::migrateInput());
  EXPECT_FALSE(d.fromForks);
  EXPECT_EQ(d.kind, CandidateKind::kMigrate);  // model decision passes through
  EXPECT_EQ(drv.stats().forksRun, 0);
  ASSERT_EQ(drv.decisions().size(), 1u);
  EXPECT_EQ(drv.decisions()[0].fallbackReason, "fork budget exhausted");
}

TEST(ForkDriver, MinimaxConfirmsTheModelWhenMigrationIsClean) {
  DriverFixture f;
  ForkDriver drv = f.makeArmed(&migrateWins);
  const auto d = drv.decide(DriverFixture::migrateInput());
  EXPECT_TRUE(d.fromForks);
  EXPECT_EQ(d.kind, CandidateKind::kMigrate);
  EXPECT_EQ(d.target, std::vector<grid::NodeId>({5, 6}));
  EXPECT_EQ(drv.stats().overrides, 0);
}

TEST(ForkDriver, MinimaxVetoesAThrashingMigration) {
  DriverFixture f;
  ForkDriver drv = f.makeArmed(&suppressWins);
  const auto d = drv.decide(DriverFixture::migrateInput());
  EXPECT_TRUE(d.fromForks);
  EXPECT_EQ(d.kind, CandidateKind::kSuppress);
  EXPECT_EQ(drv.stats().overrides, 1);
  EXPECT_EQ(drv.stats().suppressChosen, 1);
}

TEST(ForkDriver, ThreeCandidateRacePicksTheLeastWorstCase) {
  DriverFixture f;
  // Model target aborts its sandbox, suppress recurs, the alternate is
  // clean: the alternate must win the three-way race.
  ForkDriver drv = f.makeArmed(+[](const ForkRequest& rq) {
    ForkOutcome o = cleanOutcome(rq);
    if (rq.candidate.label == "model-target") o.aborted = true;
    if (rq.candidate.kind == CandidateKind::kSuppress) {
      o.violationRecurrences = 1;
    }
    return o;
  });
  ForkDriver::DecisionInput in = DriverFixture::migrateInput();
  in.alternateTarget = {7, 8};
  const auto d = drv.decide(in);
  EXPECT_TRUE(d.fromForks);
  EXPECT_EQ(d.kind, CandidateKind::kMigrate);
  EXPECT_EQ(d.target, std::vector<grid::NodeId>({7, 8}));
  EXPECT_EQ(drv.stats().overrides, 1);  // target differs from the model's
  EXPECT_EQ(drv.stats().forksRun, 6);   // 3 candidates x (nominal + 1)
}

TEST(ForkDriver, ExactTiesGoToTheConservativeArm) {
  DriverFixture f;
  ForkDriver drv = f.makeArmed(&cleanOutcome);  // all candidates identical
  const auto d = drv.decide(DriverFixture::migrateInput());
  EXPECT_TRUE(d.fromForks);
  EXPECT_EQ(d.kind, CandidateKind::kSuppress);  // suppress is candidate 0
}

TEST(ForkDriver, ShadowModeRecordsVerdictButCommitsModel) {
  DriverFixture f;
  f.opts.shadowOnly = true;
  ForkDriver drv = f.makeArmed(&suppressWins);
  const auto d = drv.decide(DriverFixture::migrateInput());
  // The verdict (suppress) is recorded; the model decision is returned.
  EXPECT_FALSE(d.fromForks);
  EXPECT_EQ(d.kind, CandidateKind::kMigrate);
  EXPECT_EQ(d.target, std::vector<grid::NodeId>({5, 6}));
  EXPECT_EQ(drv.stats().overrides, 1);
  ASSERT_EQ(drv.decisions().size(), 1u);
  EXPECT_TRUE(drv.decisions()[0].shadow);
  EXPECT_EQ(drv.decisions()[0].chosen, 0);
  // No pending prediction, no mistrust: a later violation must not mutate
  // the ledger (the parent trajectory stays bit-identical to driver-less).
  drv.noteViolation("qr", 10.0);
  EXPECT_EQ(drv.stats().divergences, 0);
  EXPECT_EQ(drv.cooldownExtraFor("qr"), 0.0);
}

TEST(ForkDriver, DivergenceBumpsMistrustAndExtendsCooldown) {
  DriverFixture f;
  ForkDriver drv = f.makeArmed(&migrateWins);  // predicts a clean migration
  const auto d = drv.decide(DriverFixture::migrateInput());
  ASSERT_TRUE(d.fromForks);
  ASSERT_EQ(d.kind, CandidateKind::kMigrate);
  EXPECT_EQ(drv.cooldownExtraFor("qr"), 0.0);  // trusted until proven wrong

  // A confirmed violation inside the prediction horizon: the clean forecast
  // diverged, so the chosen nodes pick up mistrust and the governor's
  // cooldown for this app stretches.
  drv.noteViolation("qr", 50.0);
  EXPECT_EQ(drv.stats().divergences, 1);
  EXPECT_EQ(drv.mistrustOf(5), ForkDriver::kMistrustBump);
  EXPECT_EQ(drv.mistrustOf(6), ForkDriver::kMistrustBump);
  EXPECT_DOUBLE_EQ(
      drv.cooldownExtraFor("qr"),
      ForkDriver::kMistrustCooldownSec * ForkDriver::kMistrustBump);
  ASSERT_EQ(drv.decisions().size(), 1u);
  EXPECT_TRUE(drv.decisions()[0].settled);
  EXPECT_TRUE(drv.decisions()[0].diverged);
}

TEST(ForkDriver, CleanHorizonDecaysMistrust) {
  DriverFixture f;
  ForkDriver drv = f.makeArmed(&migrateWins);
  (void)drv.decide(DriverFixture::migrateInput());
  drv.noteViolation("qr", 50.0);  // diverge once: mistrust = bump
  const double bumped = drv.mistrustOf(5);
  ASSERT_GT(bumped, 0.0);

  // Second prediction expires clean (the violation arrives past the
  // horizon): the expiry settles first and decays the nodes' mistrust.
  f.eng.runUntil(100.0);
  (void)drv.decide(DriverFixture::migrateInput());
  drv.noteViolation("qr", 100.0 + ForkDriver::kHorizonSec + 1.0);
  EXPECT_DOUBLE_EQ(drv.mistrustOf(5), bumped * ForkDriver::kMistrustDecay);
  EXPECT_EQ(drv.stats().divergences, 1);  // no new divergence charged
}

TEST(ForkDriver, FutureEnsembleIsDeterministicInTheSeed) {
  DriverFixture f;
  f.opts.budget.pessimisticFutures = 3;
  std::vector<std::vector<Perturbation>> drawn(2);
  for (int run = 0; run < 2; ++run) {
    ForkDriver drv(f.eng, f.opts);
    drv.setSnapshotSource([] { return std::vector<std::uint8_t>{1}; });
    drv.setRunner([&drawn, run](const ForkRequest& rq) {
      if (rq.candidate.kind == CandidateKind::kSuppress) {
        drawn[static_cast<std::size_t>(run)].push_back(rq.perturbation);
      }
      return ForkOutcome{};
    });
    (void)drv.decide(DriverFixture::migrateInput());
  }
  ASSERT_EQ(drawn[0].size(), drawn[1].size());
  ASSERT_EQ(drawn[0].size(), 4u);  // nominal + 3 pessimistic
  for (std::size_t i = 0; i < drawn[0].size(); ++i) {
    EXPECT_EQ(drawn[0][i].kind, drawn[1][i].kind) << i;
    EXPECT_EQ(drawn[0][i].seed, drawn[1][i].seed) << i;
    EXPECT_EQ(drawn[0][i].severity, drawn[1][i].severity) << i;
  }
}

TEST(ForkDriver, StateRoundTripsThroughSnapshot) {
  DriverFixture f;
  ForkDriver drv = f.makeArmed(&suppressWins);
  (void)drv.decide(DriverFixture::migrateInput());
  ForkDriver::DecisionInput second = DriverFixture::migrateInput();
  second.alternateTarget = {7, 8};
  (void)drv.decide(second);
  drv.noteViolation("qr", 10.0);

  core::SnapshotWriter w;
  drv.encodeState(w);

  ForkDriver back(f.eng, f.opts);
  core::SnapshotReader r(w.words());
  back.decodeState(r);
  EXPECT_TRUE(r.done());

  EXPECT_EQ(back.decisions().size(), drv.decisions().size());
  EXPECT_EQ(back.stats().decisions, drv.stats().decisions);
  EXPECT_EQ(back.stats().forksRun, drv.stats().forksRun);
  EXPECT_EQ(back.stats().overrides, drv.stats().overrides);
  EXPECT_EQ(back.stats().divergences, drv.stats().divergences);
  EXPECT_EQ(back.mistrustOf(1), drv.mistrustOf(1));
  EXPECT_EQ(back.cooldownExtraFor("qr"), drv.cooldownExtraFor("qr"));

  // Encode/decode symmetry, proven at runtime: re-encoding the decoded
  // state reproduces the exact words.
  core::SnapshotWriter w2;
  back.encodeState(w2);
  EXPECT_EQ(w2.words(), w.words());
}

// --- Integration through the shared bench harness. -------------------------

TEST(WhatifForks, SameImageCandidateAndSeedReplayBitIdentically) {
  bench::WhatifConfig cfg;
  cfg.seed = 77;
  cfg.withDriver = false;
  bench::World w;
  bench::buildWhatifWorld(w, cfg, /*armDaemons=*/true);
  std::vector<std::uint8_t> bytes;
  w.mgr->snapshotAt(200.0, [&bytes](core::SnapshotImage img) {
    bytes = img.serialize();
  });
  bench::spawnApps(w, /*restored=*/false);
  // The breakdown is flushed to `w.bd` only when the coroutine completes, so
  // run the scenario to the end; the snapshot sink still fires at t=200.
  w.eng.run();
  ASSERT_FALSE(bytes.empty());
  ASSERT_FALSE(w.bd.mappings.empty());

  ForkRequest rq;
  rq.image = &bytes;
  rq.app = w.cop.name;
  rq.current = w.bd.mappings.front();
  rq.candidate = {CandidateKind::kSuppress, {}, "suppress"};
  rq.horizonSec = 180.0;
  rq.maxEvents = 400000;

  // The nominal future and one of each pessimistic kind, at a severity
  // inside the range the driver draws from.
  const Perturbation futures[] = {
      {PerturbationKind::kNone, 0, 0.0},
      {PerturbationKind::kTargetSlowdown, 9, 2.0},
      {PerturbationKind::kLinkDegrade, 9, 0.3},
      {PerturbationKind::kDepotOutage, 9, 200.0},
  };
  std::uint64_t nominal = 0;
  for (const Perturbation& p : futures) {
    SCOPED_TRACE(static_cast<int>(p.kind));
    rq.perturbation = p;
    const ForkOutcome a = bench::runWhatifFork(cfg, rq);
    const ForkOutcome b = bench::runWhatifFork(cfg, rq);
    EXPECT_EQ(a.forkDigest, b.forkDigest);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.violationRecurrences, b.violationRecurrences);
    EXPECT_EQ(a.migrateBacks, b.migrateBacks);
    EXPECT_EQ(a.makespanSec, b.makespanSec);
    EXPECT_FALSE(a.aborted);
    if (p.kind == PerturbationKind::kNone) {
      nominal = a.forkDigest;
    } else {
      // The perturbation reached the sandbox.
      EXPECT_NE(a.forkDigest, nominal);
    }
  }
}

TEST(WhatifForks, ShadowSpeculationLeavesParentReplayUnchanged) {
  bench::WhatifConfig cfg;
  cfg.seed = 31;
  cfg.driver.budget.maxForks = 4;
  cfg.driver.budget.pessimisticFutures = 1;

  cfg.withDriver = false;
  const bench::WhatifRunResult plain = bench::runWhatifScenario(cfg);

  cfg.withDriver = true;
  cfg.driver.shadowOnly = true;
  const bench::WhatifRunResult shadow = bench::runWhatifScenario(cfg);

  ASSERT_TRUE(plain.completed);
  ASSERT_TRUE(shadow.completed);
  EXPECT_GT(shadow.driver.decisions, 0);  // speculation actually happened
  // The zero-live-state-divergence invariant: a speculating shadow parent
  // replays bit-identically to a driver-less parent.
  EXPECT_EQ(shadow.digest, plain.digest);
}

}  // namespace
}  // namespace grads::reschedule::whatif
