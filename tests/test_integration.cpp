// End-to-end reproduction guards: these tests pin the *shape* of the
// paper's headline results (Figure 3, Figure 4, MicroGrid fidelity,
// opportunistic rescheduling) so regressions in any subsystem surface here.

#include <gtest/gtest.h>

#include "apps/nbody.hpp"
#include "apps/qr.hpp"
#include "core/app_manager.hpp"
#include "grid/load.hpp"
#include "grid/testbeds.hpp"
#include "microgrid/dml.hpp"
#include "reschedule/rescheduler.hpp"
#include "reschedule/swap.hpp"
#include "services/gis.hpp"
#include "services/ibp.hpp"
#include "services/nws.hpp"
#include "sim/sync.hpp"

namespace grads {
namespace {

struct QrRun {
  core::RunBreakdown breakdown;
  bool migrated = false;
};

QrRun runQrScenario(std::size_t n, reschedule::ReschedulerMode mode) {
  sim::Engine eng;
  grid::Grid g(eng);
  const auto tb = grid::buildQrTestbed(g);
  services::Gis gis(g);
  gis.installEverywhere(services::software::kLocalBinder);
  gis.installEverywhere(services::software::kScalapack);
  gis.installEverywhere(services::software::kSrsLibrary);
  gis.installEverywhere(services::software::kAutopilotSensors);
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
  QrRun run;
  eng.spawn(manager.run(cop, &rescheduler, core::ManagerOptions{},
                        &run.breakdown));
  eng.run();
  run.migrated = run.breakdown.incarnations > 1;
  return run;
}

TEST(Fig3, SmallProblemStaysAndThatIsCorrect) {
  const auto stay = runQrScenario(6000, reschedule::ReschedulerMode::kForcedStay);
  const auto mig =
      runQrScenario(6000, reschedule::ReschedulerMode::kForcedMigrate);
  const auto dflt = runQrScenario(6000, reschedule::ReschedulerMode::kDefault);
  EXPECT_LT(stay.breakdown.totalSeconds, mig.breakdown.totalSeconds);
  EXPECT_FALSE(dflt.migrated);
}

TEST(Fig3, WrongDecisionAtN8000) {
  // "for matrix size 8000, the rescheduler assumed an experimentally-
  // determined worst-case rescheduling cost of 900 seconds while the actual
  // rescheduling cost was about 420 seconds" → it stays although migration
  // actually wins.
  const auto stay = runQrScenario(8000, reschedule::ReschedulerMode::kForcedStay);
  const auto mig =
      runQrScenario(8000, reschedule::ReschedulerMode::kForcedMigrate);
  const auto dflt = runQrScenario(8000, reschedule::ReschedulerMode::kDefault);
  EXPECT_LT(mig.breakdown.totalSeconds, stay.breakdown.totalSeconds);
  EXPECT_FALSE(dflt.migrated) << "the pessimistic estimate must win";
  // Actual rescheduling cost ≈ 420 s, dominated by reading checkpoints.
  const double read = mig.breakdown.sumSegment(mig.breakdown.checkpointRead);
  const double write = mig.breakdown.sumSegment(mig.breakdown.checkpointWrite);
  EXPECT_NEAR(read, 420.0, 60.0);
  EXPECT_GT(read, 20.0 * write);
}

TEST(Fig3, LargeProblemMigratesAndBenefits) {
  const auto stay =
      runQrScenario(12000, reschedule::ReschedulerMode::kForcedStay);
  const auto mig =
      runQrScenario(12000, reschedule::ReschedulerMode::kForcedMigrate);
  const auto dflt = runQrScenario(12000, reschedule::ReschedulerMode::kDefault);
  EXPECT_TRUE(dflt.migrated);
  EXPECT_LT(mig.breakdown.totalSeconds, 0.75 * stay.breakdown.totalSeconds);
  // "the rescheduling benefits are greater for large problem sizes".
  EXPECT_LT(dflt.breakdown.totalSeconds, stay.breakdown.totalSeconds);
}

struct SwapRun {
  apps::NBodyProgress progress;
  std::vector<reschedule::SwapManager::SwapEvent> swaps;
  std::vector<grid::ClusterId> finalClusters;
  double finishedAt = 0.0;
};

/// The Figure-4 scenario, on the MicroGrid emulation (virtualization
/// overheads on) or, with `emulated` = false, directly simulated.
SwapRun runSwapScenario(reschedule::SwapPolicy policy, bool emulated = true) {
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
  SwapRun run;
  for (int r = 0; r < 3; ++r) {
    eng.spawn(apps::nbodyRank(world, &swap, cfg, r, nullptr, "nbody",
                              &run.progress));
  }
  eng.run();
  run.swaps = swap.history();
  run.finishedAt = eng.now();
  for (int r = 0; r < 3; ++r) {
    run.finalClusters.push_back(g.node(world.nodeOf(r)).cluster());
  }
  return run;
}

TEST(Fig4, AllWorkersSwapToUiucShortlyAfterLoad) {
  const auto run = runSwapScenario(reschedule::SwapPolicy::kModelBased);
  ASSERT_EQ(run.swaps.size(), 3u);
  for (const auto& e : run.swaps) {
    EXPECT_GT(e.time, 80.0);    // no swaps before the load appears
    EXPECT_LT(e.time, 150.0);   // "migrated ... by time 150 seconds"
  }
  // All three workers end on the same (UIUC) cluster.
  EXPECT_EQ(run.finalClusters[0], run.finalClusters[1]);
  EXPECT_EQ(run.finalClusters[1], run.finalClusters[2]);
}

TEST(Fig4, ProgressSlopeDipsAndRecovers) {
  const auto run = runSwapScenario(reschedule::SwapPolicy::kModelBased);
  const auto& s = run.progress.samples;
  ASSERT_GT(s.size(), 40u);
  // Per-iteration time before the load (samples 5..25 are safely pre-80 s).
  const double before = (s[25].first - s[5].first) / 20.0;
  // The worst single iteration (the loaded interval before the swap lands).
  double maxGap = 0.0;
  double maxGapAt = 0.0;
  for (std::size_t i = 1; i < s.size(); ++i) {
    const double gap = s[i].first - s[i - 1].first;
    if (gap > maxGap) {
      maxGap = gap;
      maxGapAt = s[i].first;
    }
  }
  // Per-iteration time over the final 20 iterations (post-swap, on UIUC).
  const double after =
      (s.back().first - s[s.size() - 21].first) / 20.0;

  EXPECT_GT(maxGap, 2.0 * before);          // the dip is pronounced...
  EXPECT_GE(maxGapAt, 80.0);                // ...and caused by the load
  EXPECT_LE(maxGapAt, 160.0);
  EXPECT_LT(after, 0.7 * maxGap);           // slope recovers after the swap
  // UIUC nodes are slower than unloaded UTK but far better than loaded UTK.
  EXPECT_LT(after, 1.5 * before);
}

TEST(Fig4, SwappingBeatsNoSwapping) {
  const auto swap = runSwapScenario(reschedule::SwapPolicy::kModelBased);
  const auto noSwap = runSwapScenario(reschedule::SwapPolicy::kNever);
  EXPECT_LT(swap.finishedAt, 0.7 * noSwap.finishedAt);
}

TEST(MicrogridFidelity, EmulationTracksDirectSimulation) {
  // The same Fig-4 scenario with and without emulation overheads.
  const auto direct =
      runSwapScenario(reschedule::SwapPolicy::kModelBased, false);
  const auto emulated = runSwapScenario(reschedule::SwapPolicy::kModelBased);
  EXPECT_EQ(direct.swaps.size(), emulated.swaps.size());  // same decisions
  EXPECT_NEAR(emulated.finishedAt, direct.finishedAt, 0.05 * direct.finishedAt);
}

}  // namespace
}  // namespace grads
