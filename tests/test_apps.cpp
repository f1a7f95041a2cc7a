#include <gtest/gtest.h>

#include <numeric>

#include "apps/eman.hpp"
#include "apps/nbody.hpp"
#include "apps/qr.hpp"
#include "grid/testbeds.hpp"
#include "microgrid/dml.hpp"
#include "services/gis.hpp"
#include "sim/sync.hpp"
#include "util/error.hpp"
#include "workflow/scheduler.hpp"

namespace grads::apps {
namespace {

TEST(QrMath, PanelFlopsSumToQrTotal) {
  QrConfig cfg;
  cfg.n = 4000;
  double total = 0.0;
  for (std::size_t k = 0; k < qrPanelCount(cfg); ++k) {
    total += qrPanelFlops(cfg, k);
  }
  const double expected = 4.0 / 3.0 * 4000.0 * 4000.0 * 4000.0;
  EXPECT_NEAR(total, expected, 0.05 * expected);
}

TEST(QrMath, PanelFlopsDecreaseMonotonically) {
  QrConfig cfg;
  for (std::size_t k = 1; k < qrPanelCount(cfg); ++k) {
    EXPECT_LT(qrPanelFlops(cfg, k), qrPanelFlops(cfg, k - 1));
  }
}

TEST(QrMath, CheckpointSizeIsMatrixPlusRhs) {
  QrConfig cfg;
  cfg.n = 8000;
  EXPECT_DOUBLE_EQ(qrCheckpointBytes(cfg), 8000.0 * 8000.0 * 8.0 + 8000.0 * 8.0);
  // N=8000 → 488 MB matrix, matching the paper's dominant checkpoint size.
  EXPECT_NEAR(qrCheckpointBytes(cfg) / (1024.0 * 1024.0), 488.3, 0.5);
}

TEST(QrMath, BadConfigRejected) {
  QrConfig cfg;
  cfg.n = 0;
  EXPECT_THROW(qrPanelCount(cfg), InvalidArgument);
}

TEST(QrPerfModel, PhaseSumTracksTotalComputeTime) {
  sim::Engine eng;
  grid::Grid g(eng);
  const auto tb = grid::buildQrTestbed(g);
  QrConfig cfg;
  cfg.n = 6000;
  QrPerfModel model(g, cfg);
  std::vector<grid::NodeId> mapping;
  for (const auto id : tb.utkNodes) {
    mapping.push_back(id);
    mapping.push_back(id);
  }
  const double total = model.totalSeconds(mapping, nullptr);
  // Pure compute bound: 4/3 n³ / (8 ranks × 112 Mf/s) ≈ 321 s + bcast time.
  const double computeBound = 4.0 / 3.0 * 6000.0 * 6000.0 * 6000.0 /
                              (8.0 * 933e6 * 0.12);
  EXPECT_GT(total, computeBound);
  EXPECT_LT(total, 1.6 * computeBound);
}

TEST(QrPerfModel, SlowestRankGatesPrediction) {
  sim::Engine eng;
  grid::Grid g(eng);
  const auto tb = grid::buildQrTestbed(g);
  services::Nws nws(eng, g, 5.0, 0.0, 1);
  nws.start();
  g.node(tb.utkNodes[0]).injectLoad(3.0);
  eng.runUntil(30.0);
  QrConfig cfg;
  cfg.n = 6000;
  QrPerfModel model(g, cfg);
  std::vector<grid::NodeId> mapping;
  for (const auto id : tb.utkNodes) {
    mapping.push_back(id);
    mapping.push_back(id);
  }
  const double loaded =
      model.phaseSeconds(mapping, 0, &nws, core::RateView::kIncumbent);
  const double dedicated = model.phaseSeconds(mapping, 0, nullptr);
  // One degraded node (incumbent share 2/3 CPU) slows every phase.
  EXPECT_GT(loaded, 1.4 * dedicated);
}

TEST(QrApp, ActualRunMatchesModelPrediction) {
  // The contract only works if the executable model predicts the actual
  // simulated execution; check end-to-end agreement within 15%.
  sim::Engine eng;
  grid::Grid g(eng);
  const auto tb = grid::buildQrTestbed(g);
  QrConfig cfg;
  cfg.n = 3000;
  std::vector<grid::NodeId> mapping;
  for (const auto id : tb.utkNodes) {
    mapping.push_back(id);
    mapping.push_back(id);
  }
  QrPerfModel model(g, cfg);
  const double predicted = model.totalSeconds(mapping, nullptr);

  vmpi::World world(g, mapping, "qr");
  const auto cop = makeQrCop(g, cfg);
  core::LaunchContext ctx;
  ctx.appName = "qr";
  ctx.world = &world;
  sim::JoinSet ranks(eng);
  for (int r = 0; r < world.size(); ++r) ranks.spawn(cop.code(ctx, r));
  eng.spawn([](sim::JoinSet& js) -> sim::Task { co_await js.join(); }(ranks));
  eng.run();
  EXPECT_FALSE(ctx.stopped);
  EXPECT_EQ(ctx.completedPhases, qrPanelCount(cfg));
  EXPECT_NEAR(eng.now(), predicted, 0.15 * predicted);
}

TEST(NBody, IterationFlopsSplitAcrossRanks) {
  NBodyConfig cfg;
  cfg.particles = 1000;
  EXPECT_DOUBLE_EQ(nbodyIterationFlopsPerRank(cfg, 4),
                   20.0 * 1000.0 * 999.0 / 4.0);
}

/// The UTK nodes of the Figure-4 virtual grid, instantiated into `g` from
/// the same DML as bench::runSwapExperiment.
std::vector<grid::NodeId> swapGridUtkNodes(grid::Grid& g) {
  microgrid::instantiate(g,
                         microgrid::parseDml(microgrid::swapExperimentDml()));
  return g.clusterNodes(*g.findCluster("utk"));
}

TEST(NBody, ProgressSamplesAreMonotone) {
  sim::Engine eng;
  grid::Grid g(eng);
  const auto utk = swapGridUtkNodes(g);
  vmpi::World world(g, {utk[0], utk[1], utk[2]});
  NBodyConfig cfg;
  cfg.particles = 2000;
  cfg.iterations = 10;
  NBodyProgress progress;
  for (int r = 0; r < 3; ++r) {
    eng.spawn(nbodyRank(world, nullptr, cfg, r, nullptr, "nb", &progress));
  }
  eng.run();
  ASSERT_EQ(progress.samples.size(), 10u);
  for (std::size_t i = 1; i < progress.samples.size(); ++i) {
    EXPECT_GT(progress.samples[i].first, progress.samples[i - 1].first);
    EXPECT_EQ(progress.samples[i].second, static_cast<int>(i) + 1);
  }
}

TEST(NBody, MoreRanksFinishFaster) {
  auto runWith = [](int ranks) {
    sim::Engine eng;
    grid::Grid g(eng);
    const auto utk = swapGridUtkNodes(g);
    std::vector<grid::NodeId> mapping(utk.begin(), utk.begin() + ranks);
    vmpi::World world(g, mapping);
    NBodyConfig cfg;
    cfg.particles = 3000;
    cfg.iterations = 5;
    for (int r = 0; r < ranks; ++r) {
      eng.spawn(nbodyRank(world, nullptr, cfg, r, nullptr, "nb", nullptr));
    }
    eng.run();
    return eng.now();
  };
  EXPECT_LT(runWith(3), runWith(1));
}

TEST(Eman, ClassesbymraDominates) {
  EmanConfig cfg;
  const double classes = emanClassesbymraFlops(cfg);
  EXPECT_GT(classes, 5.0 * emanProject3dFlops(cfg));
  EXPECT_GT(classes, 5.0 * emanClassalign2Flops(cfg));
  EXPECT_GT(classes, 5.0 * emanMake3dFlops(cfg));
  EXPECT_GT(classes, 5.0 * emanProc3dFlops(cfg));
}

TEST(Eman, DagShapeIsLinearWithParallelStages) {
  EmanConfig cfg;
  cfg.parallelism = 8;
  const auto dag = buildEmanRefinementDag(cfg);
  // proc3d + 3 parallel stages of 8 + make3d + eotest.
  EXPECT_EQ(dag.size(), 1u + 3u * 8u + 2u);
  // Must be acyclic with a unique source and sink.
  const auto order = dag.topologicalOrder();
  EXPECT_EQ(order.size(), dag.size());
  std::size_t sources = 0;
  std::size_t sinks = 0;
  for (workflow::ComponentId c = 0; c < dag.size(); ++c) {
    if (dag.inEdges(c).empty()) ++sources;
    if (dag.successors(c).empty()) ++sinks;
  }
  EXPECT_EQ(sources, 1u);
  EXPECT_EQ(sinks, 1u);
}

TEST(Eman, AllComponentsRequireEmanSoftware) {
  EmanConfig cfg;
  const auto dag = buildEmanRefinementDag(cfg);
  for (workflow::ComponentId c = 0; c < dag.size(); ++c) {
    const auto& sw = dag.component(c).requiredSoftware;
    EXPECT_NE(std::find(sw.begin(), sw.end(), "eman"), sw.end());
  }
}

TEST(Eman, SchedulesOntoHeterogeneousTestbed) {
  // §3.3: the workflow scheduler + binder heterogeneity let EMAN use both
  // IA-32 and IA-64 machines.
  sim::Engine eng;
  grid::Grid g(eng);
  const auto tb = grid::buildEmanTestbed(g);
  services::Gis gis(g);
  gis.installEverywhere("eman");
  workflow::GridEstimator truth(gis, nullptr);
  EmanConfig cfg;
  cfg.parallelism = 24;       // > the 8 IA-64 nodes: the heavy stage spills
  cfg.particles = 200000;     // compute-dominated regime
  const auto dag = buildEmanRefinementDag(cfg);
  workflow::WorkflowScheduler ws(truth, g.allNodes());
  const auto s = ws.schedule(dag, workflow::Heuristic::kBestOfThree);
  bool usedIa64 = false;
  bool usedIa32 = false;
  for (const auto& a : s.assignments) {
    if (g.node(a.node).spec().arch == grid::Arch::kIA64) usedIa64 = true;
    if (g.node(a.node).spec().arch == grid::Arch::kIA32) usedIa32 = true;
  }
  EXPECT_TRUE(usedIa64);
  EXPECT_TRUE(usedIa32);
  (void)tb;
}

TEST(Eman, Ia64ConstraintPinsClassifiersToIa64) {
  // The SC2003 demo split EMAN across IA-32 and IA-64 machines, with the
  // heavy classification stage required to run on IA-64 nodes.
  sim::Engine eng;
  grid::Grid g(eng);
  grid::buildEmanTestbed(g);
  services::Gis gis(g);
  gis.installEverywhere("eman");
  workflow::GridEstimator truth(gis, nullptr);
  EmanConfig cfg;
  auto dag = buildEmanRefinementDag(cfg);
  int constrained = 0;
  for (workflow::ComponentId c = 0; c < dag.size(); ++c) {
    workflow::Component& comp = dag.component(c);
    if (comp.name.rfind("classesbymra", 0) == 0) {
      comp.requiredArch = grid::Arch::kIA64;
      ++constrained;
    }
  }
  ASSERT_EQ(constrained, cfg.parallelism);
  workflow::WorkflowScheduler ws(truth, g.allNodes());
  const auto s = ws.schedule(dag, workflow::Heuristic::kMinMin);
  for (workflow::ComponentId c = 0; c < dag.size(); ++c) {
    if (dag.component(c).requiredArch == grid::Arch::kIA64) {
      EXPECT_EQ(g.node(s.of(c).node).spec().arch, grid::Arch::kIA64);
    }
  }
}

TEST(Eman, StackBytesScaleWithParticles) {
  EmanConfig small;
  small.particles = 1000;
  EmanConfig large;
  large.particles = 4000;
  EXPECT_DOUBLE_EQ(emanStackBytes(large), 4.0 * emanStackBytes(small));
}

}  // namespace
}  // namespace grads::apps
