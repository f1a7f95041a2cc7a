// Cross-module property tests: invariants that must hold across randomized
// scenarios — determinism of the engine, conservation in processor sharing,
// schedule validity under random weights, and end-to-end repeatability of a
// full Grid experiment (the MicroGrid's raison d'être).

#include <gtest/gtest.h>

#include <tuple>

#include "apps/nbody.hpp"
#include "grid/testbeds.hpp"
#include "scenarios.hpp"
#include "services/gis.hpp"
#include "sim/ps_resource.hpp"
#include "sim/sync.hpp"
#include "workflow/builders.hpp"
#include "workflow/scheduler.hpp"

namespace grads {
namespace {

TEST(Properties, EngineIsDeterministic) {
  // Two identical runs of a nontrivial random scenario produce identical
  // event counts and final times.
  auto runOnce = [] {
    sim::Engine eng;
    sim::PsResource cpu(eng, 100.0);
    Rng rng(99);
    sim::JoinSet js(eng);
    for (int i = 0; i < 50; ++i) {
      js.spawn([](sim::Engine& e, sim::PsResource& r, double delay,
                  double work) -> sim::Task {
        co_await sim::sleepFor(e, delay);
        co_await r.consume(work);
      }(eng, cpu, rng.uniform(0.0, 10.0), rng.uniform(1.0, 500.0)));
    }
    eng.spawn(js.join());
    eng.run();
    return std::pair{eng.now(), eng.processedEvents()};
  };
  const auto a = runOnce();
  const auto b = runOnce();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(Properties, ProcessorSharingConservesWork) {
  // Whatever the arrival pattern, completed work equals submitted work and
  // total elapsed time is at least work/capacity.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    sim::Engine eng;
    sim::PsResource cpu(eng, 50.0);
    Rng rng(seed);
    double submitted = 0.0;
    sim::JoinSet js(eng);
    for (int i = 0; i < 40; ++i) {
      const double work = rng.uniform(1.0, 200.0);
      submitted += work;
      js.spawn([](sim::Engine& e, sim::PsResource& r, double d,
                  double w) -> sim::Task {
        co_await sim::sleepFor(e, d);
        co_await r.consume(w);
      }(eng, cpu, rng.uniform(0.0, 20.0), work));
    }
    eng.spawn(js.join());
    eng.run();
    EXPECT_NEAR(cpu.completedWork(), submitted, 1e-6 * submitted);
    EXPECT_GE(eng.now() + 1e-9, submitted / 50.0);
  }
}

TEST(Properties, SchedulesValidUnderRandomWeights) {
  sim::Engine eng;
  grid::Grid g(eng);
  grid::buildQrTestbed(g);
  services::Gis gis(g);
  workflow::GridEstimator truth(gis, nullptr);
  Rng rng(7);
  for (int trial = 0; trial < 6; ++trial) {
    const workflow::RankWeights w{rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0)};
    if (w.w1 == 0.0 && w.w2 == 0.0) continue;
    workflow::WorkflowScheduler ws(truth, g.allNodes(), w);
    const auto dag = workflow::makeRandomLayered(3, 4, rng);
    const auto s = ws.schedule(dag, workflow::Heuristic::kBestOfThree);
    EXPECT_EQ(s.assignments.size(), dag.size());
    for (workflow::ComponentId c = 0; c < dag.size(); ++c) {
      for (const auto& e : dag.inEdges(c)) {
        EXPECT_GE(s.of(c).start, s.of(e.from).finish - 1e-9);
      }
    }
  }
}

TEST(Properties, FullSwapExperimentIsExactlyRepeatable) {
  // The MicroGrid promise: "systematic, repeatable ... study of dynamic
  // Grid behavior". The entire Figure-4 pipeline must be bit-identical
  // across runs with the same seeds.
  const auto a = bench::runSwapExperiment(reschedule::SwapPolicy::kModelBased,
                                          /*emulated=*/true);
  const auto b = bench::runSwapExperiment(reschedule::SwapPolicy::kModelBased,
                                          /*emulated=*/true);
  EXPECT_EQ(std::tuple(a.finishedAt, a.processedEvents, a.swaps.size()),
            std::tuple(b.finishedAt, b.processedEvents, b.swaps.size()));
  EXPECT_EQ(a.progress.samples, b.progress.samples);
  ASSERT_EQ(a.swaps.size(), b.swaps.size());
  for (std::size_t i = 0; i < a.swaps.size(); ++i) {
    EXPECT_EQ(a.swaps[i].time, b.swaps[i].time);
    EXPECT_EQ(a.swaps[i].rank, b.swaps[i].rank);
    EXPECT_EQ(a.swaps[i].from, b.swaps[i].from);
    EXPECT_EQ(a.swaps[i].to, b.swaps[i].to);
  }
}

TEST(Properties, TransferTimeMonotoneInSize) {
  sim::Engine eng;
  grid::Grid g(eng);
  const auto tb = grid::buildQrTestbed(g);
  double prev = -1.0;
  for (double mb = 1.0; mb <= 256.0; mb *= 2.0) {
    const double est = g.transferEstimate(tb.utkNodes[0], tb.uiucNodes[0],
                                          mb * 1024 * 1024);
    EXPECT_GT(est, prev);
    prev = est;
  }
}

TEST(Properties, MakespanMonotoneInResourcePool) {
  // Adding resources never hurts the best-of-three schedule (more columns
  // in the rank matrix can only add options).
  sim::Engine eng;
  grid::Grid g(eng);
  const auto tb = grid::buildQrTestbed(g);
  services::Gis gis(g);
  workflow::GridEstimator truth(gis, nullptr);
  Rng rng(17);
  const auto dag = workflow::makeParameterSweep(24, rng);

  std::vector<grid::NodeId> small(tb.uiucNodes.begin(),
                                  tb.uiucNodes.begin() + 3);
  const double withSmall =
      workflow::WorkflowScheduler(truth, small)
          .schedule(dag, workflow::Heuristic::kBestOfThree)
          .makespan;
  const double withAll =
      workflow::WorkflowScheduler(truth, g.allNodes())
          .schedule(dag, workflow::Heuristic::kBestOfThree)
          .makespan;
  EXPECT_LE(withAll, withSmall + 1e-9);
}

TEST(Properties, LoadNeverSpeedsAnythingUp) {
  // Monotonicity: adding background load can only increase an app's time.
  auto timeWith = [](double loadWeight) {
    sim::Engine eng;
    grid::Grid g(eng);
    const auto tb = grid::buildQrTestbed(g);
    if (loadWeight > 0.0) g.node(tb.uiucNodes[0]).injectLoad(loadWeight);
    vmpi::World world(g, {tb.uiucNodes[0], tb.uiucNodes[1]});
    apps::NBodyConfig cfg;
    cfg.particles = 3000;
    cfg.iterations = 10;
    for (int r = 0; r < 2; ++r) {
      eng.spawn(apps::nbodyRank(world, nullptr, cfg, r, nullptr, "nb", nullptr));
    }
    eng.run();
    return eng.now();
  };
  double prev = 0.0;
  for (const double w : {0.0, 0.5, 1.0, 2.0, 4.0}) {
    const double t = timeWith(w);
    EXPECT_GE(t, prev - 1e-9) << "load " << w;
    prev = t;
  }
}

}  // namespace
}  // namespace grads
