#include <gtest/gtest.h>

#include "grid/testbeds.hpp"
#include "services/gis.hpp"
#include "workflow/annealing.hpp"
#include "workflow/builders.hpp"

namespace grads::workflow {
namespace {

struct Fixture {
  sim::Engine eng;
  grid::Grid g{eng};
  std::unique_ptr<services::Gis> gis;
  std::unique_ptr<GridEstimator> truth;

  Fixture() {
    grid::buildQrTestbed(g);
    gis = std::make_unique<services::Gis>(g);
    truth = std::make_unique<GridEstimator>(*gis, nullptr);
  }
};

TEST(Annealing, NeverWorseThanItsMinMinSeed) {
  Fixture f;
  Rng rng(31);
  for (int trial = 0; trial < 3; ++trial) {
    const auto dag = makeRandomLayered(3, 5, rng);
    WorkflowScheduler greedy(*f.truth, f.g.allNodes());
    const double seedMakespan =
        greedy.schedule(dag, Heuristic::kMinMin).makespan;
    AnnealingOptions opts;
    opts.iterations = 1500;
    const auto annealed =
        scheduleSimulatedAnnealing(dag, *f.truth, f.g.allNodes(), opts);
    EXPECT_LE(annealed.makespan, seedMakespan + 1e-9) << "trial " << trial;
  }
}

TEST(Annealing, ImprovesOnGreedyForIndependentTaskBags) {
  // Bags of unequal independent tasks are exactly where greedy list
  // scheduling leaves makespan on the table.
  Fixture f;
  Rng rng(7);
  const auto dag = makeParameterSweep(40, rng);
  WorkflowScheduler greedy(*f.truth, f.g.allNodes());
  const double minmin = greedy.schedule(dag, Heuristic::kMinMin).makespan;
  AnnealingStats stats;
  AnnealingOptions opts;
  opts.iterations = 4000;
  const auto annealed =
      scheduleSimulatedAnnealing(dag, *f.truth, f.g.allNodes(), opts, &stats);
  EXPECT_LT(annealed.makespan, minmin);
  EXPECT_GT(stats.accepted, 0);
  EXPECT_DOUBLE_EQ(stats.finalMakespan, annealed.makespan);
  EXPECT_LE(stats.finalMakespan, stats.initialMakespan);
}

TEST(Annealing, ZeroIterationsReturnsSeed) {
  Fixture f;
  Rng rng(3);
  const auto dag = makeFanOutIn(6, 2e10, 1e6);
  WorkflowScheduler greedy(*f.truth, f.g.allNodes());
  const double seedMakespan = greedy.schedule(dag, Heuristic::kMinMin).makespan;
  AnnealingOptions opts;
  opts.iterations = 0;
  const auto s = scheduleSimulatedAnnealing(dag, *f.truth, f.g.allNodes(), opts);
  EXPECT_NEAR(s.makespan, seedMakespan, 1e-6 * seedMakespan);
}

TEST(Annealing, RespectsEligibilityConstraints) {
  Fixture f;
  const auto pin = f.g.allNodes()[3];
  f.gis->installSoftware(pin, "only-here");
  Dag dag;
  Component c;
  c.name = "pinned";
  c.flops = 1e9;
  c.requiredSoftware = {"only-here"};
  const auto pinned = dag.add(c);
  Component free;
  free.name = "free";
  free.flops = 2e10;
  dag.add(free);
  AnnealingOptions opts;
  opts.iterations = 500;
  const auto s = scheduleSimulatedAnnealing(dag, *f.truth, f.g.allNodes(), opts);
  EXPECT_EQ(s.of(pinned).node, pin);
}

TEST(Annealing, DeterministicForFixedSeed) {
  Fixture f;
  Rng rng(11);
  const auto dag = makeParameterSweep(20, rng);
  AnnealingOptions opts;
  opts.iterations = 1000;
  const auto a = scheduleSimulatedAnnealing(dag, *f.truth, f.g.allNodes(), opts);
  const auto b = scheduleSimulatedAnnealing(dag, *f.truth, f.g.allNodes(), opts);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

}  // namespace
}  // namespace grads::workflow
