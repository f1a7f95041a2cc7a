#include <gtest/gtest.h>

#include "grid/load.hpp"
#include "grid/testbeds.hpp"
#include "services/gis.hpp"
#include "util/error.hpp"
#include "workflow/builders.hpp"
#include "workflow/executor.hpp"

namespace grads::workflow {
namespace {

constexpr double kMB = 1024.0 * 1024.0;

struct Fixture {
  sim::Engine eng;
  grid::Grid g{eng};
  grid::QrTestbed tb;
  std::unique_ptr<services::Gis> gis;
  std::unique_ptr<services::Nws> nws;

  Fixture() {
    tb = grid::buildQrTestbed(g);
    gis = std::make_unique<services::Gis>(g);
    nws = std::make_unique<services::Nws>(eng, g, 10.0, 0.0, 4);
    nws->start();
  }

  ExecutionResult run(const Dag& dag, ExecutionOptions opts = {}) {
    WorkflowExecutor exec(g, *gis, nws.get());
    ExecutionResult result;
    eng.spawn(exec.execute(dag, opts, &result), "workflow");
    eng.run();
    return result;
  }
};

TEST(Executor, RunsChainInDependencyOrder) {
  Fixture f;
  const auto dag = makeChain(5, 5e9, 2 * kMB);
  const auto result = f.run(dag);
  ASSERT_EQ(result.runs.size(), 5u);
  for (ComponentId c = 0; c + 1 < dag.size(); ++c) {
    EXPECT_LE(result.runs[c].finish, result.runs[c + 1].start + 1e-9);
  }
  EXPECT_GT(result.makespan, 0.0);
}

TEST(Executor, FanRunsInParallel) {
  Fixture f;
  const auto dag = makeFanOutIn(6, 2e10, kMB);
  const auto result = f.run(dag);
  // The middle components overlap in time (true parallel execution).
  int overlaps = 0;
  for (ComponentId a = 1; a <= 6; ++a) {
    for (ComponentId b = a + 1; b <= 6; ++b) {
      const bool overlap = result.runs[a].start < result.runs[b].finish &&
                           result.runs[b].start < result.runs[a].finish;
      if (overlap) ++overlaps;
    }
  }
  EXPECT_GT(overlaps, 5);
  // Fan-out makespan beats any sequential execution of the middle stage.
  double sumMiddle = 0.0;
  for (ComponentId c = 1; c <= 6; ++c) {
    sumMiddle += result.runs[c].finish - result.runs[c].start;
  }
  EXPECT_LT(result.makespan, sumMiddle);
}

TEST(Executor, ExecutedMakespanTracksStaticEstimateOnIdleGrid) {
  Fixture f;
  const auto dag = makeFanOutIn(8, 3e10, 2 * kMB);
  const auto result = f.run(dag);
  // No contention, honest estimator → execution lands near the estimate.
  EXPECT_NEAR(result.makespan, result.staticEstimate,
              0.35 * result.staticEstimate);
}

TEST(Executor, TransfersChargeRealNetworkTime) {
  Fixture f;
  // Pin the producer on UTK and the consumer on UIUC via software tags: the
  // 60 MB edge must cross the 1.2 MB/s WAN (≈ 50 s).
  f.gis->installSoftware(f.tb.utkNodes[0], "src-only");
  f.gis->installSoftware(f.tb.uiucNodes[0], "dst-only");
  Dag dag;
  Component a;
  a.name = "producer";
  a.flops = 1e6;
  a.requiredSoftware = {"src-only"};
  const auto ca = dag.add(a);
  Component b;
  b.name = "consumer";
  b.flops = 1e6;
  b.requiredSoftware = {"dst-only"};
  const auto cb = dag.add(b);
  dag.addEdge(ca, cb, 60.0 * kMB);
  const auto result = f.run(dag);
  EXPECT_GT(result.runs[cb].finish - result.runs[cb].start, 40.0);
}

TEST(Executor, BackgroundLoadSlowsExecutionNotEstimate) {
  Fixture f;
  const auto dag = makeChain(4, 4e10, kMB);
  // Load every UTK node after scheduling has happened (NWS saw them idle).
  for (const auto id : f.tb.utkNodes) {
    grid::applyLoadTrace(f.eng, f.g.node(id), grid::LoadTrace::stepAt(1.0, 3.0));
  }
  const auto result = f.run(dag);
  // Execution on suddenly-loaded nodes takes far longer than the estimate
  // (that's what workflow rescheduling is for).
  EXPECT_GT(result.makespan, 1.5 * result.staticEstimate);
}

TEST(Executor, ReschedulingEscapesLoadedCluster) {
  auto runWith = [](bool reschedule) {
    Fixture f;
    // Long chain so there is plenty of unstarted work when the load lands.
    const auto dag = makeChain(10, 4e10, kMB);
    for (const auto id : f.tb.utkNodes) {
      grid::applyLoadTrace(f.eng, f.g.node(id),
                           grid::LoadTrace::stepAt(30.0, 4.0));
    }
    ExecutionOptions opts;
    opts.reschedule = reschedule;
    opts.rescheduleCheckSec = 20.0;
    return f.run(dag, opts);
  };
  const auto fixed = runWith(false);
  const auto adaptive = runWith(true);
  EXPECT_GT(adaptive.remappedComponents, 0);
  EXPECT_GT(adaptive.rescheduleRounds, 0);
  EXPECT_LT(adaptive.makespan, 0.8 * fixed.makespan);
}

TEST(Executor, NoReschedulingWhenNothingChanges) {
  Fixture f;
  const auto dag = makeChain(4, 2e10, kMB);
  ExecutionOptions opts;
  opts.reschedule = true;
  opts.rescheduleCheckSec = 5.0;
  const auto result = f.run(dag, opts);
  EXPECT_EQ(result.remappedComponents, 0);  // idle grid → keep the plan
}

TEST(Executor, ReschedulingTickEndsWithTheWorkflow) {
  // The tick reads the run's state, which dies when the workflow returns.
  // Running the engine on afterwards must fire only the NWS sampler: a
  // tick still pending would read freed memory.
  Fixture f;
  const auto dag = makeChain(3, 1e10, kMB);
  ExecutionOptions opts;
  opts.reschedule = true;
  opts.rescheduleCheckSec = 5.0;
  const auto result = f.run(dag, opts);
  ASSERT_EQ(result.runs.size(), 3u);
  const std::size_t events = f.eng.processedEvents();
  const std::size_t samples = f.nws->samplesTaken();
  f.eng.runUntil(f.eng.now() + 100.0);
  EXPECT_EQ(f.eng.processedEvents() - events,
            f.nws->samplesTaken() - samples);
}

TEST(Executor, EmptyDagRejected) {
  Fixture f;
  Dag dag;
  WorkflowExecutor exec(f.g, *f.gis, f.nws.get());
  f.eng.spawn(exec.execute(dag, ExecutionOptions{}, nullptr));
  EXPECT_THROW(f.eng.run(), InvalidArgument);
}

}  // namespace
}  // namespace grads::workflow
