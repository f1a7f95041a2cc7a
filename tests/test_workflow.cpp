#include <gtest/gtest.h>

#include "grid/testbeds.hpp"
#include "services/gis.hpp"
#include "util/error.hpp"
#include "workflow/builders.hpp"
#include "workflow/scheduler.hpp"

namespace grads::workflow {
namespace {

constexpr double kMB = 1024.0 * 1024.0;

struct Fixture {
  sim::Engine eng;
  grid::Grid g{eng};
  grid::QrTestbed tb;
  std::unique_ptr<services::Gis> gis;
  std::unique_ptr<GridEstimator> truth;

  Fixture() {
    tb = grid::buildQrTestbed(g);
    gis = std::make_unique<services::Gis>(g);
    truth = std::make_unique<GridEstimator>(*gis, nullptr);
  }
  std::vector<grid::NodeId> allNodes() const { return g.allNodes(); }
};

TEST(Dag, TopologicalOrderRespectsEdges) {
  Dag dag = makeChain(5, 1e9, kMB);
  const auto order = dag.topologicalOrder();
  ASSERT_EQ(order.size(), 5u);
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    EXPECT_LT(order[i], order[i + 1]);
  }
}

TEST(Dag, CycleDetected) {
  Dag dag;
  Component c;
  c.name = "a";
  c.flops = 1.0;
  const auto a = dag.add(c);
  c.name = "b";
  const auto b = dag.add(c);
  dag.addEdge(a, b, 0.0);
  dag.addEdge(b, a, 0.0);
  EXPECT_THROW(dag.topologicalOrder(), InvalidArgument);
}

TEST(Dag, SelfEdgeRejected) {
  Dag dag;
  Component c;
  c.name = "a";
  c.flops = 1.0;
  const auto a = dag.add(c);
  EXPECT_THROW(dag.addEdge(a, a, 0.0), InvalidArgument);
}

// inEdges and successors list a component's edges in the order addEdge
// added them, not in id order. Every scheduler sums a component's transfer
// costs in inEdges order, so its doubles depend on this order; the
// incremental-vs-reference cross-check cannot see a change to it, since
// both loops read the same lists.
TEST(Dag, AdjacencyKeepsAddOrder) {
  Dag dag;
  Component c;
  c.flops = 1.0;
  for (const char* name : {"s0", "m1", "m2", "s3", "sink"}) {
    c.name = name;
    dag.add(c);
  }
  // Edges into the sink (4) interleave with edges into 1 and 2.
  dag.addEdge(0, 2, 1.0);
  dag.addEdge(3, 4, 2.0);
  dag.addEdge(0, 1, 3.0);
  dag.addEdge(2, 4, 4.0);
  dag.addEdge(1, 4, 5.0);

  const auto& in = dag.inEdges(4);
  ASSERT_EQ(in.size(), 3u);
  const std::vector<std::pair<ComponentId, double>> got{
      {in[0].from, in[0].bytes}, {in[1].from, in[1].bytes},
      {in[2].from, in[2].bytes}};
  const std::vector<std::pair<ComponentId, double>> want{
      {3, 2.0}, {2, 4.0}, {1, 5.0}};
  EXPECT_EQ(got, want);
  for (const auto& e : in) EXPECT_EQ(e.to, 4u);
  EXPECT_EQ(dag.successors(0), (std::vector<ComponentId>{2, 1}));
  EXPECT_EQ(dag.successors(3), (std::vector<ComponentId>{4}));
  EXPECT_TRUE(dag.successors(4).empty());
  EXPECT_TRUE(dag.inEdges(0).empty());

  // Kahn order: sources in id order, then each popped component's
  // successors in add order (2 before 1).
  EXPECT_EQ(dag.topologicalOrder(),
            (std::vector<ComponentId>{0, 3, 2, 1, 4}));

  EXPECT_THROW(dag.inEdges(5), InvalidArgument);
  EXPECT_THROW(dag.successors(5), InvalidArgument);
}

TEST(Dag, ParallelStageSplitsWorkAndVolume) {
  Dag dag;
  Component head;
  head.name = "head";
  head.flops = 1e9;
  head.outputBytes = 8 * kMB;
  const auto h = dag.add(head);
  Component stage;
  stage.name = "par";
  stage.flops = 4e9;
  stage.outputBytes = 4 * kMB;
  const auto ids = dag.addParallelStage(stage, 4, {h}, 8 * kMB);
  ASSERT_EQ(ids.size(), 4u);
  for (const auto id : ids) {
    EXPECT_DOUBLE_EQ(dag.component(id).flops, 1e9);
    const auto& in = dag.inEdges(id);
    ASSERT_EQ(in.size(), 1u);
    EXPECT_DOUBLE_EQ(in[0].bytes, 2 * kMB);
  }
}

TEST(Estimator, InfeasibleWhenRequirementsUnmet) {
  Fixture f;
  Component c;
  c.name = "x";
  c.flops = 1e9;
  c.requiredSoftware = {"special-lib"};
  EXPECT_EQ(f.truth->ecost(c, f.tb.utkNodes[0]), kInfeasible);
  f.gis->installSoftware(f.tb.utkNodes[0], "special-lib");
  EXPECT_NE(f.truth->ecost(c, f.tb.utkNodes[0]), kInfeasible);
}

TEST(Estimator, ArchAndMemoryScreening) {
  Fixture f;
  Component c;
  c.name = "x";
  c.flops = 1e9;
  c.requiredArch = grid::Arch::kIA64;
  EXPECT_EQ(f.truth->ecost(c, f.tb.utkNodes[0]), kInfeasible);
  c.requiredArch.reset();
  c.minMemBytes = 1e15;
  EXPECT_EQ(f.truth->ecost(c, f.tb.utkNodes[0]), kInfeasible);
}

TEST(Estimator, EcostTracksNodeSpeed) {
  Fixture f;
  Component c;
  c.name = "x";
  c.flops = 1e9;
  // UTK 933 MHz vs UIUC 450 MHz.
  EXPECT_LT(f.truth->ecost(c, f.tb.utkNodes[0]),
            f.truth->ecost(c, f.tb.uiucNodes[0]));
}

TEST(Estimator, DownNodeInfeasible) {
  Fixture f;
  Component c;
  c.name = "x";
  c.flops = 1e9;
  f.gis->setNodeUp(f.tb.utkNodes[0], false);
  EXPECT_EQ(f.truth->ecost(c, f.tb.utkNodes[0]), kInfeasible);
}

TEST(Scheduler, SingleComponentGoesToFastestNode) {
  Fixture f;
  Dag dag = makeChain(1, 1e10, 0.0);
  WorkflowScheduler ws(*f.truth, f.allNodes());
  const auto s = ws.schedule(dag, Heuristic::kMinMin);
  ASSERT_EQ(s.assignments.size(), 1u);
  // Fastest single-CPU rate is a UTK node (933 MHz × 0.45).
  EXPECT_EQ(f.g.node(s.assignments[0].node).cluster(), f.tb.utk);
}

TEST(Scheduler, AllComponentsScheduledExactlyOnce) {
  Fixture f;
  Rng rng(7);
  Dag dag = makeRandomLayered(4, 5, rng);
  WorkflowScheduler ws(*f.truth, f.allNodes());
  for (const auto h : {Heuristic::kMinMin, Heuristic::kMaxMin,
                       Heuristic::kSufferage, Heuristic::kBestOfThree}) {
    const auto s = ws.schedule(dag, h);
    EXPECT_EQ(s.assignments.size(), dag.size()) << heuristicName(h);
    std::vector<bool> seen(dag.size(), false);
    for (const auto& a : s.assignments) {
      EXPECT_FALSE(seen[a.component]);
      seen[a.component] = true;
      EXPECT_LE(a.start, a.finish);
    }
    EXPECT_GT(s.makespan, 0.0);
  }
}

TEST(Scheduler, DependencesRespected) {
  Fixture f;
  Dag dag = makeChain(6, 5e9, 2 * kMB);
  WorkflowScheduler ws(*f.truth, f.allNodes());
  const auto s = ws.schedule(dag, Heuristic::kBestOfThree);
  for (ComponentId c = 0; c < dag.size(); ++c) {
    for (const auto& e : dag.inEdges(c)) {
      EXPECT_GE(s.of(c).start, s.of(e.from).finish - 1e-9);
    }
  }
}

TEST(Scheduler, BestOfThreeNeverWorseThanAnySingleHeuristic) {
  Fixture f;
  Rng rng(99);
  for (int trial = 0; trial < 5; ++trial) {
    Dag dag = makeRandomLayered(3, 4, rng);
    WorkflowScheduler ws(*f.truth, f.allNodes());
    const double best =
        ws.schedule(dag, Heuristic::kBestOfThree).makespan;
    for (const auto h : {Heuristic::kMinMin, Heuristic::kMaxMin,
                         Heuristic::kSufferage}) {
      EXPECT_LE(best, ws.schedule(dag, h).makespan + 1e-9);
    }
  }
}

TEST(Scheduler, ParallelStageUsesMultipleNodes) {
  Fixture f;
  Dag dag = makeFanOutIn(8, 2e10, kMB);
  WorkflowScheduler ws(*f.truth, f.allNodes());
  const auto s = ws.schedule(dag, Heuristic::kMinMin);
  std::set<grid::NodeId> used;
  for (const auto& a : s.assignments) used.insert(a.node);
  EXPECT_GT(used.size(), 3u);
}

TEST(Scheduler, SoftwareConstraintRoutesToInstalledNodes) {
  Fixture f;
  f.gis->installSoftware(f.tb.uiucNodes[2], "eman");
  Dag dag;
  Component c;
  c.name = "needs-eman";
  c.flops = 1e9;
  c.requiredSoftware = {"eman"};
  dag.add(c);
  WorkflowScheduler ws(*f.truth, f.allNodes());
  const auto s = ws.schedule(dag, Heuristic::kBestOfThree);
  EXPECT_EQ(s.assignments[0].node, f.tb.uiucNodes[2]);
}

TEST(Scheduler, NoFeasibleResourceThrows) {
  Fixture f;
  Dag dag;
  Component c;
  c.name = "impossible";
  c.flops = 1e9;
  c.requiredSoftware = {"nowhere"};
  dag.add(c);
  WorkflowScheduler ws(*f.truth, f.allNodes());
  EXPECT_THROW(ws.schedule(dag, Heuristic::kMinMin), InvalidArgument);
}

TEST(Scheduler, WeightsChangeDecisions) {
  Fixture f;
  // A component with heavy input data sitting on UIUC: with data-cost weight
  // high, it should stay near the data even though UTK is faster.
  Dag dag;
  Component src;
  src.name = "src";
  src.flops = 1e6;
  src.requiredSoftware = {"pin-uiuc"};
  const auto s0 = dag.add(src);
  Component heavy;
  heavy.name = "consumer";
  heavy.flops = 5e9;
  const auto s1 = dag.add(heavy);
  dag.addEdge(s0, s1, 400.0 * kMB);
  f.gis->installSoftware(f.tb.uiucNodes[0], "pin-uiuc");

  WorkflowScheduler computeBiased(*f.truth, f.allNodes(), RankWeights{1.0, 0.0});
  WorkflowScheduler dataBiased(*f.truth, f.allNodes(), RankWeights{0.0, 1.0});
  const auto sCompute = computeBiased.schedule(dag, Heuristic::kMinMin);
  const auto sData = dataBiased.schedule(dag, Heuristic::kMinMin);
  EXPECT_EQ(f.g.node(sCompute.of(s1).node).cluster(), f.tb.utk);
  EXPECT_EQ(f.g.node(sData.of(s1).node).cluster(), f.tb.uiuc);
}

TEST(Scheduler, MinMinBeatsBaselinesOnHeterogeneousSweep) {
  Fixture f;
  Rng rng(3);
  Dag dag = makeParameterSweep(24, rng);
  WorkflowScheduler ws(*f.truth, f.allNodes());
  const double grads = ws.schedule(dag, Heuristic::kBestOfThree).makespan;
  Rng rng2(4);
  const double random =
      scheduleRandom(dag, *f.truth, f.allNodes(), rng2).makespan;
  const double rr = scheduleRoundRobin(dag, *f.truth, f.allNodes()).makespan;
  EXPECT_LE(grads, random + 1e-9);
  EXPECT_LE(grads, rr + 1e-9);
}

TEST(Scheduler, DagmanBaselineIgnoresSpeed) {
  Fixture f;
  // One task: DAGMan takes the first idle machine (node order), which is a
  // UTK node only by list position; pin all-idle so it picks resources[0].
  Dag dag = makeChain(1, 1e10, 0.0);
  auto nodes = f.allNodes();
  std::reverse(nodes.begin(), nodes.end());  // put a slow UIUC node first
  const auto s = scheduleDagmanStyle(dag, *f.truth, nodes);
  EXPECT_EQ(s.assignments[0].node, nodes[0]);
}

TEST(Scheduler, EvaluateMappingReproducesScheduleCosts) {
  Fixture f;
  Dag dag = makeFanOutIn(4, 1e10, kMB);
  WorkflowScheduler ws(*f.truth, f.allNodes());
  const auto s = ws.schedule(dag, Heuristic::kMinMin);
  const auto replay = evaluateMapping(dag, *f.truth, s.assignments);
  EXPECT_EQ(replay.makespan, s.makespan);
}

// Components that share a node run in the mapping's order, not in id order,
// and an input mapped after its consumer is rejected.
TEST(Scheduler, EvaluateMappingFollowsMappingOrder) {
  Fixture f;
  Dag dag = makeFanOutIn(2, 1e10, kMB);  // 0 -> {1, 2} -> 3
  const grid::NodeId n = f.tb.utkNodes[0];
  const auto s = evaluateMapping(dag, *f.truth, {{0, n}, {2, n}, {1, n}, {3, n}});
  ASSERT_EQ(s.assignments.size(), 4u);
  EXPECT_EQ(s.assignments[1].component, 2u);
  EXPECT_EQ(s.assignments[2].component, 1u);
  EXPECT_EQ(s.of(2).finish, s.of(1).start);
  EXPECT_THROW(evaluateMapping(dag, *f.truth, {{0, n}, {3, n}, {1, n}, {2, n}}),
               InvalidArgument);
}

TEST(Scheduler, RankMatrixMatchesDefinition) {
  Fixture f;
  Dag dag = makeChain(2, 1e9, 10 * kMB);
  WorkflowScheduler ws(*f.truth, f.allNodes(), RankWeights{2.0, 3.0});
  std::map<ComponentId, grid::NodeId> placed{{0, f.tb.utkNodes[0]}};
  const double r = ws.rank(dag, 1, f.tb.uiucNodes[0], placed);
  const double e = f.truth->ecost(dag.component(1), f.tb.uiucNodes[0]);
  const double d =
      f.truth->transferCost(f.tb.utkNodes[0], f.tb.uiucNodes[0], 10 * kMB);
  EXPECT_NEAR(r, 2.0 * e + 3.0 * d, 1e-9);
}

class HeuristicSweep : public ::testing::TestWithParam<int> {};

TEST_P(HeuristicSweep, SchedulesAreValidAcrossRandomDags) {
  Fixture f;
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  Dag dag = makeRandomLayered(2 + GetParam() % 4, 3 + GetParam() % 5, rng);
  WorkflowScheduler ws(*f.truth, f.allNodes());
  for (const auto h :
       {Heuristic::kMinMin, Heuristic::kMaxMin, Heuristic::kSufferage}) {
    const auto s = ws.schedule(dag, h);
    EXPECT_EQ(s.assignments.size(), dag.size());
    for (ComponentId c = 0; c < dag.size(); ++c) {
      for (const auto& e : dag.inEdges(c)) {
        EXPECT_GE(s.of(c).start, s.of(e.from).finish - 1e-9);
      }
    }
    // No resource runs two components at once.
    std::map<grid::NodeId, std::vector<std::pair<double, double>>> spans;
    for (const auto& a : s.assignments) {
      spans[a.node].push_back({a.start, a.finish});
    }
    for (auto& [node, v] : spans) {
      std::sort(v.begin(), v.end());
      for (std::size_t i = 0; i + 1 < v.size(); ++i) {
        EXPECT_LE(v[i].second, v[i + 1].first + 1e-9);
      }
    }
    // Re-scored under the estimator that made it, the schedule comes back
    // exactly: same picks, nodes, times and makespan.
    const auto replay = evaluateMapping(dag, *f.truth, s.assignments);
    ASSERT_EQ(replay.assignments.size(), s.assignments.size());
    for (std::size_t i = 0; i < s.assignments.size(); ++i) {
      const Assignment& a = s.assignments[i];
      const Assignment& b = replay.assignments[i];
      EXPECT_EQ(b.component, a.component) << heuristicName(h) << " pick " << i;
      EXPECT_EQ(b.node, a.node) << heuristicName(h) << " pick " << i;
      EXPECT_EQ(b.start, a.start) << heuristicName(h) << " pick " << i;
      EXPECT_EQ(b.finish, a.finish) << heuristicName(h) << " pick " << i;
    }
    EXPECT_EQ(replay.makespan, s.makespan) << heuristicName(h);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, HeuristicSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace grads::workflow
