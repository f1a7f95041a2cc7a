// Tests for the incremental batch-mode mapping loop: deterministic
// (bestCt, ComponentId) tie-breaking for sufferage (including the all-
// infinite-sufferage case), bit-identical agreement with the naive
// reference loop across heuristics, DAG shapes and estimators, and the
// Estimator caching contract (ecost and transfers priced once per call).

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/eman.hpp"
#include "grid/testbeds.hpp"
#include "services/gis.hpp"
#include "services/nws.hpp"
#include "util/rng.hpp"
#include "workflow/builders.hpp"
#include "workflow/scheduler.hpp"

using namespace grads;

namespace {

// Table-driven estimator: ecost indexed by component name, transfers at a
// flat per-byte cost between distinct nodes.
class TableEstimator : public workflow::Estimator {
 public:
  std::map<std::string, std::vector<double>> table;

  double ecost(const workflow::Component& c, grid::NodeId node) const override {
    ++ecostCalls;
    return table.at(c.name).at(node);
  }
  double transferCost(grid::NodeId from, grid::NodeId to,
                      double bytes) const override {
    ++transferCalls;
    return from == to ? 0.0 : bytes * 1e-3;
  }

  mutable std::size_t ecostCalls = 0;
  mutable std::size_t transferCalls = 0;
};

workflow::Component comp(std::string name) {
  workflow::Component c;
  c.name = std::move(name);
  return c;
}

void expectIdentical(const workflow::Schedule& a, const workflow::Schedule& b) {
  ASSERT_EQ(a.assignments.size(), b.assignments.size());
  for (std::size_t i = 0; i < a.assignments.size(); ++i) {
    EXPECT_EQ(a.assignments[i].component, b.assignments[i].component)
        << "pick " << i;
    EXPECT_EQ(a.assignments[i].node, b.assignments[i].node) << "pick " << i;
    // Bit-identical, not approximately equal: the incremental loop must
    // replicate the reference's floating-point operations exactly.
    EXPECT_EQ(a.assignments[i].start, b.assignments[i].start) << "pick " << i;
    EXPECT_EQ(a.assignments[i].finish, b.assignments[i].finish) << "pick " << i;
  }
  EXPECT_EQ(a.makespan, b.makespan);
}

// schedule() against the reference loop, bit for bit, under every heuristic.
void expectMatchesReference(const workflow::Estimator& est,
                            const std::vector<grid::NodeId>& resources,
                            const workflow::Dag& dag) {
  workflow::WorkflowScheduler ws(est, resources);
  ws.setCrossCheck(false);  // compare explicitly below
  for (const auto h :
       {workflow::Heuristic::kMinMin, workflow::Heuristic::kMaxMin,
        workflow::Heuristic::kSufferage, workflow::Heuristic::kBestOfThree}) {
    SCOPED_TRACE(workflow::heuristicName(h));
    expectIdentical(ws.schedule(dag, h), ws.scheduleReference(dag, h));
  }
}

// ---------------------------------------------------------------------------
// Sufferage tie-breaking
// ---------------------------------------------------------------------------

// Two candidates with equal (finite) sufferage: the pick must go to the
// smaller bestCt, not to whichever happens to sit earlier in the batch.
TEST(SufferageTieBreak, EqualSufferagePicksSmallerBestCt) {
  workflow::Dag dag;
  const auto c0 = dag.add(comp("a"));
  const auto c1 = dag.add(comp("b"));

  TableEstimator est;
  est.table["a"] = {10.0, 12.0};  // sufferage 2, bestCt 10
  est.table["b"] = {4.0, 6.0};    // sufferage 2, bestCt 4
  workflow::WorkflowScheduler ws(est, {0, 1});
  ws.setCrossCheck(true);

  const auto s = ws.schedule(dag, workflow::Heuristic::kSufferage);
  ASSERT_EQ(s.assignments.size(), 2u);
  // "b" wins the tie on bestCt and takes node 0 at t=0.
  EXPECT_EQ(s.assignments[0].component, c1);
  EXPECT_EQ(s.assignments[0].node, 0u);
  EXPECT_DOUBLE_EQ(s.assignments[0].finish, 4.0);
  // With node 0 now busy until 4, "a" completes earlier on node 1.
  EXPECT_EQ(s.assignments[1].component, c0);
  EXPECT_EQ(s.assignments[1].node, 1u);
  EXPECT_DOUBLE_EQ(s.assignments[1].finish, 12.0);
  EXPECT_DOUBLE_EQ(s.makespan, 12.0);
}

// Several candidates each with a single feasible resource: all sufferages
// are kInfeasible (= infinity), which used to make the pick order-dependent.
// The deterministic rule falls back to (bestCt, ComponentId).
TEST(SufferageTieBreak, AllInfeasibleSufferagesFallBackToBestCt) {
  workflow::Dag dag;
  const auto c0 = dag.add(comp("a"));
  const auto c1 = dag.add(comp("b"));
  const auto c2 = dag.add(comp("c"));

  TableEstimator est;
  est.table["a"] = {9.0, workflow::kInfeasible};
  est.table["b"] = {3.0, workflow::kInfeasible};
  est.table["c"] = {workflow::kInfeasible, 7.0};
  workflow::WorkflowScheduler ws(est, {0, 1});
  ws.setCrossCheck(true);

  const auto s = ws.schedule(dag, workflow::Heuristic::kSufferage);
  ASSERT_EQ(s.assignments.size(), 3u);
  // bestCt order: b (3) < c (7) < a (3+9=12 after b occupies node 0).
  EXPECT_EQ(s.assignments[0].component, c1);
  EXPECT_EQ(s.assignments[1].component, c2);
  EXPECT_EQ(s.assignments[2].component, c0);
  EXPECT_DOUBLE_EQ(s.assignments[2].start, 3.0);
  EXPECT_DOUBLE_EQ(s.assignments[2].finish, 12.0);
  EXPECT_DOUBLE_EQ(s.makespan, 12.0);
}

// Identical candidates (same costs everywhere) must resolve by ComponentId.
TEST(SufferageTieBreak, FullTieFallsBackToComponentId) {
  workflow::Dag dag;
  const auto c0 = dag.add(comp("a"));
  const auto c1 = dag.add(comp("b"));

  TableEstimator est;
  est.table["a"] = {5.0, 5.0};
  est.table["b"] = {5.0, 5.0};
  workflow::WorkflowScheduler ws(est, {0, 1});
  ws.setCrossCheck(true);

  const auto s = ws.schedule(dag, workflow::Heuristic::kSufferage);
  EXPECT_EQ(s.assignments[0].component, c0);
  EXPECT_EQ(s.assignments[1].component, c1);
}

// ---------------------------------------------------------------------------
// Incremental loop == reference loop, across heuristics and DAG shapes
// ---------------------------------------------------------------------------

class IncrementalVsReference : public ::testing::Test {
 protected:
  IncrementalVsReference() : grid_(eng_) {
    grid::buildMacroGrid(grid_);
    gis_ = std::make_unique<services::Gis>(grid_);
    truth_ = std::make_unique<workflow::GridEstimator>(*gis_, nullptr);
  }

  void checkAll(const workflow::Dag& dag) {
    expectMatchesReference(*truth_, grid_.allNodes(), dag);
  }

  sim::Engine eng_;
  grid::Grid grid_;
  std::unique_ptr<services::Gis> gis_;
  std::unique_ptr<workflow::GridEstimator> truth_;
};

TEST_F(IncrementalVsReference, ParameterSweep) {
  Rng rng(11);
  checkAll(workflow::makeParameterSweep(40, rng));
}

TEST_F(IncrementalVsReference, RandomLayered) {
  Rng rng(12);
  checkAll(workflow::makeRandomLayered(6, 8, rng));
}

TEST_F(IncrementalVsReference, LigoLike) {
  Rng rng(13);
  checkAll(workflow::makeLigoLike(24, rng));
}

TEST_F(IncrementalVsReference, CrossCheckModeRunsInline) {
  Rng rng(14);
  const auto dag = workflow::makeParameterSweep(16, rng);
  workflow::WorkflowScheduler ws(*truth_, grid_.allNodes());
  ws.setCrossCheck(true);
  EXPECT_TRUE(ws.crossCheckEnabled());
  // The assertion mode re-derives every schedule with the reference loop
  // and throws on any divergence; a clean return is the assertion.
  EXPECT_NO_THROW(ws.schedule(dag, workflow::Heuristic::kBestOfThree));
}

// The EMAN refinement DAG (24-way) on the EMAN testbed: each classesbymra
// and classalign2 component reads the same bytes from every component of
// the stage before, the shape where transfer rows are shared most. Checked
// with the truth estimator and with an NWS-informed one, warmed by 600 s of
// sensing, whose transfers go through Nws::transferTimeDegraded. The
// scheduler gets the first two nodes of each of the seven clusters: the
// transfers still use every LAN and WAN link of the testbed, and the
// reference loop, which reprices every in-edge on every resource at every
// pick, stays quick under the sanitizers.
class IncrementalVsReferenceEman : public ::testing::Test {
 protected:
  IncrementalVsReferenceEman() : grid_(eng_) {
    const grid::EmanTestbed tb = grid::buildEmanTestbed(grid_);
    std::vector<grid::ClusterId> clusters = tb.macro.clusters;
    clusters.push_back(tb.ia64);
    for (const grid::ClusterId cl : clusters) {
      const auto& nodes = grid_.clusterNodes(cl);
      resources_.insert(resources_.end(), nodes.begin(), nodes.begin() + 2);
    }
    gis_ = std::make_unique<services::Gis>(grid_);
    gis_->installEverywhere("eman");
    apps::EmanConfig cfg;
    cfg.particles = 200000;
    cfg.parallelism = 24;
    dag_ = apps::buildEmanRefinementDag(cfg);
  }

  sim::Engine eng_;
  grid::Grid grid_;
  std::vector<grid::NodeId> resources_;
  std::unique_ptr<services::Gis> gis_;
  workflow::Dag dag_;
};

TEST_F(IncrementalVsReferenceEman, TruthEstimator) {
  const workflow::GridEstimator truth(*gis_, nullptr);
  expectMatchesReference(truth, resources_, dag_);
}

TEST_F(IncrementalVsReferenceEman, NwsInformedEstimator) {
  services::Nws nws(eng_, grid_, 10.0, 0.03, 9);
  const workflow::GridEstimator informed(*gis_, &nws);
  nws.start();
  eng_.runUntil(600.0);
  expectMatchesReference(informed, resources_, dag_);
}

// ---------------------------------------------------------------------------
// Estimator caching
// ---------------------------------------------------------------------------

// The incremental loop must query ecost once per (component, node) within a
// schedule() call; the reference loop re-queries per pick (O(B²·R)).
TEST(EstimatorCaching, EcostQueriedOncePerComponentNode) {
  workflow::Dag dag;
  constexpr std::size_t kTasks = 32;
  TableEstimator est;
  for (std::size_t i = 0; i < kTasks; ++i) {
    // append, not operator+: gcc 12 -O3 false -Wrestrict.
    const std::string name = std::string("t").append(std::to_string(i));
    dag.add(comp(name));
    est.table[name] = {1.0 + static_cast<double>(i), 2.0, 3.0};
  }
  workflow::WorkflowScheduler ws(est, {0, 1, 2});
  ws.setCrossCheck(false);

  est.ecostCalls = 0;
  (void)ws.schedule(dag, workflow::Heuristic::kMinMin);
  EXPECT_EQ(est.ecostCalls, kTasks * 3);  // one row per component

  est.ecostCalls = 0;
  (void)ws.scheduleReference(dag, workflow::Heuristic::kMinMin);
  // The naive loop rebuilds the whole rank matrix after every pick.
  EXPECT_GT(est.ecostCalls, kTasks * 3 * 4);
}

// ecost rows are shared across the three runs of best-of-three.
TEST(EstimatorCaching, RowsSharedAcrossBestOfThree) {
  workflow::Dag dag;
  constexpr std::size_t kTasks = 16;
  TableEstimator est;
  for (std::size_t i = 0; i < kTasks; ++i) {
    // append, not operator+: gcc 12 -O3 false -Wrestrict.
    const std::string name = std::string("t").append(std::to_string(i));
    dag.add(comp(name));
    est.table[name] = {1.0 + static_cast<double>(i % 5), 2.0};
  }
  workflow::WorkflowScheduler ws(est, {0, 1});
  ws.setCrossCheck(false);

  est.ecostCalls = 0;
  (void)ws.schedule(dag, workflow::Heuristic::kBestOfThree);
  EXPECT_EQ(est.ecostCalls, kTasks * 2);  // not 3× that
}

// Each (source node, destination, bytes) triple is priced once per
// schedule() call. Every edge of the fan-out/fan-in DAG carries the same
// bytes, so the workers' in-edges have one (source node, bytes) key and the
// sink's at most R: at most R·(R+1) calls, whichever heuristic runs and
// including all three runs of best-of-three.
TEST(EstimatorCaching, TransfersPricedOncePerCall) {
  constexpr std::size_t kWidth = 16;
  constexpr std::size_t kR = 3;
  const auto dag = workflow::makeFanOutIn(kWidth, 1e9, 1e3);
  TableEstimator est;
  for (workflow::ComponentId c = 0; c < dag.size(); ++c) {
    est.table[dag.component(c).name] = {1.0, 2.0, 3.0};  // 1 + node
  }
  workflow::WorkflowScheduler ws(est, {0, 1, 2});
  ws.setCrossCheck(false);

  for (const auto h :
       {workflow::Heuristic::kMinMin, workflow::Heuristic::kMaxMin,
        workflow::Heuristic::kSufferage, workflow::Heuristic::kBestOfThree}) {
    SCOPED_TRACE(workflow::heuristicName(h));
    est.transferCalls = 0;
    (void)ws.schedule(dag, h);
    EXPECT_LE(est.transferCalls, kR * (kR + 1));
  }

  // The reference loop prices every in-edge on every resource at every
  // pick, and once more to record the placement.
  est.transferCalls = 0;
  (void)ws.scheduleReference(dag, workflow::Heuristic::kMinMin);
  EXPECT_GT(est.transferCalls, 2 * kWidth * kR);
}

}  // namespace
