#include <gtest/gtest.h>

#include "grid/grid.hpp"
#include "grid/load.hpp"
#include "grid/testbeds.hpp"
#include "sim/sync.hpp"
#include "util/error.hpp"

namespace grads::grid {
namespace {

constexpr double kMB = 1024.0 * 1024.0;

TEST(Node, SpecDerivedRates) {
  NodeSpec s = utkQrNodeSpec(0);
  EXPECT_DOUBLE_EQ(s.peakFlopsPerCpu(), 933e6);
  EXPECT_DOUBLE_EQ(s.peakFlops(), 2 * 933e6);
  EXPECT_DOUBLE_EQ(s.effectiveFlops(), 2 * 933e6 * 0.12);
}

TEST(Node, RejectsBadSpecs) {
  sim::Engine eng;
  NodeSpec bad = uiucQrNodeSpec(0);
  bad.cpus = 0;
  EXPECT_THROW(Node(eng, 0, bad), InvalidArgument);
  bad = uiucQrNodeSpec(0);
  bad.efficiency = 0.0;
  EXPECT_THROW(Node(eng, 0, bad), InvalidArgument);
}

TEST(Node, ComputeTakesExpectedTime) {
  sim::Engine eng;
  NodeSpec s = uiucQrNodeSpec(0);  // 450 MHz, eff 0.22 → 99 Mflop/s
  Node n(eng, 0, s);
  double doneAt = -1.0;
  eng.spawn([](Node& node, double* t) -> sim::Task {
    co_await node.compute(450e6 * 0.22);  // one effective second of work
    *t = node.cpu().engine().now();
  }(n, &doneAt));
  eng.run();
  EXPECT_NEAR(doneAt, 1.0, 1e-9);
}

TEST(Node, InjectedLoadHalvesRate) {
  sim::Engine eng;
  Node n(eng, 0, uiucQrNodeSpec(0));
  EXPECT_DOUBLE_EQ(n.cpuAvailability(), 1.0);
  n.injectLoad(1.0);
  EXPECT_DOUBLE_EQ(n.cpuAvailability(), 0.5);
}

TEST(Node, DualCpuAvailabilityStaysFullForOneLoad) {
  sim::Engine eng;
  Node n(eng, 0, utkQrNodeSpec(0));  // 2 CPUs
  n.injectLoad(1.0);
  // Second process still gets a whole CPU on a dual-processor node.
  EXPECT_DOUBLE_EQ(n.cpuAvailability(), 1.0);
}

TEST(Grid, TopologyBookkeeping) {
  sim::Engine eng;
  Grid g(eng);
  const auto tb = buildQrTestbed(g);
  EXPECT_EQ(g.nodeCount(), 12u);
  EXPECT_EQ(g.clusterCount(), 2u);
  EXPECT_EQ(g.clusterNodes(tb.utk).size(), 4u);
  EXPECT_EQ(g.clusterNodes(tb.uiuc).size(), 8u);
  EXPECT_EQ(g.findCluster("utk"), std::optional<ClusterId>(tb.utk));
  EXPECT_EQ(g.findCluster("nope"), std::nullopt);
  EXPECT_EQ(g.findNode("uiuc3"), std::optional<NodeId>(tb.uiucNodes[3]));
}

TEST(Grid, IntraClusterRouteUsesLanOnly) {
  sim::Engine eng;
  Grid g(eng);
  const auto tb = buildQrTestbed(g);
  const Route r = g.route(tb.utkNodes[0], tb.utkNodes[1]);
  ASSERT_EQ(r.links.size(), 1u);
  EXPECT_LT(r.latencySec, 1e-3);
}

TEST(Grid, InterClusterRouteCrossesWan) {
  sim::Engine eng;
  Grid g(eng);
  const auto tb = buildQrTestbed(g);
  const Route r = g.route(tb.utkNodes[0], tb.uiucNodes[0]);
  EXPECT_EQ(r.links.size(), 3u);  // lan, wan, lan
  EXPECT_GT(r.latencySec, 0.011);
}

TEST(Grid, SameNodeTransferIsFree) {
  sim::Engine eng;
  Grid g(eng);
  const auto tb = buildQrTestbed(g);
  EXPECT_DOUBLE_EQ(g.transferEstimate(tb.utkNodes[0], tb.utkNodes[0], 1e9),
                   0.0);
}

TEST(Grid, RouteNeverListsALinkTwice) {
  sim::Engine eng;
  Grid g(eng);
  const auto tb = buildQrTestbed(g);
  // The same-cluster route must collapse to one LAN hop (the double-LAN
  // bug paid the switch twice and let a flow contend with itself); every
  // other route must be duplicate-free too.
  for (NodeId a = 0; a < g.nodeCount(); ++a) {
    for (NodeId b = 0; b < g.nodeCount(); ++b) {
      const Route r = g.route(a, b);
      for (std::size_t i = 0; i < r.links.size(); ++i) {
        for (std::size_t j = i + 1; j < r.links.size(); ++j) {
          EXPECT_NE(r.links[i], r.links[j])
              << "route " << a << "->" << b << " repeats a link";
        }
      }
    }
  }
  (void)tb;
}

TEST(Grid, IntraClusterTransferPinnedToLatencyPlusBytesOverBw) {
  sim::Engine eng;
  Grid g(eng);
  const auto tb = buildQrTestbed(g);
  double doneAt = -1.0;
  eng.spawn([](Grid& grid, NodeId a, NodeId b, double* t) -> sim::Task {
    co_await grid.transfer(a, b, kMB);
    *t = grid.engine().now();
  }(g, tb.utkNodes[0], tb.utkNodes[1], &doneAt));
  eng.run();
  // Exactly one LAN hop at the per-flow wire speed: latency + bytes/bw,
  // bit-for-bit (the single-flow backward-compatibility guarantee).
  const LinkSpec& lan = g.link(g.cluster(tb.utk).lan).spec();
  EXPECT_DOUBLE_EQ(doneAt,
                   lan.latencySec + kMB / lan.perFlowCapBytesPerSec);
}

TEST(Grid, TransferEstimateClampsToPerFlowCap) {
  sim::Engine eng;
  Grid g(eng);
  const auto tb = buildQrTestbed(g);
  // The switched LAN backplane is 25 MB/s but any single flow is capped at
  // wire speed (12.5 MB/s); the estimate and the idle LAN's live bandwidth
  // must both quote the capped rate.
  const Link& lan = g.link(g.cluster(tb.utk).lan);
  const double cap = lan.spec().perFlowCapBytesPerSec;
  ASSERT_GT(lan.spec().bandwidthBytesPerSec, cap);
  EXPECT_DOUBLE_EQ(g.transferEstimate(tb.utkNodes[0], tb.utkNodes[1], kMB),
                   lan.spec().latencySec + kMB / cap);
  EXPECT_DOUBLE_EQ(lan.availableBandwidth(), cap);
}

TEST(Grid, TransferEstimateUsesBottleneck) {
  sim::Engine eng;
  Grid g(eng);
  const auto tb = buildQrTestbed(g);
  const double est =
      g.transferEstimate(tb.utkNodes[0], tb.uiucNodes[0], 1.2 * kMB);
  // 1.2 MB over a 1.2 MB/s WAN ≈ 1 s (+ small latency).
  EXPECT_NEAR(est, 1.0, 0.05);
}

TEST(Grid, TransferTakesSimulatedTime) {
  sim::Engine eng;
  Grid g(eng);
  const auto tb = buildQrTestbed(g);
  double doneAt = -1.0;
  eng.spawn([](Grid& grid, NodeId a, NodeId b, double* t) -> sim::Task {
    co_await grid.transfer(a, b, 2.4 * kMB);
    *t = grid.engine().now();
  }(g, tb.utkNodes[0], tb.uiucNodes[0], &doneAt));
  eng.run();
  EXPECT_NEAR(doneAt, 2.0, 0.1);  // 2.4 MB at 1.2 MB/s
}

TEST(Grid, ConcurrentWanTransfersShareBandwidth) {
  sim::Engine eng;
  Grid g(eng);
  const auto tb = buildQrTestbed(g);
  double d1 = -1.0;
  double d2 = -1.0;
  auto xfer = [](Grid& grid, NodeId a, NodeId b, double* t) -> sim::Task {
    co_await grid.transfer(a, b, 1.2 * kMB);
    *t = grid.engine().now();
  };
  eng.spawn(xfer(g, tb.utkNodes[0], tb.uiucNodes[0], &d1));
  eng.spawn(xfer(g, tb.utkNodes[1], tb.uiucNodes[1], &d2));
  eng.run();
  // Two flows share the 1.2 MB/s pipe → each takes ~2 s instead of ~1 s.
  EXPECT_NEAR(d1, 2.0, 0.1);
  EXPECT_NEAR(d2, 2.0, 0.1);
}

TEST(Grid, RouteBetweenUnconnectedClustersThrows) {
  sim::Engine eng;
  Grid g(eng);
  const auto a = g.addCluster(ClusterSpec{"a", "A", gigabitLan("a.lan", 2)});
  const auto b = g.addCluster(ClusterSpec{"b", "B", gigabitLan("b.lan", 2)});
  const auto na = g.addNode(a, uiucQrNodeSpec(0));
  const auto nb = g.addNode(b, uiucQrNodeSpec(1));
  EXPECT_THROW(g.route(na, nb), InvalidArgument);
  EXPECT_THROW(g.route(na, nb), InvalidArgument);  // the failure is not stored

  const LinkId ab = g.connectClusters(a, b, internetWan("ab", 0.010, kMB));
  const Route& r = g.route(na, nb);
  ASSERT_EQ(r.links.size(), 3u);  // lanA, ab, lanB
  EXPECT_EQ(r.links[1], ab);
}

TEST(Grid, MultiHopRouting) {
  sim::Engine eng;
  Grid g(eng);
  const auto a = g.addCluster(ClusterSpec{"a", "A", gigabitLan("a.lan", 2)});
  const auto b = g.addCluster(ClusterSpec{"b", "B", gigabitLan("b.lan", 2)});
  const auto c = g.addCluster(ClusterSpec{"c", "C", gigabitLan("c.lan", 2)});
  const auto na = g.addNode(a, uiucQrNodeSpec(0));
  const auto nc = g.addNode(c, uiucQrNodeSpec(1));
  g.connectClusters(a, b, internetWan("ab", 0.010, kMB));
  g.connectClusters(b, c, internetWan("bc", 0.020, kMB));
  const Route r = g.route(na, nc);
  EXPECT_EQ(r.links.size(), 4u);  // lanA, ab, bc, lanC
  EXPECT_GT(r.latencySec, 0.030);

  // A direct link replaces the stored route. (r is a copy: connectClusters
  // invalidates references into the route table.)
  const LinkId ac = g.connectClusters(a, c, internetWan("ac", 0.005, kMB));
  const Route& direct = g.route(na, nc);
  ASSERT_EQ(direct.links.size(), 3u);  // lanA, ac, lanC
  EXPECT_EQ(direct.links[1], ac);
  EXPECT_LT(direct.latencySec, r.latencySec);
}

TEST(Grid, AddingAClusterRegrowsTheRouteTable) {
  sim::Engine eng;
  Grid g(eng);
  const auto a = g.addCluster(ClusterSpec{"a", "A", gigabitLan("a.lan", 2)});
  const auto b = g.addCluster(ClusterSpec{"b", "B", gigabitLan("b.lan", 2)});
  const auto na = g.addNode(a, uiucQrNodeSpec(0));
  const auto nb = g.addNode(b, uiucQrNodeSpec(1));
  const auto nb2 = g.addNode(b, uiucQrNodeSpec(2));
  g.connectClusters(a, b, internetWan("ab", 0.010, kMB));
  EXPECT_EQ(g.route(na, nb).links.size(), 3u);   // lanA, ab, lanB
  EXPECT_EQ(g.route(nb, nb2).links.size(), 1u);  // lanB

  // Every entry's index changes when the table gains a row and a column.
  const auto c = g.addCluster(ClusterSpec{"c", "C", gigabitLan("c.lan", 2)});
  EXPECT_EQ(g.route(nb, na).links.size(), 3u);
  const auto nc = g.addNode(c, uiucQrNodeSpec(3));
  g.connectClusters(b, c, internetWan("bc", 0.020, kMB));
  EXPECT_EQ(g.route(na, nc).links.size(), 4u);  // lanA, ab, bc, lanC
}

TEST(LoadTrace, WeightAtFollowsPhases) {
  const auto t = LoadTrace::pulse(10.0, 20.0, 2.0);
  EXPECT_DOUBLE_EQ(t.weightAt(5.0), 0.0);
  EXPECT_DOUBLE_EQ(t.weightAt(10.0), 2.0);
  EXPECT_DOUBLE_EQ(t.weightAt(19.9), 2.0);
  EXPECT_DOUBLE_EQ(t.weightAt(20.0), 0.0);
}

TEST(LoadTrace, RejectsNonMonotonicPhases) {
  EXPECT_THROW(LoadTrace({LoadPhase{5.0, 1.0}, LoadPhase{5.0, 0.0}}),
               InvalidArgument);
}

TEST(LoadTrace, StepAtMatchesPaperScenario) {
  const auto t = LoadTrace::stepAt(300.0, 2.0);
  EXPECT_DOUBLE_EQ(t.weightAt(299.0), 0.0);
  EXPECT_DOUBLE_EQ(t.weightAt(300.0), 2.0);
  EXPECT_DOUBLE_EQ(t.weightAt(1e9), 2.0);
}

TEST(LoadTrace, ApplyDrivesNodeAvailability) {
  sim::Engine eng;
  Node n(eng, 0, uiucQrNodeSpec(0));
  applyLoadTrace(eng, n, LoadTrace::pulse(10.0, 20.0, 1.0));
  eng.runUntil(5.0);
  EXPECT_DOUBLE_EQ(n.cpuAvailability(), 1.0);
  eng.runUntil(15.0);
  EXPECT_DOUBLE_EQ(n.cpuAvailability(), 0.5);
  eng.runUntil(25.0);
  EXPECT_DOUBLE_EQ(n.cpuAvailability(), 1.0);
}

TEST(LoadTrace, RandomOnOffAlternates) {
  Rng rng(17);
  const auto t = LoadTrace::randomOnOff(rng, 30.0, 10.0, 1.5, 1000.0);
  ASSERT_FALSE(t.empty());
  double prev = -1.0;
  bool on = true;
  for (const auto& p : t.phases()) {
    EXPECT_GT(p.start, prev);
    prev = p.start;
    EXPECT_DOUBLE_EQ(p.weight, on ? 1.5 : 0.0);
    on = !on;
  }
}

TEST(Testbeds, MacroGridHasPaperScale) {
  sim::Engine eng;
  Grid g(eng);
  const auto mg = buildMacroGrid(g);
  EXPECT_EQ(mg.clusters.size(), 6u);
  EXPECT_EQ(g.nodeCount(), 10u + 24u + 24u + 24u);
  // Every pair of clusters must be routable.
  for (ClusterId a : mg.clusters) {
    for (ClusterId b : mg.clusters) {
      if (a == b || g.clusterNodes(a).empty() || g.clusterNodes(b).empty())
        continue;
      EXPECT_NO_THROW(g.route(g.clusterNodes(a)[0], g.clusterNodes(b)[0]));
    }
  }
}

TEST(Testbeds, EmanTestbedIsHeterogeneous) {
  sim::Engine eng;
  Grid g(eng);
  const auto tb = buildEmanTestbed(g);
  bool sawIa32 = false;
  bool sawIa64 = false;
  for (NodeId id : g.allNodes()) {
    sawIa32 |= g.node(id).spec().arch == Arch::kIA32;
    sawIa64 |= g.node(id).spec().arch == Arch::kIA64;
  }
  EXPECT_TRUE(sawIa32);
  EXPECT_TRUE(sawIa64);
  EXPECT_EQ(g.clusterNodes(tb.ia64).size(), 8u);
}

}  // namespace
}  // namespace grads::grid
