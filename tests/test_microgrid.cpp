#include <gtest/gtest.h>

#include "grid/load.hpp"
#include "microgrid/dml.hpp"
#include "util/error.hpp"

namespace grads::microgrid {
namespace {

TEST(Dml, ParsesSwapExperimentConfig) {
  const auto spec = parseDml(swapExperimentDml());
  ASSERT_EQ(spec.clusters.size(), 3u);
  EXPECT_EQ(spec.clusters[0].name, "utk");
  EXPECT_EQ(spec.clusters[0].site, "UTK");
  EXPECT_EQ(spec.clusters[0].lanKind, "gigabit");
  ASSERT_EQ(spec.clusters[0].nodes.size(), 1u);
  EXPECT_DOUBLE_EQ(spec.clusters[0].nodes[0].mhz, 550.0);
  EXPECT_EQ(spec.clusters[0].nodes[0].count, 3);
  EXPECT_EQ(spec.totalNodes(), 7u);
  ASSERT_EQ(spec.wans.size(), 3u);
  EXPECT_DOUBLE_EQ(spec.wans[0].latencySec, 0.011);
}

TEST(Dml, CommentsAndBlankLinesIgnored) {
  const auto spec = parseDml(
      "# header comment\n"
      "\n"
      "cluster a SITE gigabit  # trailing comment\n"
      "  node 500 1 1.0 0.4 x2\n"
      "end\n");
  ASSERT_EQ(spec.clusters.size(), 1u);
  EXPECT_EQ(spec.totalNodes(), 2u);
}

TEST(Dml, RejectsMalformedInput) {
  EXPECT_THROW(parseDml("bogus keyword\n"), InvalidArgument);
  EXPECT_THROW(parseDml("node 1 1 1 1 x1\n"), InvalidArgument);  // no cluster
  EXPECT_THROW(parseDml("cluster a S gigabit\nnode 1 1 1 1 x1\n"),
               InvalidArgument);  // unterminated
  EXPECT_THROW(parseDml("cluster a S token-ring\nnode 1 1 1 1 x1\nend\n"),
               InvalidArgument);  // unknown lan
  EXPECT_THROW(parseDml("cluster a S gigabit\nnode x 1 1 1 x1\nend\n"),
               InvalidArgument);  // bad number
  EXPECT_THROW(parseDml("cluster a S gigabit\nnode 1 1 1 1 3\nend\n"),
               InvalidArgument);  // count without x
  EXPECT_THROW(parseDml("cluster a S gigabit\nend\n"),
               InvalidArgument);  // empty cluster
  EXPECT_THROW(
      parseDml("cluster a S gigabit\nnode 1 1 1 1 x1\nend\nwan a b 0.01 1e6\n"),
      InvalidArgument);  // unknown wan endpoint
}

TEST(Dml, InstantiateBuildsMatchingGrid) {
  sim::Engine eng;
  grid::Grid g(eng);
  const auto spec = parseDml(swapExperimentDml());
  instantiate(g, spec);
  EXPECT_EQ(g.nodeCount(), 7u);
  EXPECT_EQ(g.clusterCount(), 3u);
  const auto utk = g.findCluster("utk");
  ASSERT_TRUE(utk.has_value());
  const auto nodes = g.clusterNodes(*utk);
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_DOUBLE_EQ(g.node(nodes[0]).spec().mhz, 550.0);
  // The §4.2.2 latencies are preserved.
  const auto uiuc = g.findCluster("uiuc");
  const auto ucsd = g.findCluster("ucsd");
  EXPECT_NEAR(g.route(nodes[0], g.clusterNodes(*uiuc)[0]).latencySec, 0.011,
              0.001);
  EXPECT_NEAR(g.route(g.clusterNodes(*ucsd)[0], nodes[0]).latencySec, 0.030,
              0.001);
  // 550 MHz UTK vs 450 MHz UIUC: UTK nodes are faster.
  EXPECT_GT(g.node(nodes[0]).spec().effectiveFlops(),
            g.node(g.clusterNodes(*uiuc)[0]).spec().effectiveFlops());
}

TEST(Dml, LoadTracesParsedAndApplied) {
  const char* dml =
      "cluster a S gigabit\n"
      "  node 500 1 1.0 0.4 x2\n"
      "end\n"
      "load a0 step 10 2.0\n"
      "load a1 pulse 5 15 1.0\n";
  const auto spec = parseDml(dml);
  ASSERT_EQ(spec.loads.size(), 2u);
  EXPECT_EQ(spec.loads[0].node, "a0");
  EXPECT_DOUBLE_EQ(spec.loads[0].trace.weightAt(11.0), 2.0);
  EXPECT_DOUBLE_EQ(spec.loads[1].trace.weightAt(20.0), 0.0);

  sim::Engine eng;
  grid::Grid g(eng);
  instantiate(g, spec);
  eng.runUntil(12.0);
  EXPECT_NEAR(g.node(*g.findNode("a0")).cpuAvailability(), 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(g.node(*g.findNode("a1")).cpuAvailability(), 0.5, 1e-9);
  eng.runUntil(20.0);
  EXPECT_NEAR(g.node(*g.findNode("a1")).cpuAvailability(), 1.0, 1e-9);
}

TEST(Dml, LoadErrorsRejected) {
  EXPECT_THROW(parseDml("cluster a S gigabit\nload x step 1 1\n"),
               InvalidArgument);  // load inside cluster
  EXPECT_THROW(parseDml("load a0 ramp 1 2\n"), InvalidArgument);
  EXPECT_THROW(parseDml("load a0 pulse 9 3 1\n"), InvalidArgument);
}

TEST(Dml, LoadOnUnknownNodeRejectedAtInstantiate) {
  const auto spec = parseDml(
      "cluster a S gigabit\n  node 500 1 1.0 0.4 x1\nend\n"
      "load nosuch step 1 1\n");
  sim::Engine eng;
  grid::Grid g(eng);
  EXPECT_THROW(instantiate(g, spec), InvalidArgument);
}

TEST(Dml, EmulationOverheadsSlowResources) {
  sim::Engine eng1;
  sim::Engine eng2;
  grid::Grid direct(eng1);
  grid::Grid emulated(eng2);
  const auto spec = parseDml(swapExperimentDml());
  instantiate(direct, spec);
  instantiate(emulated, spec, true);
  const auto n1 = direct.clusterNodes(*direct.findCluster("utk"))[0];
  const auto n2 = emulated.clusterNodes(*emulated.findCluster("utk"))[0];
  EXPECT_LT(emulated.node(n2).spec().effectiveFlops(),
            direct.node(n1).spec().effectiveFlops());
  // ~3% CPU overhead.
  EXPECT_NEAR(emulated.node(n2).spec().effectiveFlops() /
                  direct.node(n1).spec().effectiveFlops(),
              0.97, 1e-9);
  // Network: higher latency, lower bandwidth.
  const auto r1 = direct.route(n1, direct.clusterNodes(*direct.findCluster("uiuc"))[0]);
  const auto r2 = emulated.route(n2, emulated.clusterNodes(*emulated.findCluster("uiuc"))[0]);
  EXPECT_GT(r2.latencySec, r1.latencySec);
}

TEST(Dml, EmulatedRunTracksDirectRunClosely) {
  // MicroGrid fidelity in miniature: the same computation on the emulated
  // grid finishes within a few percent of the direct grid.
  auto runOn = [](bool emulated) {
    sim::Engine eng;
    grid::Grid g(eng);
    const auto spec = parseDml(swapExperimentDml());
    instantiate(g, spec, emulated);
    const auto node = g.clusterNodes(*g.findCluster("utk"))[0];
    eng.spawn([](grid::Grid& g, grid::NodeId n) -> sim::Task {
      co_await g.node(n).compute(1e10);
    }(g, node));
    eng.run();
    return eng.now();
  };
  const double direct = runOn(false);
  const double emulated = runOn(true);
  EXPECT_GT(emulated, direct);
  EXPECT_LT(emulated, 1.06 * direct);
}

}  // namespace
}  // namespace grads::microgrid
