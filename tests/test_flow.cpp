#include <gtest/gtest.h>

#include "core/snapshot.hpp"
#include "grid/grid.hpp"
#include "grid/testbeds.hpp"

namespace grads::grid {
namespace {

constexpr double kMB = 1024.0 * 1024.0;
constexpr double kWanBw = 1.2 * kMB;  // utk-uiuc.wan, one shared pipe

struct FlowFixture {
  sim::Engine eng;
  Grid g{eng};
  QrTestbed tb;

  FlowFixture() { tb = buildQrTestbed(g); }

  double wanRouteLatency() const {
    return g.route(tb.utkNodes[0], tb.uiucNodes[0]).latencySec;
  }
  LinkId wan() const {
    return g.route(tb.utkNodes[0], tb.uiucNodes[0]).links[1];
  }
};

sim::Task xfer(Grid* g, NodeId a, NodeId b, double bytes, TransferClass cls,
               double* doneAt) {
  co_await g->transfer(a, b, bytes, cls);
  *doneAt = g->engine().now();
}

// ---------------------------------------------------------------------------
// Single-flow backward compatibility: an uncontended transfer reproduces the
// legacy per-link streaming time bit-for-bit.
// ---------------------------------------------------------------------------

TEST(FlowModel, LoneWanFlowMatchesLegacyTimeExactly) {
  FlowFixture f;
  double doneAt = -1.0;
  f.eng.spawn(xfer(&f.g, f.tb.utkNodes[0], f.tb.uiucNodes[0], 2.4 * kMB,
                   TransferClass::kInteractive, &doneAt));
  f.eng.run();
  // latency + bytes/bottleneck, same doubles the old model produced.
  EXPECT_DOUBLE_EQ(doneAt, f.wanRouteLatency() + 2.4 * kMB / kWanBw);
}

TEST(FlowModel, LoneBulkFlowKeepsFullRateWhenUncontended) {
  FlowFixture f;
  ASSERT_TRUE(f.g.flows().pacingEnabled());
  double doneAt = -1.0;
  f.eng.spawn(xfer(&f.g, f.tb.utkNodes[0], f.tb.uiucNodes[0], 2.4 * kMB,
                   TransferClass::kBulk, &doneAt));
  f.eng.run();
  // Pacing weights are powers of two: w·(capacity/w) == capacity exactly,
  // so an uncontended bulk flow pays no pacing tax at all.
  EXPECT_DOUBLE_EQ(doneAt, f.wanRouteLatency() + 2.4 * kMB / kWanBw);
}

// ---------------------------------------------------------------------------
// Max-min fair sharing.
// ---------------------------------------------------------------------------

TEST(FlowModel, ConcurrentWanFlowsGetMaxMinShares) {
  FlowFixture f;
  double done[3] = {-1.0, -1.0, -1.0};
  for (int i = 0; i < 3; ++i) {
    f.eng.spawn(xfer(&f.g, f.tb.utkNodes[i], f.tb.uiucNodes[i], 1.2 * kMB,
                     TransferClass::kInteractive, &done[i]));
  }
  f.eng.run();
  // Three equal flows over the shared WAN pipe: each streams at cap/3 and
  // all finish at the analytic max-min time.
  const double want = f.wanRouteLatency() + 1.2 * kMB / (kWanBw / 3.0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(done[i], want, 1e-9) << "flow " << i;
  }
  EXPECT_EQ(f.g.flows().peakConcurrentFlows(), 3u);
  EXPECT_EQ(f.g.flows().flowsCompleted(), 3u);
}

TEST(FlowModel, DepartureReturnsBandwidthToSurvivors) {
  FlowFixture f;
  double shortDone = -1.0;
  double longDone = -1.0;
  // Equal rates (cap/2); the short flow drains first and the survivor gets
  // the whole pipe back for its remainder.
  f.eng.spawn(xfer(&f.g, f.tb.utkNodes[0], f.tb.uiucNodes[0], 1.2 * kMB,
                   TransferClass::kInteractive, &shortDone));
  f.eng.spawn(xfer(&f.g, f.tb.utkNodes[1], f.tb.uiucNodes[1], 2.4 * kMB,
                   TransferClass::kInteractive, &longDone));
  f.eng.run();
  const double lat = f.wanRouteLatency();
  // Short: 1.2 MB at 0.6 MB/s = 2 s. Long: 1.2 MB at 0.6 (2 s), remaining
  // 1.2 MB alone at 1.2 (1 s) = 3 s total.
  EXPECT_NEAR(shortDone, lat + 2.0, 1e-9);
  EXPECT_NEAR(longDone, lat + 3.0, 1e-9);
}

TEST(FlowModel, MidTransferBandwidthScaleResharesTheFlow) {
  FlowFixture f;
  double doneAt = -1.0;
  f.eng.spawn(xfer(&f.g, f.tb.utkNodes[0], f.tb.uiucNodes[0], 2.4 * kMB,
                   TransferClass::kInteractive, &doneAt));
  const double lat = f.wanRouteLatency();
  const LinkId wan = f.wan();
  // Halfway through (1.2 MB delivered), the WAN degrades to half rate.
  f.eng.schedule(lat + 1.0, [&] { f.g.link(wan).setBandwidthScale(0.5); });
  f.eng.run();
  // 1 s at 1.2 MB/s, then 1.2 MB at 0.6 MB/s = 2 s more.
  EXPECT_NEAR(doneAt, lat + 3.0, 1e-9);
}

TEST(FlowModel, EstimateNowAgreesWithContendedActual) {
  FlowFixture f;
  double longDone = -1.0;
  double probeDone = -1.0;
  double estimate = -1.0;
  // A long flow owns the pipe; mid-flight we estimate from the WAN's
  // available bandwidth and then launch a second flow. The estimate must
  // predict the contended (half-share) completion, not the uncontended one.
  f.eng.spawn(xfer(&f.g, f.tb.utkNodes[0], f.tb.uiucNodes[0], 24.0 * kMB,
                   TransferClass::kInteractive, &longDone));
  f.eng.schedule(1.0, [&] {
    estimate = f.wanRouteLatency() +
               1.2 * kMB / f.g.link(f.wan()).availableBandwidth();
    f.eng.spawn(xfer(&f.g, f.tb.utkNodes[1], f.tb.uiucNodes[1], 1.2 * kMB,
                     TransferClass::kInteractive, &probeDone));
  });
  f.eng.run();
  EXPECT_NEAR(estimate, f.wanRouteLatency() + 1.2 * kMB / (kWanBw / 2.0),
              1e-9);
  EXPECT_NEAR(probeDone - 1.0, estimate, 1e-9);
}

// ---------------------------------------------------------------------------
// Pacing: bulk flows yield to interactive traffic on contended links.
// ---------------------------------------------------------------------------

TEST(FlowModel, BulkYieldsToInteractiveWhenPaced) {
  FlowFixture f;
  double bulkDone = -1.0;
  double interDone = -1.0;
  f.eng.spawn(xfer(&f.g, f.tb.utkNodes[0], f.tb.uiucNodes[0], 1.2 * kMB,
                   TransferClass::kBulk, &bulkDone));
  f.eng.spawn(xfer(&f.g, f.tb.utkNodes[1], f.tb.uiucNodes[1], 1.2 * kMB,
                   TransferClass::kInteractive, &interDone));
  f.eng.run();
  const double lat = f.wanRouteLatency();
  // Weights 0.25 vs 1.0 → interactive streams at 0.96 MB/s (1.25 s), bulk
  // at 0.24; after the interactive flow drains, bulk's remaining 0.9 MB
  // runs alone (0.75 s) for 2 s total — work conservation.
  EXPECT_NEAR(interDone, lat + 1.2 / 0.96, 1e-9);
  EXPECT_NEAR(bulkDone, lat + 2.0, 1e-9);
}

TEST(FlowModel, PacingDisabledSharesEqually) {
  FlowFixture f;
  f.g.flows().setPacingEnabled(false);
  double bulkDone = -1.0;
  double interDone = -1.0;
  f.eng.spawn(xfer(&f.g, f.tb.utkNodes[0], f.tb.uiucNodes[0], 1.2 * kMB,
                   TransferClass::kBulk, &bulkDone));
  f.eng.spawn(xfer(&f.g, f.tb.utkNodes[1], f.tb.uiucNodes[1], 1.2 * kMB,
                   TransferClass::kInteractive, &interDone));
  f.eng.run();
  const double want = f.wanRouteLatency() + 1.2 * kMB / (kWanBw / 2.0);
  EXPECT_NEAR(interDone, want, 1e-9);
  EXPECT_NEAR(bulkDone, want, 1e-9);
}

// ---------------------------------------------------------------------------
// Static (ablation) mode: contention is ignored entirely.
// ---------------------------------------------------------------------------

TEST(FlowModel, StaticModeOverlapsFlowsForFree) {
  FlowFixture f;
  f.g.flows().setSharingMode(FlowRegistry::SharingMode::kStatic);
  double done[2] = {-1.0, -1.0};
  for (int i = 0; i < 2; ++i) {
    f.eng.spawn(xfer(&f.g, f.tb.utkNodes[i], f.tb.uiucNodes[i], 1.2 * kMB,
                     TransferClass::kInteractive, &done[i]));
  }
  f.eng.run();
  // Both flows pretend the pipe is theirs alone — the physically impossible
  // baseline the flow model exists to correct.
  const double want = f.wanRouteLatency() + 1.2 * kMB / kWanBw;
  EXPECT_NEAR(done[0], want, 1e-9);
  EXPECT_NEAR(done[1], want, 1e-9);
}

// ---------------------------------------------------------------------------
// Congestion gauges.
// ---------------------------------------------------------------------------

TEST(FlowModel, GaugesReportContentionMidFlight) {
  FlowFixture f;
  double done[2] = {-1.0, -1.0};
  for (int i = 0; i < 2; ++i) {
    f.eng.spawn(xfer(&f.g, f.tb.utkNodes[i], f.tb.uiucNodes[i], 1.2 * kMB,
                     TransferClass::kInteractive, &done[i]));
  }
  const LinkId wan = f.wan();
  double util = -1.0;
  std::size_t active = 0;
  f.eng.schedule(1.0, [&] {
    util = f.g.flows().linkUtilization(wan);
    active = f.g.flows().activeFlows();
  });
  f.eng.run();
  EXPECT_DOUBLE_EQ(util, 1.0);  // pipe fully allocated
  EXPECT_EQ(active, 2u);
  // Drained: gauges return to idle.
  EXPECT_DOUBLE_EQ(f.g.flows().linkUtilization(wan), 0.0);
  EXPECT_EQ(f.g.flows().activeFlows(), 0u);
}

// ---------------------------------------------------------------------------
// Snapshot round-trip.
// ---------------------------------------------------------------------------

TEST(FlowModel, RegistryStateRoundTripsThroughSnapshot) {
  FlowFixture f;
  f.g.flows().setPacingEnabled(false);
  double doneAt = -1.0;
  f.eng.spawn(xfer(&f.g, f.tb.utkNodes[0], f.tb.utkNodes[1], kMB,
                   TransferClass::kInteractive, &doneAt));
  f.eng.run();

  core::SnapshotWriter w;
  f.g.flows().encodeState(w);

  FlowFixture g2;
  core::SnapshotReader r(w.words());
  g2.g.flows().decodeState(r);
  EXPECT_EQ(g2.g.flows().sharingMode(), FlowRegistry::SharingMode::kMaxMin);
  EXPECT_FALSE(g2.g.flows().pacingEnabled());
  EXPECT_EQ(g2.g.flows().flowsOpened(), f.g.flows().flowsOpened());
  EXPECT_EQ(g2.g.flows().flowsCompleted(), f.g.flows().flowsCompleted());
  EXPECT_DOUBLE_EQ(g2.g.flows().bytesCompleted(), kMB);
  EXPECT_EQ(g2.g.flows().solves(), f.g.flows().solves());
  EXPECT_EQ(g2.g.flows().peakConcurrentFlows(), 1u);
}

}  // namespace
}  // namespace grads::grid
