#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "grid/load.hpp"
#include "grid/testbeds.hpp"
#include "services/gis.hpp"
#include "services/ibp.hpp"
#include "services/nws.hpp"
#include "util/error.hpp"

namespace grads::services {
namespace {

constexpr double kMB = 1024.0 * 1024.0;

TEST(Forecasters, LastValueTracksInput) {
  auto f = makeLastValue();
  f->update(1.0);
  f->update(9.0);
  EXPECT_DOUBLE_EQ(f->forecast(), 9.0);
}

TEST(Forecasters, RunningMeanConverges) {
  auto f = makeRunningMean();
  for (int i = 0; i < 100; ++i) f->update(i % 2 == 0 ? 0.0 : 1.0);
  EXPECT_NEAR(f->forecast(), 0.5, 1e-9);
}

TEST(Forecasters, SlidingMedianIgnoresSpikes) {
  auto f = makeSlidingMedian(5);
  for (double v : {1.0, 1.0, 100.0, 1.0, 1.0}) f->update(v);
  EXPECT_DOUBLE_EQ(f->forecast(), 1.0);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(Forecasters, SlidingMedianMatchesSortingTheWindow) {
  // The median read from the forecaster's sorted copy of its window must
  // equal, bit for bit, sorting the window afresh, while the window fills
  // and after it slides. Eight levels give many exact duplicates.
  const double levels[] = {0.1, 0.2, 0.3, 1.0 / 3.0, 0.7, 1e-3, 2.5, 7.0};
  for (const std::size_t window : {1, 2, 3, 4, 5, 6, 7, 8, 21}) {
    for (const std::uint64_t seed : {3u, 11u, 29u}) {
      Rng rng(seed * 100 + window);
      auto f = makeSlidingMedian(window);
      std::deque<double> recent;
      for (int i = 0; i < 3 * static_cast<int>(window) + 20; ++i) {
        const double v = levels[rng.uniformInt(0, 7)];
        f->update(v);
        recent.push_back(v);
        if (recent.size() > window) recent.pop_front();
        std::vector<double> sorted(recent.begin(), recent.end());
        std::sort(sorted.begin(), sorted.end());
        const std::size_t mid = sorted.size() / 2;
        const double want = sorted.size() % 2 == 1
                                ? sorted[mid]
                                : 0.5 * (sorted[mid - 1] + sorted[mid]);
        ASSERT_EQ(bits(f->forecast()), bits(want))
            << "window " << window << ", seed " << seed << ", update " << i;
      }
    }
  }
}

TEST(Forecasters, RestoredForecastsMatchTheOriginalBitForBit) {
  // A restored forecaster (and battery) must forecast exactly what the
  // original does, at the restore and over 30 more identical updates.
  const auto noisy = [](Rng& rng) { return 0.5 + rng.normal(0.0, 0.1); };
  const std::vector<std::function<std::unique_ptr<Forecaster>()>> kinds = {
      [] { return makeLastValue(); },       [] { return makeRunningMean(); },
      [] { return makeSlidingMean(10); },   [] { return makeSlidingMedian(5); },
      [] { return makeSlidingMedian(21); }, [] { return makeSlidingMedian(6); },
      [] { return makeExpSmoothing(0.2); }, [] { return makeAr1(); }};
  for (const auto& make : kinds) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      Rng rng(seed);
      auto live = make();
      for (int i = 0; i < 60; ++i) live->update(noisy(rng));
      core::SnapshotWriter w;
      w(*live);
      auto restored = make();
      core::SnapshotReader r(w.words());
      r(*restored);
      ASSERT_TRUE(r.done());
      for (int i = 0; i <= 30; ++i) {
        ASSERT_EQ(bits(restored->forecast()), bits(live->forecast()))
            << live->name() << ", seed " << seed << ", " << i << " updates on";
        const double v = noisy(rng);
        live->update(v);
        restored->update(v);
      }
    }
  }
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    ForecasterBattery live;
    for (int i = 0; i < 60; ++i) live.addMeasurement(noisy(rng));
    core::SnapshotWriter w;
    w(live);
    ForecasterBattery restored;
    core::SnapshotReader r(w.words());
    r(restored);
    ASSERT_TRUE(r.done());
    for (int i = 0; i <= 30; ++i) {
      ASSERT_EQ(bits(restored.forecast()), bits(live.forecast()))
          << "battery, seed " << seed << ", " << i << " updates on";
      ASSERT_EQ(restored.bestName(), live.bestName())
          << "battery, seed " << seed << ", " << i << " updates on";
      const double v = noisy(rng);
      live.addMeasurement(v);
      restored.addMeasurement(v);
    }
  }
}

TEST(Forecasters, ExpSmoothingWeighsRecent) {
  auto f = makeExpSmoothing(0.5);
  f->update(0.0);
  f->update(1.0);
  EXPECT_DOUBLE_EQ(f->forecast(), 0.5);
}

TEST(Forecasters, ExpSmoothingRejectsBadAlpha) {
  EXPECT_THROW(makeExpSmoothing(0.0)->forecast(), InvalidArgument);
  EXPECT_THROW(makeExpSmoothing(1.5)->forecast(), InvalidArgument);
}

TEST(Battery, PicksLowErrorForecasterOnNoisySeries) {
  // Noisy-but-stationary series: median/mean beat last-value.
  ForecasterBattery b;
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    b.addMeasurement(0.5 + (rng.uniform() < 0.1 ? 0.4 : rng.normal(0.0, 0.02)));
  }
  EXPECT_NE(b.bestName(), "last-value");
  EXPECT_NEAR(b.forecast(), 0.5, 0.1);
}

TEST(Battery, TracksStepChange) {
  ForecasterBattery b;
  for (int i = 0; i < 50; ++i) b.addMeasurement(1.0);
  for (int i = 0; i < 50; ++i) b.addMeasurement(0.25);
  // After a sustained shift, the forecast must follow the new level.
  EXPECT_NEAR(b.forecast(), 0.25, 0.15);
}

TEST(Battery, ForecastBeforeDataThrows) {
  ForecasterBattery b;
  EXPECT_THROW(b.forecast(), InvalidArgument);
}

TEST(Nws, SensesIdleGridAsFullyAvailable) {
  sim::Engine eng;
  grid::Grid g(eng);
  const auto tb = grid::buildQrTestbed(g);
  Nws nws(eng, g, 10.0, 0.0);  // noise-free
  nws.start();
  eng.runUntil(100.0);
  EXPECT_GE(nws.samplesTaken(), 10u);
  EXPECT_NEAR(nws.tryCpuAvailability(tb.utkNodes[0]).value(), 1.0, 1e-9);
}

TEST(Nws, DetectsInjectedLoad) {
  sim::Engine eng;
  grid::Grid g(eng);
  const auto tb = grid::buildQrTestbed(g);
  Nws nws(eng, g, 5.0, 0.0);
  nws.start();
  // uiuc0 is single-CPU: one competing process → availability 0.5.
  grid::applyLoadTrace(eng, g.node(tb.uiucNodes[0]),
                       grid::LoadTrace::stepAt(50.0, 1.0));
  eng.runUntil(300.0);
  EXPECT_NEAR(nws.tryCpuAvailability(tb.uiucNodes[0]).value(), 0.5, 0.05);
  EXPECT_NEAR(nws.tryCpuAvailability(tb.uiucNodes[1]).value(), 1.0, 1e-9);
}

TEST(Nws, TransferTimeMatchesGridEstimate) {
  sim::Engine eng;
  grid::Grid g(eng);
  const auto tb = grid::buildQrTestbed(g);
  Nws nws(eng, g, 10.0, 0.0);
  nws.start();
  eng.runUntil(50.0);
  const double est =
      nws.transferTimeDegraded(tb.utkNodes[0], tb.uiucNodes[0], 3 * kMB);
  EXPECT_NEAR(est, g.transferEstimate(tb.utkNodes[0], tb.uiucNodes[0], 3 * kMB),
              0.2);
}

TEST(Nws, DegradedTransferTimeClampsToPerFlowCap) {
  sim::Engine eng;
  grid::Grid g(eng);
  const auto tb = grid::buildQrTestbed(g);
  // Never started: no measurements, so the degraded estimate falls back to
  // link specs. The LAN backplane (25 MB/s) exceeds the per-flow wire speed
  // (12.5 MB/s); quoting the backplane would undercut transferEstimate.
  Nws nws(eng, g, 10.0, 0.0);
  const grid::LinkSpec& lan = g.link(g.cluster(tb.utk).lan).spec();
  ASSERT_GT(lan.bandwidthBytesPerSec, lan.perFlowCapBytesPerSec);
  EXPECT_DOUBLE_EQ(
      nws.transferTimeDegraded(tb.utkNodes[0], tb.utkNodes[1], kMB),
      lan.latencySec + kMB / lan.perFlowCapBytesPerSec);
}

TEST(Nws, SamplesLinkUtilizationFromFlowRegistry) {
  sim::Engine eng;
  grid::Grid g(eng);
  const auto tb = grid::buildQrTestbed(g);
  Nws nws(eng, g, 1.0, 0.0);  // noise-free: gauges report ground truth
  nws.start();
  const auto route = g.route(tb.utkNodes[0], tb.uiucNodes[0]);
  const grid::LinkId wan = route.links[1];
  // A long transfer saturates the WAN while the sensor sweeps keep firing.
  eng.spawn([](grid::Grid& grid, grid::NodeId a, grid::NodeId b) -> sim::Task {
    co_await grid.transfer(a, b, 12.0 * kMB);  // ~10 s at 1.2 MB/s
  }(g, tb.utkNodes[0], tb.uiucNodes[0]),
            "long-xfer");
  eng.runUntil(5.0);
  ASSERT_TRUE(nws.tryLinkUtilization(wan).has_value());
  EXPECT_DOUBLE_EQ(*nws.tryLinkUtilization(wan), 1.0);
  // Drained: subsequent sweeps see the link idle again.
  eng.runUntil(30.0);
  EXPECT_DOUBLE_EQ(nws.tryLinkUtilization(wan).value(), 0.0);
}

TEST(Nws, EffectiveRateScalesWithAvailability) {
  sim::Engine eng;
  grid::Grid g(eng);
  const auto tb = grid::buildQrTestbed(g);
  Nws nws(eng, g, 5.0, 0.0);
  nws.start();
  g.node(tb.uiucNodes[0]).injectLoad(1.0);
  eng.runUntil(50.0);
  const auto& spec = g.node(tb.uiucNodes[0]).spec();
  EXPECT_NEAR(nws.tryEffectiveRate(tb.uiucNodes[0]).value(),
              0.5 * spec.effectiveFlopsPerCpu(), 1e3);
}

TEST(Gis, SoftwareDirectory) {
  sim::Engine eng;
  grid::Grid g(eng);
  const auto tb = grid::buildQrTestbed(g);
  Gis gis(g);
  gis.installEverywhere(software::kLocalBinder);
  gis.installSoftware(tb.utkNodes[0], software::kScalapack, "/opt/scalapack");
  EXPECT_TRUE(gis.hasSoftware(tb.utkNodes[0], software::kScalapack));
  EXPECT_FALSE(gis.hasSoftware(tb.utkNodes[1], software::kScalapack));
  EXPECT_EQ(gis.softwareLocation(tb.utkNodes[0], software::kScalapack),
            std::optional<std::string>("/opt/scalapack"));
  EXPECT_EQ(gis.softwareLocation(tb.utkNodes[1], software::kScalapack),
            std::nullopt);
}

TEST(Gis, DownNodesExcludedFromDiscovery) {
  sim::Engine eng;
  grid::Grid g(eng);
  const auto tb = grid::buildQrTestbed(g);
  Gis gis(g);
  gis.installEverywhere("x");
  gis.setNodeUp(tb.utkNodes[0], false);
  EXPECT_FALSE(gis.isNodeUp(tb.utkNodes[0]));
  EXPECT_EQ(gis.availableNodes().size(), g.nodeCount() - 1);
}

TEST(Ibp, LocalPutIsDiskBound) {
  sim::Engine eng;
  grid::Grid g(eng);
  const auto tb = grid::buildQrTestbed(g);
  Ibp ibp(g);
  double doneAt = -1.0;
  const double bytes = 30.0 * kMB;  // one second at 30 MB/s disk
  eng.spawn([](Ibp& s, double b, grid::NodeId n, double* t,
               sim::Engine& e) -> sim::Task {
    co_await s.put("ckpt", b, n);
    *t = e.now();
  }(ibp, bytes, tb.utkNodes[0], &doneAt, eng));
  eng.run();
  EXPECT_NEAR(doneAt, 1.0, 0.01);
  EXPECT_TRUE(ibp.exists("ckpt"));
  EXPECT_DOUBLE_EQ(ibp.sizeOf("ckpt"), bytes);
  EXPECT_EQ(ibp.locationOf("ckpt"), tb.utkNodes[0]);
}

TEST(Ibp, RemoteGetPaysWanTransfer) {
  sim::Engine eng;
  grid::Grid g(eng);
  const auto tb = grid::buildQrTestbed(g);
  Ibp ibp(g);
  double doneAt = -1.0;
  eng.spawn([](Ibp& s, grid::NodeId from, grid::NodeId to, double* t,
               sim::Engine& e) -> sim::Task {
    co_await s.put("ckpt", 1.2 * kMB, from);
    co_await s.get("ckpt", to);
    *t = e.now();
  }(ibp, tb.utkNodes[0], tb.uiucNodes[0], &doneAt, eng));
  eng.run();
  // put: 1.2/30 s disk; get: 1.2/30 disk + ~1 s WAN at 1.2 MB/s.
  EXPECT_NEAR(doneAt, 0.04 + 0.04 + 1.0, 0.1);
}

TEST(Ibp, LocalReadSkipsNetwork) {
  sim::Engine eng;
  grid::Grid g(eng);
  const auto tb = grid::buildQrTestbed(g);
  Ibp ibp(g);
  double doneAt = -1.0;
  eng.spawn([](Ibp& s, grid::NodeId n, double* t, sim::Engine& e) -> sim::Task {
    co_await s.put("k", 30.0 * kMB, n);
    co_await s.get("k", n);
    *t = e.now();
  }(ibp, tb.utkNodes[0], &doneAt, eng));
  eng.run();
  EXPECT_NEAR(doneAt, 2.0, 0.05);  // write 1 s + read 1 s, no WAN
}

TEST(Ibp, SliceValidation) {
  sim::Engine eng;
  grid::Grid g(eng);
  const auto tb = grid::buildQrTestbed(g);
  Ibp ibp(g);
  eng.spawn([](Ibp& s, grid::NodeId n) -> sim::Task {
    co_await s.put("k", 100.0, n);
    co_await s.getSlice("k", 1000.0, n);  // larger than object
  }(ibp, tb.utkNodes[0]));
  EXPECT_THROW(eng.run(), InvalidArgument);
}

TEST(Ibp, UnknownKeyThrows) {
  sim::Engine eng;
  grid::Grid g(eng);
  grid::buildQrTestbed(g);
  Ibp ibp(g);
  EXPECT_THROW(ibp.sizeOf("nope"), InvalidArgument);
  EXPECT_THROW(ibp.remove("nope"), InvalidArgument);
}

TEST(Ibp, RemoveDeletesObject) {
  sim::Engine eng;
  grid::Grid g(eng);
  const auto tb = grid::buildQrTestbed(g);
  Ibp ibp(g);
  eng.spawn([](Ibp& s, grid::NodeId n) -> sim::Task {
    co_await s.put("k", 10.0, n);
  }(ibp, tb.utkNodes[0]));
  eng.run();
  ibp.remove("k");
  EXPECT_FALSE(ibp.exists("k"));
  EXPECT_EQ(ibp.objectCount(), 0u);
}

}  // namespace
}  // namespace grads::services
