#include <gtest/gtest.h>

#include <vector>

#include "grid/testbeds.hpp"
#include "sim/sync.hpp"
#include "util/error.hpp"
#include "vmpi/world.hpp"

namespace grads::vmpi {
namespace {

constexpr double kMB = 1024.0 * 1024.0;

struct Fixture {
  sim::Engine eng;
  grid::Grid g{eng};
  grid::QrTestbed tb;
  std::unique_ptr<World> world;

  explicit Fixture(int ranks = 4) {
    tb = grid::buildQrTestbed(g);
    std::vector<grid::NodeId> mapping;
    for (int r = 0; r < ranks; ++r) {
      mapping.push_back(tb.uiucNodes[static_cast<std::size_t>(r)]);
    }
    world = std::make_unique<World>(g, mapping, "test");
  }
};

TEST(World, RejectsEmptyOrBadMapping) {
  sim::Engine eng;
  grid::Grid g(eng);
  grid::buildQrTestbed(g);
  EXPECT_THROW(World(g, {}), InvalidArgument);
  EXPECT_THROW(World(g, {9999}), InvalidArgument);
}

TEST(World, SendRecvDeliversPayload) {
  Fixture f(2);
  double got = 0.0;
  f.eng.spawn([](World& w, double* out) -> sim::Task {
    Message m;
    co_await w.recv(1, 0, 7, &m);
    *out = std::any_cast<double>(m.payload);
  }(*f.world, &got));
  f.eng.spawn([](World& w) -> sim::Task {
    co_await w.send(0, 1, 1024.0, 7, 3.25);
  }(*f.world));
  f.eng.run();
  EXPECT_DOUBLE_EQ(got, 3.25);
}

TEST(World, RecvMatchesOnTag) {
  Fixture f(2);
  std::vector<int> order;
  f.eng.spawn([](World& w, std::vector<int>* order) -> sim::Task {
    Message m;
    co_await w.recv(1, 0, /*tag=*/2, &m);
    order->push_back(2);
    co_await w.recv(1, 0, /*tag=*/1, &m);
    order->push_back(1);
  }(*f.world, &order));
  f.eng.spawn([](World& w) -> sim::Task {
    co_await w.send(0, 1, 8.0, /*tag=*/1);
    co_await w.send(0, 1, 8.0, /*tag=*/2);
  }(*f.world));
  f.eng.run();
  // Receiver waited on tag 2 first even though tag 1 arrived first.
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(World, AnySourceReceivesFromWhoeverArrives) {
  Fixture f(3);
  int src = -1;
  f.eng.spawn([](World& w, int* src) -> sim::Task {
    Message m;
    co_await w.recv(0, kAnySource, 0, &m);
    *src = m.src;
  }(*f.world, &src));
  f.eng.spawn([](World& w) -> sim::Task {
    co_await w.send(2, 0, 64.0, 0);
  }(*f.world));
  f.eng.run();
  EXPECT_EQ(src, 2);
}

TEST(World, IntraClusterTransferIsFast) {
  Fixture f(2);
  double doneAt = -1.0;
  f.eng.spawn([](World& w, double* t) -> sim::Task {
    co_await w.send(0, 1, 16.0 * kMB, 0);  // Myrinet: 160 MB/s
    *t = w.engine().now();
  }(*f.world, &doneAt));
  f.eng.spawn([](World& w) -> sim::Task {
    Message m;
    co_await w.recv(1, 0, 0, &m);
  }(*f.world));
  f.eng.run();
  EXPECT_GE(doneAt, 0.0);
  EXPECT_LT(f.eng.now(), 0.2);
}

TEST(World, CrossClusterSendPaysWan) {
  sim::Engine eng;
  grid::Grid g(eng);
  const auto tb = grid::buildQrTestbed(g);
  World w(g, {tb.utkNodes[0], tb.uiucNodes[0]});
  eng.spawn([](World& w) -> sim::Task {
    co_await w.send(0, 1, 1.2 * kMB, 0);
  }(w));
  eng.spawn([](World& w) -> sim::Task {
    Message m;
    co_await w.recv(1, 0, 0, &m);
  }(w));
  eng.run();
  EXPECT_NEAR(eng.now(), 1.0, 0.1);  // 1.2 MB at 1.2 MB/s WAN
}

TEST(World, ComputeUsesMappedNode) {
  Fixture f(1);
  const double rate =
      f.g.node(f.world->nodeOf(0)).spec().effectiveFlopsPerCpu();
  f.eng.spawn([](World& w, double rate) -> sim::Task {
    co_await w.compute(0, 2.0 * rate);
  }(*f.world, rate));
  f.eng.run();
  EXPECT_NEAR(f.eng.now(), 2.0, 1e-9);
}

sim::Task barrierWorker(World& w, int rank, double preDelay,
                        std::vector<double>* exitTimes) {
  co_await sim::sleepFor(w.engine(), preDelay);
  co_await w.barrier(rank);
  (*exitTimes)[static_cast<std::size_t>(rank)] = w.engine().now();
}

TEST(World, BarrierReleasesAllTogether) {
  Fixture f(4);
  std::vector<double> exits(4, -1.0);
  for (int r = 0; r < 4; ++r) {
    f.eng.spawn(barrierWorker(*f.world, r, 1.0 * r, &exits));
  }
  f.eng.run();
  for (int r = 0; r < 4; ++r) EXPECT_NEAR(exits[static_cast<std::size_t>(r)], 3.0, 1e-9);
}

TEST(World, ConsecutiveBarriersDoNotCrosstalk) {
  Fixture f(2);
  std::vector<double> at;
  auto worker = [](World& w, int rank, std::vector<double>* at) -> sim::Task {
    for (int i = 0; i < 3; ++i) {
      co_await sim::sleepFor(w.engine(), rank == 0 ? 1.0 : 0.5);
      co_await w.barrier(rank);
      if (rank == 0) at->push_back(w.engine().now());
    }
  };
  f.eng.spawn(worker(*f.world, 0, &at));
  f.eng.spawn(worker(*f.world, 1, &at));
  f.eng.run();
  ASSERT_EQ(at.size(), 3u);
  EXPECT_NEAR(at[0], 1.0, 1e-9);
  EXPECT_NEAR(at[1], 2.0, 1e-9);
  EXPECT_NEAR(at[2], 3.0, 1e-9);
}

sim::Task collectiveDriver(World& w, int rank,
                           std::function<sim::Task(World&, int)> op,
                           std::vector<bool>* done) {
  co_await op(w, rank);
  (*done)[static_cast<std::size_t>(rank)] = true;
}

TEST(World, BcastCompletesOnAllRanks) {
  Fixture f(4);
  std::vector<bool> done(4, false);
  for (int r = 0; r < 4; ++r) {
    f.eng.spawn(collectiveDriver(
        *f.world, r,
        [](World& w, int rank) { return w.bcast(rank, 1, 4.0 * kMB); },
        &done));
  }
  f.eng.run();
  for (int r = 0; r < 4; ++r) EXPECT_TRUE(done[static_cast<std::size_t>(r)]);
  EXPECT_GE(f.world->messagesSent(), 3u);
}

TEST(World, BcastNonPowerOfTwo) {
  Fixture f(5);
  std::vector<bool> done(5, false);
  for (int r = 0; r < 5; ++r) {
    f.eng.spawn(collectiveDriver(
        *f.world, r,
        [](World& w, int rank) { return w.bcast(rank, 2, 1024.0); }, &done));
  }
  f.eng.run();
  for (int r = 0; r < 5; ++r) EXPECT_TRUE(done[static_cast<std::size_t>(r)]);
}

TEST(World, AllreduceComputesMaxEverywhere) {
  Fixture f(4);
  std::vector<double> results(4, -1.0);
  for (int r = 0; r < 4; ++r) {
    f.eng.spawn([](World& w, int rank, std::vector<double>* out) -> sim::Task {
      double reduced = 0.0;
      co_await w.allreduce(rank, 64.0, 10.0 + rank, &reduced);
      (*out)[static_cast<std::size_t>(rank)] = reduced;
    }(*f.world, r, &results));
  }
  f.eng.run();
  for (int r = 0; r < 4; ++r) {
    EXPECT_DOUBLE_EQ(results[static_cast<std::size_t>(r)], 13.0);
  }
}

TEST(World, AllreduceOddRankCount) {
  Fixture f(3);
  std::vector<double> results(3, -1.0);
  for (int r = 0; r < 3; ++r) {
    f.eng.spawn([](World& w, int rank, std::vector<double>* out) -> sim::Task {
      double reduced = 0.0;
      co_await w.allreduce(rank, 64.0, static_cast<double>(100 - rank),
                           &reduced);
      (*out)[static_cast<std::size_t>(rank)] = reduced;
    }(*f.world, r, &results));
  }
  f.eng.run();
  for (int r = 0; r < 3; ++r) {
    EXPECT_DOUBLE_EQ(results[static_cast<std::size_t>(r)], 100.0);
  }
}

TEST(World, AllgatherCompletesAndShipsRingTraffic) {
  Fixture f(4);
  std::vector<bool> done(4, false);
  for (int r = 0; r < 4; ++r) {
    f.eng.spawn(collectiveDriver(
        *f.world, r,
        [](World& w, int rank) { return w.allgather(rank, 1024.0); }, &done));
  }
  f.eng.run();
  for (int r = 0; r < 4; ++r) EXPECT_TRUE(done[static_cast<std::size_t>(r)]);
  // Ring allgather: p(p−1) messages of bytesPerRank.
  EXPECT_EQ(f.world->messagesSent(), 12u);
  EXPECT_DOUBLE_EQ(f.world->bytesSent(), 12.0 * 1024.0);
}

TEST(World, ConsecutiveAllgathersDoNotCrosstalk) {
  Fixture f(3);
  std::vector<bool> done(3, false);
  for (int r = 0; r < 3; ++r) {
    f.eng.spawn(collectiveDriver(
        *f.world, r,
        [](World& w, int rank) -> sim::Task {
          for (int i = 0; i < 5; ++i) co_await w.allgather(rank, 128.0);
        },
        &done));
  }
  f.eng.run();
  for (int r = 0; r < 3; ++r) EXPECT_TRUE(done[static_cast<std::size_t>(r)]);
}

TEST(World, SetNodeOfRedirectsTraffic) {
  sim::Engine eng;
  grid::Grid g(eng);
  const auto tb = grid::buildQrTestbed(g);
  World w(g, {tb.utkNodes[0], tb.utkNodes[1]});
  // Move rank 1 to UIUC: the next send crosses the WAN.
  w.setNodeOf(1, tb.uiucNodes[0]);
  eng.spawn([](World& w) -> sim::Task {
    co_await w.send(0, 1, 1.2 * kMB, 0);
  }(w));
  eng.spawn([](World& w) -> sim::Task {
    Message m;
    co_await w.recv(1, 0, 0, &m);
  }(w));
  eng.run();
  EXPECT_GT(eng.now(), 0.8);
}

class RingSize : public ::testing::TestWithParam<int> {};

TEST_P(RingSize, TokenRingTerminates) {
  // Property: a token passed around any ring size comes back to rank 0.
  const int p = GetParam();
  sim::Engine eng;
  grid::Grid g(eng);
  const auto tb = grid::buildQrTestbed(g);
  std::vector<grid::NodeId> mapping;
  for (int r = 0; r < p; ++r) {
    mapping.push_back(tb.uiucNodes[static_cast<std::size_t>(r % 8)]);
  }
  World w(g, mapping);
  int hops = 0;
  for (int r = 0; r < p; ++r) {
    eng.spawn([](World& w, int rank, int p, int* hops) -> sim::Task {
      if (rank == 0) {
        co_await w.send(0, 1 % p, 64.0, 5);
        Message m;
        co_await w.recv(0, (p - 1) % p, 5, &m);
        ++*hops;
      } else {
        Message m;
        co_await w.recv(rank, rank - 1, 5, &m);
        ++*hops;
        co_await w.send(rank, (rank + 1) % p, 64.0, 5);
      }
    }(w, r, p, &hops));
  }
  eng.run();
  EXPECT_EQ(hops, p);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RingSize, ::testing::Values(2, 3, 4, 6, 8));

}  // namespace
}  // namespace grads::vmpi
