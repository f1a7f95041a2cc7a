#include <gtest/gtest.h>

#include <coroutine>
#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "sim/ps_resource.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "util/error.hpp"

namespace grads::sim {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine eng;
  EXPECT_EQ(eng.now(), 0.0);
  EXPECT_EQ(eng.pendingEvents(), 0u);
}

TEST(Engine, RunsEventsInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule(3.0, [&] { order.push_back(3); });
  eng.schedule(1.0, [&] { order.push_back(1); });
  eng.schedule(2.0, [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), 3.0);
  EXPECT_EQ(eng.processedEvents(), 3u);
}

TEST(Engine, SameTimeEventsRunFifo) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    eng.schedule(5.0, [&order, i] { order.push_back(i); });
  }
  eng.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, CancelledEventDoesNotFire) {
  Engine eng;
  bool fired = false;
  auto h = eng.schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  eng.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, HandleNotPendingAfterFire) {
  Engine eng;
  auto h = eng.schedule(1.0, [] {});
  eng.run();
  EXPECT_FALSE(h.pending());
}

TEST(Engine, RunUntilAdvancesClockEvenWithoutEvents) {
  Engine eng;
  eng.runUntil(42.0);
  EXPECT_EQ(eng.now(), 42.0);
}

TEST(Engine, RunUntilStopsAtBoundary) {
  Engine eng;
  std::vector<double> times;
  eng.schedule(1.0, [&] { times.push_back(eng.now()); });
  eng.schedule(5.0, [&] { times.push_back(eng.now()); });
  eng.runUntil(3.0);
  EXPECT_EQ(times, (std::vector<double>{1.0}));
  EXPECT_EQ(eng.now(), 3.0);
  eng.run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 5.0}));
}

TEST(Engine, NegativeDelayRejected) {
  Engine eng;
  EXPECT_THROW(eng.schedule(-1.0, [] {}), InvalidArgument);
}

TEST(Engine, SchedulingInPastRejected) {
  Engine eng;
  eng.schedule(2.0, [] {});
  eng.run();
  EXPECT_THROW(eng.scheduleAt(1.0, [] {}), InvalidArgument);
}

Task simpleSleeper(Engine& eng, double dt, double* wokeAt) {
  co_await sleepFor(eng, dt);
  *wokeAt = eng.now();
}

TEST(Coroutines, SleepAdvancesVirtualTime) {
  Engine eng;
  double wokeAt = -1.0;
  eng.spawn(simpleSleeper(eng, 7.5, &wokeAt), "sleeper");
  EXPECT_EQ(eng.liveProcesses(), 1u);
  eng.run();
  EXPECT_EQ(wokeAt, 7.5);
  EXPECT_EQ(eng.liveProcesses(), 0u);
}

Task nestedChild(Engine& eng, std::vector<int>* log) {
  log->push_back(1);
  co_await sleepFor(eng, 1.0);
  log->push_back(2);
}

Task nestedParent(Engine& eng, std::vector<int>* log) {
  log->push_back(0);
  co_await nestedChild(eng, log);
  log->push_back(3);
}

TEST(Coroutines, AwaitingChildTaskJoins) {
  Engine eng;
  std::vector<int> log;
  eng.spawn(nestedParent(eng, &log));
  eng.run();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3}));
}

Task throwing(Engine& eng) {
  co_await sleepFor(eng, 1.0);
  throw Error("boom");
}

TEST(Coroutines, DetachedExceptionSurfacesFromRun) {
  Engine eng;
  eng.spawn(throwing(eng));
  EXPECT_THROW(eng.run(), Error);
}

Task rethrower(Engine& eng, bool* caught) {
  try {
    co_await throwing(eng);
  } catch (const Error&) {
    *caught = true;
  }
}

TEST(Coroutines, ChildExceptionPropagatesToParent) {
  Engine eng;
  bool caught = false;
  eng.spawn(rethrower(eng, &caught));
  eng.run();
  EXPECT_TRUE(caught);
}

Task waiterTask(Event& ev, Engine& eng, double* t) {
  co_await ev.wait();
  *t = eng.now();
}

TEST(Sync, EventWakesAllWaiters) {
  Engine eng;
  Event ev(eng);
  double t1 = -1.0;
  double t2 = -1.0;
  eng.spawn(waiterTask(ev, eng, &t1));
  eng.spawn(waiterTask(ev, eng, &t2));
  eng.schedule(4.0, [&] { ev.set(); });
  eng.run();
  EXPECT_EQ(t1, 4.0);
  EXPECT_EQ(t2, 4.0);
}

TEST(Sync, AlreadySetEventDoesNotBlock) {
  Engine eng;
  Event ev(eng);
  ev.set();
  double t = -1.0;
  eng.spawn(waiterTask(ev, eng, &t));
  eng.run();
  EXPECT_EQ(t, 0.0);
}

TEST(Sync, EventResetRequiresNoWaiters) {
  Engine eng;
  Event ev(eng);
  ev.set();
  ev.reset();
  EXPECT_FALSE(ev.isSet());
}

Task gateWaiter(Gate& g, Engine& eng, double* t) {
  co_await g.wait();
  *t = eng.now();
}

TEST(Sync, GateBlocksUntilOpen) {
  Engine eng;
  Gate g(eng, /*open=*/false);
  double t = -1.0;
  eng.spawn(gateWaiter(g, eng, &t));
  eng.schedule(2.0, [&] { g.open(); });
  eng.run();
  EXPECT_EQ(t, 2.0);
}

TEST(Sync, OpenGatePassesThrough) {
  Engine eng;
  Gate g(eng, /*open=*/true);
  double t = -1.0;
  eng.spawn(gateWaiter(g, eng, &t));
  eng.run();
  EXPECT_EQ(t, 0.0);
}

Task joinSetDriver(Engine& eng, double* doneAt) {
  JoinSet js(eng);
  for (int i = 1; i <= 3; ++i) {
    js.spawn([](Engine& e, double dt) -> Task { co_await sleepFor(e, dt); }(
        eng, static_cast<double>(i)));
  }
  co_await js.join();
  *doneAt = eng.now();
}

TEST(Sync, JoinSetWaitsForSlowestChild) {
  Engine eng;
  double doneAt = -1.0;
  eng.spawn(joinSetDriver(eng, &doneAt));
  eng.run();
  EXPECT_EQ(doneAt, 3.0);
}

// Holds `token` in its frame until it finishes, `dt` seconds after it starts.
Task holdToken(Engine& eng, [[maybe_unused]] std::shared_ptr<int> token,
               double dt) {
  co_await sleepFor(eng, dt);
}

Task joinLate(Engine& eng, std::shared_ptr<int> token) {
  JoinSet js(eng);
  js.spawn(holdToken(eng, std::move(token), 1.0));
  co_await sleepFor(eng, 3.0);
  co_await js.join();
}

// Suspends until the test resumes it by hand, from inside an event.
struct ParkHere {
  std::coroutine_handle<>* slot;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) { *slot = h; }
  void await_resume() const noexcept {}
};

Task parkThenFinish(std::coroutine_handle<>* slot) { co_await ParkHere{slot}; }

TEST(Engine, FinishedRootIsFreedDuringTheRun) {
  // The token sits in a root, or in a JoinSet child whose parent is still
  // sleeping; either finishes at t = 1.
  for (const bool inJoinSet : {false, true}) {
    Engine eng;
    auto token = std::make_shared<int>(0);
    eng.spawn(inJoinSet ? joinLate(eng, token) : holdToken(eng, token, 1.0));
    long seen = -1;
    eng.schedule(2.0, [&] { seen = token.use_count(); });
    eng.run();
    EXPECT_EQ(seen, 1) << (inJoinSet ? "JoinSet child" : "root");
  }
  {
    // Read inside the event that finished a root, and between two finishes.
    Engine eng;
    std::coroutine_handle<> a;
    std::coroutine_handle<> b;
    eng.spawn(parkThenFinish(&a));
    eng.spawn(parkThenFinish(&b));
    std::vector<std::size_t> live;
    eng.schedule(1.0, [&] {
      live.push_back(eng.liveProcesses());
      a.resume();
      live.push_back(eng.liveProcesses());
    });
    eng.schedule(2.0, [&] { live.push_back(eng.liveProcesses()); });
    eng.schedule(3.0, [&] {
      b.resume();
      live.push_back(eng.liveProcesses());
    });
    eng.run();
    EXPECT_EQ(live, (std::vector<std::size_t>{2, 1, 1, 0}));
  }
}

Task consumeTask(PsResource& r, double work, double* doneAt) {
  co_await r.consume(work);
  *doneAt = r.engine().now();
}

TEST(PsResource, SingleJobRunsAtFullRate) {
  Engine eng;
  PsResource cpu(eng, 100.0);  // 100 units/s
  double doneAt = -1.0;
  eng.spawn(consumeTask(cpu, 500.0, &doneAt));
  eng.run();
  EXPECT_DOUBLE_EQ(doneAt, 5.0);
  EXPECT_DOUBLE_EQ(cpu.completedWork(), 500.0);
}

TEST(PsResource, TwoJobsShareFairly) {
  Engine eng;
  PsResource cpu(eng, 100.0);
  double d1 = -1.0;
  double d2 = -1.0;
  eng.spawn(consumeTask(cpu, 100.0, &d1));
  eng.spawn(consumeTask(cpu, 100.0, &d2));
  eng.run();
  // Both share 50/s, so both finish at t=2.
  EXPECT_DOUBLE_EQ(d1, 2.0);
  EXPECT_DOUBLE_EQ(d2, 2.0);
}

TEST(PsResource, ShortJobLeavesMoreRateForLongJob) {
  Engine eng;
  PsResource cpu(eng, 100.0);
  double dShort = -1.0;
  double dLong = -1.0;
  eng.spawn(consumeTask(cpu, 50.0, &dShort));
  eng.spawn(consumeTask(cpu, 150.0, &dLong));
  eng.run();
  // Shared 50/s until t=1 (short done, long has 100 left), then 100/s → t=2.
  EXPECT_DOUBLE_EQ(dShort, 1.0);
  EXPECT_DOUBLE_EQ(dLong, 2.0);
}

TEST(PsResource, MaxRatePerUnitCapsSingleJob) {
  Engine eng;
  // Dual-processor node: 200 total but one process can use only one CPU.
  PsResource cpu(eng, 200.0, /*maxRatePerUnit=*/100.0);
  double d = -1.0;
  eng.spawn(consumeTask(cpu, 100.0, &d));
  eng.run();
  EXPECT_DOUBLE_EQ(d, 1.0);
}

TEST(PsResource, DualCpuRunsTwoJobsAtFullSpeed) {
  Engine eng;
  PsResource cpu(eng, 200.0, 100.0);
  double d1 = -1.0;
  double d2 = -1.0;
  eng.spawn(consumeTask(cpu, 100.0, &d1));
  eng.spawn(consumeTask(cpu, 100.0, &d2));
  eng.run();
  EXPECT_DOUBLE_EQ(d1, 1.0);
  EXPECT_DOUBLE_EQ(d2, 1.0);
}

TEST(PsResource, BackgroundLoadSlowsJob) {
  Engine eng;
  PsResource cpu(eng, 100.0);
  cpu.addLoad(1.0);  // one competing process → half share
  double d = -1.0;
  eng.spawn(consumeTask(cpu, 100.0, &d));
  eng.run();
  EXPECT_DOUBLE_EQ(d, 2.0);
}

TEST(PsResource, LoadArrivingMidJobReplans) {
  Engine eng;
  PsResource cpu(eng, 100.0);
  double d = -1.0;
  eng.spawn(consumeTask(cpu, 100.0, &d));
  // At t=0.5 (50 units done), add a competitor: remaining 50 at 50/s → +1 s.
  eng.schedule(0.5, [&] { cpu.addLoad(1.0); });
  eng.run();
  EXPECT_DOUBLE_EQ(d, 1.5);
}

TEST(PsResource, LoadRemovalSpeedsJobUp) {
  Engine eng;
  PsResource cpu(eng, 100.0);
  const auto id = cpu.addLoad(1.0);
  double d = -1.0;
  eng.spawn(consumeTask(cpu, 100.0, &d));
  eng.schedule(1.0, [&] { cpu.removeLoad(id); });  // 50 done, then 100/s
  eng.run();
  EXPECT_DOUBLE_EQ(d, 1.5);
}

TEST(PsResource, ZeroWorkCompletesImmediately) {
  Engine eng;
  PsResource cpu(eng, 100.0);
  double d = -1.0;
  eng.spawn(consumeTask(cpu, 0.0, &d));
  eng.run();
  EXPECT_DOUBLE_EQ(d, 0.0);
}

TEST(PsResource, WeightedJobGetsProportionalShare) {
  Engine eng;
  PsResource cpu(eng, 90.0);
  double dHeavy = -1.0;
  double dLight = -1.0;
  eng.spawn([](PsResource& r, double* t) -> Task {
    co_await r.consume(120.0, 2.0);
    *t = r.engine().now();
  }(cpu, &dHeavy));
  eng.spawn(consumeTask(cpu, 30.0, &dLight));
  eng.run();
  // Weights 2:1 on 90/s → heavy 60/s, light 30/s; both finish at t=1... then
  // heavy has 60 left? No: heavy work=120 at 60/s → t=2 after light leaves at
  // t=1 heavy rate = min(inf, 90/2)*2 = 90/s; remaining 60 → t = 1 + 60/90.
  EXPECT_DOUBLE_EQ(dLight, 1.0);
  EXPECT_NEAR(dHeavy, 1.0 + 60.0 / 90.0, 1e-12);
}

TEST(PsResource, RemoveUnknownLoadThrows) {
  Engine eng;
  PsResource cpu(eng, 1.0);
  EXPECT_THROW(cpu.removeLoad(1234), InvalidArgument);
}

TEST(PsResource, RatePerUnitReflectsContention) {
  Engine eng;
  PsResource cpu(eng, 100.0);
  EXPECT_DOUBLE_EQ(cpu.ratePerUnit(), 100.0);
  cpu.addLoad(3.0);
  // Rate per unit weight among *current* jobs: 100 / 3.
  EXPECT_DOUBLE_EQ(cpu.ratePerUnit(), 100.0 / 3.0);
  EXPECT_DOUBLE_EQ(cpu.backgroundWeight(), 3.0);
}

// Property-style sweep: for any (capacity, competing weight, work) the finish
// time matches the analytic PS formula work * (1 + w) / capacity.
struct PsCase {
  double capacity;
  double loadWeight;
  double work;
};

class PsResourceLaw : public ::testing::TestWithParam<PsCase> {};

TEST_P(PsResourceLaw, MatchesAnalyticSharing) {
  const auto c = GetParam();
  Engine eng;
  PsResource cpu(eng, c.capacity);
  if (c.loadWeight > 0.0) cpu.addLoad(c.loadWeight);
  double d = -1.0;
  eng.spawn(consumeTask(cpu, c.work, &d));
  eng.run();
  const double expected = c.work * (1.0 + c.loadWeight) / c.capacity;
  EXPECT_NEAR(d, expected, 1e-9 * (1.0 + expected));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PsResourceLaw,
    ::testing::Values(PsCase{1.0, 0.0, 1.0}, PsCase{10.0, 1.0, 5.0},
                      PsCase{933e6, 2.0, 1e9}, PsCase{0.5, 0.25, 7.0},
                      PsCase{1e9, 9.0, 3.2e8}, PsCase{128.0, 0.5, 1024.0}));

}  // namespace
}  // namespace grads::sim
