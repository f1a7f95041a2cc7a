// Regression and edge-case tests for the simulation substrate, including
// the floating-point time-quantum hazard and the daemon-event semantics
// that periodic services rely on.

#include <gtest/gtest.h>

#include "sim/engine.hpp"
#include "sim/ps_resource.hpp"
#include "sim/sync.hpp"
#include "util/error.hpp"

namespace grads::sim {
namespace {

TEST(EngineDaemon, RunReturnsWhenOnlyDaemonEventsRemain) {
  Engine eng;
  int daemonTicks = 0;
  // A self-rearming daemon (like NWS sampling). It holds a non-owning
  // pointer to itself: owning itself would leak the callback.
  auto tick = std::make_shared<std::function<void()>>();
  *tick = [&eng, &daemonTicks, self = tick.get()] {
    ++daemonTicks;
    eng.scheduleDaemon(10.0, *self);
  };
  eng.scheduleDaemon(10.0, *tick);
  bool workDone = false;
  eng.schedule(35.0, [&workDone] { workDone = true; });
  eng.run();  // must terminate despite the endless daemon
  EXPECT_TRUE(workDone);
  EXPECT_EQ(eng.now(), 35.0);
  EXPECT_EQ(daemonTicks, 3);  // 10, 20, 30 fired before the last real event
}

TEST(EngineDaemon, DaemonOnlyQueueDoesNotRun) {
  Engine eng;
  int ticks = 0;
  eng.scheduleDaemon(1.0, [&ticks] { ++ticks; });
  eng.run();
  EXPECT_EQ(ticks, 0);
  EXPECT_EQ(eng.now(), 0.0);
}

TEST(EngineDaemon, RunUntilProcessesDaemons) {
  Engine eng;
  int ticks = 0;
  eng.scheduleDaemon(1.0, [&ticks] { ++ticks; });
  eng.scheduleDaemonAt(2.0, [&ticks] { ++ticks; });
  eng.runUntil(5.0);
  EXPECT_EQ(ticks, 2);  // runUntil drives the clock regardless
}

TEST(EngineDaemon, CancelledRealEventStillAllowsTermination) {
  Engine eng;
  auto h = eng.schedule(5.0, [] { FAIL() << "cancelled event fired"; });
  h.cancel();
  auto tick = std::make_shared<std::function<void()>>();
  int daemonTicks = 0;
  *tick = [&eng, &daemonTicks, self = tick.get()] {
    ++daemonTicks;
    eng.scheduleDaemon(1.0, *self);
  };
  eng.scheduleDaemon(1.0, *tick);
  eng.run();  // terminates once the cancelled slot at t=5 is drained
  EXPECT_LE(eng.now(), 5.0);
}

TEST(PsResourceRegression, TinyWorkOnFastResourceAtLargeTime) {
  // Regression for the time-quantum spin: at t≈5e2 the ulp of virtual time
  // times a 1.3e8 B/s rate exceeds the residual of a 64-byte job, which
  // once live-locked the engine. The quantum-aware completion must finish.
  Engine eng;
  PsResource link(eng, 131072000.0);  // ~125 MB/s
  double doneAt = -1.0;
  eng.schedule(535.0755, [&eng, &link, &doneAt] {
    eng.spawn([](PsResource& r, double* t) -> Task {
      for (int i = 0; i < 100; ++i) co_await r.consume(64.0);
      *t = r.engine().now();
    }(link, &doneAt));
  });
  eng.run();
  EXPECT_GT(doneAt, 535.0);
  EXPECT_LT(doneAt, 536.0);
}

TEST(PsResourceRegression, TinyWorkAtHugeVirtualTime) {
  Engine eng;
  eng.runUntil(1e9);  // a year-scale virtual clock
  PsResource cpu(eng, 1e9);
  bool done = false;
  eng.spawn([](PsResource& r, bool* done) -> Task {
    co_await r.consume(1.0);  // one flop
    *done = true;
  }(cpu, &done));
  eng.run();
  EXPECT_TRUE(done);
}

Task throwingChild(Engine& eng) {
  co_await sleepFor(eng, 1.0);
  throw Error("child boom");
}

Task joinSetRethrows(Engine& eng, bool* caught) {
  JoinSet js(eng);
  js.spawn(throwingChild(eng));
  js.spawn([](Engine& e) -> Task { co_await sleepFor(e, 2.0); }(eng));
  try {
    co_await js.join();
  } catch (const Error&) {
    *caught = true;
  }
}

TEST(JoinSetExtra, JoinRethrowsFirstChildException) {
  Engine eng;
  bool caught = false;
  eng.spawn(joinSetRethrows(eng, &caught));
  eng.run();
  EXPECT_TRUE(caught);
}

TEST(JoinSetExtra, CountsChildren) {
  Engine eng;
  JoinSet js(eng);
  for (int i = 0; i < 3; ++i) {
    js.spawn([](Engine& e) -> Task { co_await sleepFor(e, 1.0); }(eng));
  }
  EXPECT_EQ(js.totalSpawned(), 3u);
  EXPECT_EQ(js.liveChildren(), 3u);
  eng.spawn(js.join());
  eng.run();
  EXPECT_EQ(js.liveChildren(), 0u);
}

TEST(PsResourceExtra, CompletedWorkAccumulatesAcrossPhases) {
  Engine eng;
  PsResource cpu(eng, 10.0);
  eng.spawn([](PsResource& r) -> Task {
    co_await r.consume(30.0);
    co_await r.consume(20.0);
  }(cpu));
  eng.run();
  EXPECT_DOUBLE_EQ(cpu.completedWork(), 50.0);
  EXPECT_DOUBLE_EQ(eng.now(), 5.0);
}

TEST(PsResourceExtra, ManySimultaneousFinishers) {
  // 64 identical jobs started together must all complete at the same time
  // without ordering artifacts.
  Engine eng;
  PsResource cpu(eng, 64.0);
  int finished = 0;
  for (int i = 0; i < 64; ++i) {
    eng.spawn([](PsResource& r, int* n) -> Task {
      co_await r.consume(10.0);
      ++*n;
    }(cpu, &finished));
  }
  eng.run();
  EXPECT_EQ(finished, 64);
  EXPECT_DOUBLE_EQ(eng.now(), 640.0 / 64.0);
}

}  // namespace
}  // namespace grads::sim
