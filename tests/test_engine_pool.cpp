// Tests for the pooled, allocation-free event engine: the golden firing
// order captured from the pre-pool queue, a seeded (t, key) order oracle
// over more than 10,000 events, eager cancellation keepalive
// semantics, handle staleness across node recycling, live pending-event
// accounting, and high-volume pool and process churn (the ASan CI leg runs
// this file to catch node and frame lifetime bugs).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/inline_fn.hpp"
#include "sim/task.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

using namespace grads;

namespace {

// ---------------------------------------------------------------------------
// Golden event order
// ---------------------------------------------------------------------------

// This sequence was recorded by running the workload below against the
// pre-rewrite engine (std::function + shared_ptr cancellation + std::
// priority_queue). The pooled engine must reproduce it exactly: (time, seq)
// FIFO order is a documented contract, not an implementation detail.
TEST(EnginePool, GoldenMixedWorkloadOrder) {
  std::vector<std::string> fired;
  sim::Engine eng;
  auto rec = [&fired, &eng](const char* tag) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s@%g", tag, eng.now());
    fired.emplace_back(buf);
  };

  // Same-timestamp FIFO batch at t=2, with one member cancelled up front.
  eng.schedule(2.0, [&] { rec("b0"); });
  eng.schedule(2.0, [&] { rec("b1"); });
  auto preCancelled = eng.schedule(2.0, [&] { rec("never-pre"); });
  eng.schedule(2.0, [&] { rec("b2"); });
  preCancelled.cancel();
  preCancelled.cancel();  // idempotent

  // Rearming daemon every 1.5s (like NWS sampling).
  auto tick = std::make_shared<std::function<void()>>();
  // Capture a non-owning pointer: capturing the shared_ptr inside the
  // function it owns would form a reference cycle (a leak under LSan).
  *tick = [&eng, &rec, t = tick.get()] {
    rec("daemon");
    eng.scheduleDaemon(1.5, *t);
  };
  eng.scheduleDaemon(1.5, *tick);

  // An event that schedules nested work: same-time (runs after everything
  // already queued at t=1) and future.
  eng.schedule(1.0, [&] {
    rec("n0");
    eng.scheduleAt(1.0, [&] { rec("n0-sametime"); });
    eng.schedule(2.5, [&] { rec("n0-later"); });
  });
  eng.schedule(1.0, [&] { rec("n1"); });

  // Mid-run cancellation: the event at t=4 kills the one at t=5.
  auto midVictim = eng.schedule(5.0, [&] { rec("never-mid"); });
  auto firedEarly = eng.schedule(0.5, [&] { rec("early"); });
  eng.schedule(4.0, [&] {
    rec("killer");
    midVictim.cancel();
    firedEarly.cancel();  // cancelling an already-fired event: no-op
  });

  // Daemon scheduled beyond the last real event must not fire.
  eng.scheduleDaemonAt(9.5, [&] { rec("never-late-daemon"); });
  eng.schedule(8.0, [&] { rec("end"); });

  eng.run();

  const std::vector<std::string> golden = {
      "early@0.5", "n0@1",        "n1@1",      "n0-sametime@1",
      "daemon@1.5", "b0@2",       "b1@2",      "b2@2",
      "daemon@3",   "n0-later@3.5", "killer@4", "daemon@4.5",
      "daemon@6",   "daemon@7.5", "end@8",
  };
  EXPECT_EQ(fired, golden);
  EXPECT_DOUBLE_EQ(eng.now(), 8.0);
  EXPECT_EQ(eng.processedEvents(), 15u);
}

// The golden order above pins 15 events; this pins the same (t, key)
// contract over more than 10,000. A seeded driver keeps thousands of events
// pending on an integer time grid, and each fired event may add a zero-delay
// successor, an on-grid successor (sharing an instant with events scheduled
// earlier), an off-grid successor, or cancel a random handle. The run is
// also cut by runUntil() at an off-grid time followed by zero-delay pushes,
// and by a stop() in the middle of an instant. Every fired event must come
// strictly after the previous one in (t, key) order.
TEST(EnginePool, FiresInStrictTimeKeyOrder) {
  constexpr std::size_t kBudget = 14000;  // caps successors
  struct Driver {
    sim::Engine eng;
    Rng rng{0x5eed};
    std::vector<sim::Engine::EventHandle> handles;
    std::size_t scheduled = 0;
    std::size_t cancelled = 0;

    void add(sim::Time t) {
      handles.push_back(eng.scheduleAt(t, [this] { fire(); }));
      ++scheduled;
    }
    void fire() {
      if (scheduled >= kBudget) return;
      const sim::Time now = eng.now();
      const auto onGrid = [&] {
        add(std::floor(now) + 1.0 + static_cast<double>(rng.next() % 4));
      };
      switch (rng.next() % 8) {
        case 0:
        case 1:
          add(now);
          break;
        case 2:
        case 3:
          onGrid();
          break;
        case 4:
          add(now + 0.25 + rng.uniform());
          break;
        case 5:
          if (auto& h = handles[rng.next() % handles.size()]; h.pending()) {
            h.cancel();
            ++cancelled;
          }
          break;
        case 6:
          add(now);
          onGrid();
          break;
        default:
          break;
      }
    }
  } d;

  struct Order {
    sim::Time t = 0.0;
    std::uint64_t key = 0;
    std::size_t fired = 0;
    std::size_t inversions = 0;
  } order;
  d.eng.setPopObserver(
      [](void* ctx, sim::Time t, std::uint64_t key, bool) {
        auto& o = *static_cast<Order*>(ctx);
        if (o.fired > 0 && (t < o.t || (t == o.t && key <= o.key))) {
          ++o.inversions;
        }
        o.t = t;
        o.key = key;
        ++o.fired;
      },
      &order);

  for (int i = 0; i < 4000; ++i) {
    d.add(static_cast<double>(d.rng.next() % 40));
  }
  // Not in `handles`, so no random cancel can take it.
  d.eng.scheduleAt(20.0, [&d] {
    for (int i = 0; i < 16; ++i) d.add(d.eng.now());
    d.eng.stop();
  });
  ++d.scheduled;

  d.eng.runUntil(10.5);
  EXPECT_DOUBLE_EQ(d.eng.now(), 10.5);
  for (int i = 0; i < 16; ++i) d.add(d.eng.now());
  d.eng.run();
  EXPECT_DOUBLE_EQ(d.eng.now(), 20.0);
  EXPECT_GE(d.eng.pendingEvents(), 16u);
  d.eng.run();

  EXPECT_EQ(order.inversions, 0u);
  EXPECT_GT(order.fired, 10000u);
  EXPECT_EQ(order.fired, d.eng.processedEvents());
  EXPECT_EQ(order.fired + d.cancelled, d.scheduled);
  EXPECT_EQ(d.eng.pendingEvents(), 0u);
}

// ---------------------------------------------------------------------------
// Cancellation keepalive (regression: eager nonDaemonPending_ decrement)
// ---------------------------------------------------------------------------

// A cancelled far-future timeout must not keep run() alive grinding through
// daemon events until the dead deadline pops. Before the fix, cancel() left
// nonDaemonPending_ untouched and this run would tick daemons to t=1e6.
TEST(EnginePool, CancelledFarFutureTimeoutDoesNotExtendRun) {
  sim::Engine eng;
  int daemonFires = 0;
  auto tick = std::make_shared<std::function<void()>>();
  *tick = [&eng, &daemonFires, t = tick.get()] {
    ++daemonFires;
    eng.scheduleDaemon(1.0, *t);
  };
  eng.scheduleDaemon(1.0, *tick);

  auto timeout =
      eng.schedule(1e6, [] { ADD_FAILURE() << "dead timeout fired"; });
  eng.schedule(5.0, [&] { timeout.cancel(); });

  eng.run();
  // The last real event is at t=5; the run must stop there, not at t=1e6.
  EXPECT_DOUBLE_EQ(eng.now(), 5.0);
  EXPECT_LE(daemonFires, 5);
}

TEST(EnginePool, CancelBeforeRunEndsImmediately) {
  sim::Engine eng;
  bool fired = false;
  auto h = eng.schedule(100.0, [&] { fired = true; });
  h.cancel();
  eng.run();
  EXPECT_FALSE(fired);
  // No live event was ever processed, so the clock never advanced.
  EXPECT_DOUBLE_EQ(eng.now(), 0.0);
  EXPECT_EQ(eng.processedEvents(), 0u);
}

// ---------------------------------------------------------------------------
// Live pending-event accounting
// ---------------------------------------------------------------------------

TEST(EnginePool, PendingEventsReportsLiveCount) {
  sim::Engine eng;
  auto a = eng.schedule(1.0, [] {});
  auto b = eng.schedule(2.0, [] {});
  auto c = eng.schedule(3.0, [] {});
  (void)a;
  (void)c;
  EXPECT_EQ(eng.pendingEvents(), 3u);
  EXPECT_EQ(eng.cancelledPending(), 0u);

  b.cancel();
  // The corpse still occupies a queue slot, but it is not a live event.
  EXPECT_EQ(eng.pendingEvents(), 2u);
  EXPECT_EQ(eng.cancelledPending(), 1u);
  EXPECT_FALSE(b.pending());
  EXPECT_TRUE(a.pending());

  eng.run();
  EXPECT_EQ(eng.pendingEvents(), 0u);
  EXPECT_EQ(eng.cancelledPending(), 0u);
  EXPECT_EQ(eng.processedEvents(), 2u);
}

// ---------------------------------------------------------------------------
// Caller names in precondition messages
// ---------------------------------------------------------------------------

TEST(EnginePool, ScheduleErrorsNameTheActualEntryPoint) {
  sim::Engine eng;
  eng.schedule(1.0, [] {});
  eng.runUntil(0.5);  // now() = 0.5 with an event still queued

  const auto messageOf = [](auto&& call) -> std::string {
    try {
      call();
    } catch (const InvalidArgument& e) {
      return e.what();
    }
    return "(no exception)";
  };

  EXPECT_NE(messageOf([&] { eng.scheduleAt(0.1, [] {}); })
                .find("Engine::scheduleAt"),
            std::string::npos);
  EXPECT_NE(messageOf([&] { eng.scheduleDaemonAt(0.1, [] {}); })
                .find("Engine::scheduleDaemonAt"),
            std::string::npos);
  EXPECT_NE(messageOf([&] {
              eng.schedule(sim::kInfTime, [] {});
            }).find("Engine::schedule"),
            std::string::npos);
  EXPECT_NE(messageOf([&] {
              eng.scheduleDaemon(sim::kInfTime, [] {});
            }).find("Engine::scheduleDaemon"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Handle staleness across recycling
// ---------------------------------------------------------------------------

// After an event fires, its pool node is recycled; a handle to the old event
// must go stale rather than cancel whatever reused the slot.
TEST(EnginePool, StaleHandleCannotCancelRecycledNode) {
  sim::Engine eng;
  bool firstFired = false;
  auto first = eng.schedule(1.0, [&] { firstFired = true; });
  eng.run();
  EXPECT_TRUE(firstFired);
  EXPECT_FALSE(first.pending());

  // This reuses the recycled node (single-slot pool).
  bool secondFired = false;
  eng.schedule(1.0, [&] { secondFired = true; });
  EXPECT_EQ(eng.poolSize(), 1u);

  first.cancel();  // stale: must not touch the reused slot
  EXPECT_EQ(eng.pendingEvents(), 1u);
  eng.run();
  EXPECT_TRUE(secondFired);
}

TEST(EnginePool, SelfCancelDuringCallbackIsANoOp) {
  sim::Engine eng;
  sim::Engine::EventHandle self;
  int runs = 0;
  self = eng.schedule(1.0, [&] {
    ++runs;
    self.cancel();  // already firing: handle is stale by now
  });
  eng.run();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(eng.pendingEvents(), 0u);
}

// ---------------------------------------------------------------------------
// Pool recycling and high-volume churn (run under ASan in CI)
// ---------------------------------------------------------------------------

TEST(EnginePool, NodesAreRecycledThroughTheFreeList) {
  sim::Engine eng;
  for (int wave = 0; wave < 4; ++wave) {
    for (int i = 0; i < 100; ++i) {
      eng.schedule(static_cast<double>(i % 7), [] {});
    }
    eng.run();
  }
  // Pool high-water mark is one wave, not four.
  EXPECT_LE(eng.poolSize(), 100u);
  EXPECT_EQ(eng.freePoolNodes(), eng.poolSize());
}

TEST(EnginePool, MillionEventChurn) {
  sim::Engine eng;
  std::size_t fired = 0;
  std::size_t cancelled = 0;
  std::vector<sim::Engine::EventHandle> handles;
  constexpr int kWaves = 100;
  constexpr int kPerWave = 10000;
  for (int wave = 0; wave < kWaves; ++wave) {
    handles.clear();
    const double base = eng.now();
    for (int i = 0; i < kPerWave; ++i) {
      // Mix of resources: a counter capture, varying times, some daemons.
      if (i % 17 == 0) {
        eng.scheduleDaemonAt(base + static_cast<double>(i % 89), [&fired] {
          ++fired;
        });
      } else {
        handles.push_back(eng.scheduleAt(base + static_cast<double>(i % 89),
                                         [&fired] { ++fired; }));
      }
    }
    // Cancel every third handle, some twice.
    for (std::size_t i = 0; i < handles.size(); i += 3) {
      handles[i].cancel();
      if (i % 6 == 0) handles[i].cancel();
      ++cancelled;
    }
    // Sentinel after every other event so daemons at the tail of the wave
    // are guaranteed to fire no matter which handles were cancelled.
    eng.scheduleAt(base + 100.0, [&fired] { ++fired; });
    eng.run();
  }
  EXPECT_EQ(fired + cancelled,
            static_cast<std::size_t>(kWaves) * (kPerWave + 1));
  EXPECT_EQ(eng.pendingEvents(), 0u);
  EXPECT_EQ(eng.freePoolNodes(), eng.poolSize());
  // Recycling keeps the pool bounded by one wave's high-water mark
  // (kPerWave events plus the sentinel).
  EXPECT_LE(eng.poolSize(), static_cast<std::size_t>(kPerWave) + 1);
}

sim::Task holdToken(sim::Engine& eng,
                    [[maybe_unused]] std::shared_ptr<int> token, double dt) {
  co_await sim::sleepFor(eng, dt);
}

// One run spawns 20,000 short-lived roots, kAlive at a time, each holding a
// copy of one token. Frames are freed as their roots finish, so no probe
// ever sees more than the live roots' copies and the test's own.
TEST(EnginePool, SpawnChurnHoldsOnlyLiveProcesses) {
  constexpr int kRoots = 20000;
  constexpr int kAlive = 8;
  sim::Engine eng;
  auto token = std::make_shared<int>(0);
  long worst = 0;
  const auto probe = [&token, &worst] {
    worst = std::max(worst, token.use_count());
  };
  for (int wave = 0; wave < kRoots / kAlive; ++wave) {
    // A wave starts at a whole second and finishes half a second later.
    const double t = static_cast<double>(wave);
    eng.scheduleAt(t, [&eng, &token] {
      for (int i = 0; i < kAlive; ++i) eng.spawn(holdToken(eng, token, 0.5));
    });
    eng.scheduleAt(t + 0.25, probe);
    eng.scheduleAt(t + 0.75, probe);
  }
  eng.run();
  EXPECT_EQ(worst, kAlive + 1);
  EXPECT_EQ(eng.liveProcesses(), 0u);
  EXPECT_EQ(token.use_count(), 1);
}

// An InlineFn that owns heap state (shared_ptr capture) must be destroyed
// exactly once whether it fires, is cancelled, or dies with the engine.
TEST(EnginePool, CallbackResourcesReleasedOnEveryPath) {
  auto token = std::make_shared<int>(42);
  {
    sim::Engine eng;
    eng.schedule(1.0, [token] {});                      // fires
    eng.schedule(2.0, [token] {}).cancel();             // cancelled
    eng.schedule(3.0, [token] {});
    eng.stop();                                         // no-op before run
    eng.run();
    eng.schedule(4.0, [token] {});                      // dies with engine
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

// ---------------------------------------------------------------------------
// InlineFn unit tests
// ---------------------------------------------------------------------------

TEST(InlineFn, SmallCallablesStayInline) {
  int x = 0;
  sim::InlineFn f([&x] { x = 7; });
  EXPECT_TRUE(static_cast<bool>(f));
  EXPECT_TRUE(f.isInline());
  f();
  EXPECT_EQ(x, 7);
}

TEST(InlineFn, LargeCallablesFallBackToHeap) {
  std::array<double, 16> payload{};  // 128 bytes > 48-byte buffer
  payload[3] = 1.5;
  double out = 0.0;
  sim::InlineFn f([payload, &out] { out = payload[3]; });
  EXPECT_FALSE(f.isInline());
  f();
  EXPECT_DOUBLE_EQ(out, 1.5);
}

TEST(InlineFn, MoveTransfersOwnership) {
  auto token = std::make_shared<int>(1);
  sim::InlineFn a([token] {});
  EXPECT_EQ(token.use_count(), 2);
  sim::InlineFn b(std::move(a));
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_TRUE(static_cast<bool>(b));
  a = std::move(b);
  EXPECT_EQ(token.use_count(), 2);
  a.reset();
  EXPECT_EQ(token.use_count(), 1);
}

TEST(InlineFn, ResetAndDestructorReleaseHeapCallables) {
  auto token = std::make_shared<int>(1);
  std::array<char, 100> pad{};
  {
    sim::InlineFn f([token, pad] { (void)pad; });
    EXPECT_FALSE(f.isInline());
    EXPECT_EQ(token.use_count(), 2);
    f.reset();
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_FALSE(static_cast<bool>(f));
  }
  {
    sim::InlineFn g([token, pad] { (void)pad; });
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(InlineFn, AcceptsStdFunctionLvalues) {
  int calls = 0;
  std::function<void()> fn = [&calls] { ++calls; };
  sim::InlineFn f(fn);
  f();
  EXPECT_EQ(calls, 1);
}

}  // namespace
