#pragma once

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <vector>

#include "sim/inline_fn.hpp"
#include "sim/time.hpp"

namespace grads::sim {

class Task;

/// Discrete-event simulation engine.
///
/// Events are (time, sequence) ordered callbacks; sequence numbers make the
/// execution order of same-time events deterministic (FIFO), which is what
/// makes MicroGrid-style experiments exactly repeatable.
///
/// The hot path is allocation-free: callbacks live in pooled event nodes
/// (sim::InlineFn small-buffer storage, free-list recycling) and cancellation
/// is a generation check instead of a shared_ptr control block. The engine
/// only allocates when the pool or the queue grows, or a callable outgrows
/// the inline buffer.
///
/// Coroutine processes (sim::Task) are spawned onto the engine and interact
/// with virtual time through awaitables (sleep, Event, Gate, PsResource).
/// A root process's frame is destroyed at the end of the event in which it
/// finishes, so a run holds only its live processes, not every one it ever
/// spawned.
class Engine {
 public:
  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Time now() const { return now_; }

  /// Cancellable handle to a scheduled event: a {pool index, generation}
  /// pair. The generation counter makes handles to fired/cancelled events
  /// harmlessly stale once their node is recycled. Handles are passive —
  /// copying or dropping one costs nothing — but cancel()/pending() must not
  /// be called after the engine itself is destroyed.
  class EventHandle {
   public:
    EventHandle() = default;
    /// Cancels the event if it has not fired yet; safe to call repeatedly.
    /// Cancelling a non-daemon event eagerly releases its hold on run(), so
    /// an abandoned far-future timeout cannot keep the simulation grinding
    /// through daemon events until the dead deadline pops.
    void cancel();
    /// True if the event is still pending (not fired, not cancelled).
    bool pending() const;

   private:
    friend class Engine;
    EventHandle(Engine* engine, std::uint32_t index, std::uint32_t generation)
        : engine_(engine), index_(index), generation_(generation) {}
    Engine* engine_ = nullptr;
    std::uint32_t index_ = 0;
    std::uint32_t generation_ = 0;
  };

  /// Schedules `fn` to run `delay` seconds from now (delay >= 0).
  EventHandle schedule(Time delay, InlineFn fn);
  /// Schedules `fn` at absolute time `t` (t >= now()).
  EventHandle scheduleAt(Time t, InlineFn fn);

  /// Daemon events do not keep the run loop alive: run() returns once only
  /// daemon events remain. Periodic services (NWS sampling, swap-policy
  /// ticks, background-load traces) use these so simulations end when the
  /// real work ends.
  EventHandle scheduleDaemon(Time delay, InlineFn fn);
  EventHandle scheduleDaemonAt(Time t, InlineFn fn);

  /// Schedules a coroutine resume; used by awaitables. Never heap-allocates.
  EventHandle scheduleResume(Time delay, std::coroutine_handle<> h);

  /// Runs until the event queue is empty (or stop() is called).
  void run();
  /// Processes all events with time <= t, then sets now() = t.
  void runUntil(Time t);
  /// Stops the run loop after the current event.
  void stop() { stopped_ = true; }

  /// Replay-divergence oracle hook: called for every *live* event the run
  /// loop fires, with the event's (time, key, daemon) identity — `key` packs
  /// the lifetime sequence number and pooled node index, so two runs that
  /// fold identical streams scheduled, recycled, and fired in the identical
  /// order. A raw function pointer (not InlineFn/std::function) keeps the
  /// disabled path to one predictable branch.
  using PopObserver = void (*)(void* ctx, Time t, std::uint64_t key,
                               bool daemon);
  void setPopObserver(PopObserver fn, void* ctx) {
    popObserver_ = fn;
    popObserverCtx_ = ctx;
  }

  std::size_t processedEvents() const { return processed_; }
  /// Number of live (not yet fired, not cancelled) scheduled events.
  /// Cancelled corpses still sitting in the queue are not counted.
  std::size_t pendingEvents() const;
  /// Cancelled events whose queue slots have not been drained yet.
  std::size_t cancelledPending() const { return cancelledPending_; }
  /// Pool occupancy (all nodes ever allocated / currently recyclable); used
  /// by tests to prove recycling works.
  std::size_t poolSize() const { return poolSize_; }
  std::size_t freePoolNodes() const { return freeCount_; }

  /// Spawns a detached coroutine process; the engine owns it until the end
  /// of the event in which it finishes. The first resume happens as a normal
  /// event at the current time.
  void spawn(Task task, std::string name = "");

  /// Number of spawned root processes that have not yet completed.
  std::size_t liveProcesses() const { return roots_.size() - finished_.size(); }

  /// If a detached process terminated with an exception, rethrows the first
  /// one recorded. Called automatically at the end of run().
  void rethrowIfFailed();

 private:
  static constexpr std::uint32_t kNilNode = 0xffffffffu;

  /// Pooled event node, packed to exactly one cache line: the queue itself
  /// only stores (time, seq⊕index) pairs; the callback and bookkeeping live
  /// here and are recycled through a free list, so steady-state scheduling
  /// allocates nothing. The daemon/cancelled flags share a word with the
  /// generation counter (30 bits — staleness detection wraps only after a
  /// billion reuses of one slot).
  struct Node {
    static constexpr std::uint32_t kDaemonBit = 0x80000000u;
    static constexpr std::uint32_t kCancelledBit = 0x40000000u;
    static constexpr std::uint32_t kGenMask = 0x3fffffffu;

    InlineFn fn;                       // 56 bytes (48 SBO + ops pointer)
    std::uint32_t bits = 0;            // flags | generation
    std::uint32_t nextFree = kNilNode;

    std::uint32_t generation() const { return bits & kGenMask; }
    bool daemon() const { return (bits & kDaemonBit) != 0; }
    bool cancelled() const { return (bits & kCancelledBit) != 0; }
  };
  static_assert(sizeof(Node) == 64, "event node must stay one cache line");

  /// 16-byte queue entry: sequence number and pool index share one word
  /// (seq in the high 40 bits, node index in the low 24), so ordering by
  /// `key` IS FIFO ordering among same-time events and two entries fit in a
  /// cache line. Caps: 2^24 concurrently pending events, 2^40 events per
  /// engine lifetime — both asserted at schedule time.
  struct QueueEntry {
    Time t;
    std::uint64_t key;
    std::uint32_t node() const {
      return static_cast<std::uint32_t>(key & 0xffffffu);
    }
  };
  static constexpr unsigned kNodeBits = 24;
  static constexpr std::uint64_t kMaxSeq = (1ull << (64 - kNodeBits)) - 1;

  /// Binary min-heap on (t, key) order, plus a FIFO run for events
  /// scheduled at the current instant.
  ///
  /// Zero-delay pushes (coroutine resumes and spawns) are 42-47% of all
  /// pushes in the crash-restart and tenant-overload benchmark workloads;
  /// the run takes them without a heap sift. Its invariant: every run entry
  /// was pushed with t == now(), and now() cannot advance while the run is
  /// non-empty (its head is due no later than anything in the heap). So the
  /// run holds one t, its keys arrive in increasing order, and it is sorted
  /// as pushed. top() is the smaller of the run's head and the heap's root
  /// under the same total (t, key) order a single heap would use — keys are
  /// unique — so the pop sequence is exactly a single heap's, and the
  /// deterministic FIFO contract holds bit for bit.
  class EventQueue {
   public:
    bool empty() const { return heap_.empty() && head_ == run_.size(); }
    std::size_t size() const { return heap_.size() + run_.size() - head_; }

    const QueueEntry& top() const {
      return runFirst() ? run_[head_] : heap_.front();
    }

    /// Entries due at `now` join the run; later ones go to the heap.
    void push(QueueEntry e, Time now) {
      if (e.t == now) {
        run_.push_back(e);
      } else {
        heap_.push_back(e);
        std::push_heap(heap_.begin(), heap_.end(), after);
      }
    }

    /// Removes and returns top().
    QueueEntry pop() {
      if (!runFirst()) {
        std::pop_heap(heap_.begin(), heap_.end(), after);
        const QueueEntry e = heap_.back();
        heap_.pop_back();
        return e;
      }
      const QueueEntry e = run_[head_++];
      // Drop the consumed prefix once it is half the run: that is a clear
      // when the run drains, and amortised O(1) when an instant keeps it
      // from draining.
      if (2 * head_ >= run_.size()) {
        run_.erase(run_.begin(),
                   run_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
      }
      return e;
    }

   private:
    /// The std heap algorithms keep the comparator's greatest element at
    /// the root, so ordering by `after` makes heap_ a min-heap.
    static bool after(const QueueEntry& a, const QueueEntry& b) {
      if (a.t != b.t) return a.t > b.t;
      return a.key > b.key;
    }
    bool runFirst() const {
      return head_ != run_.size() &&
             (heap_.empty() || after(heap_.front(), run_[head_]));
    }

    std::vector<QueueEntry> heap_;
    std::vector<QueueEntry> run_;  // FIFO from head_, every entry at one t
    std::size_t head_ = 0;
  };

  EventHandle scheduleItem(const char* caller, Time t, InlineFn fn,
                           bool daemon);
  std::uint32_t acquireNode(InlineFn fn, bool daemon);
  void recycleNode(std::uint32_t index);
  /// Pops the top entry and runs it if live; returns false for a drained
  /// cancelled corpse (caller loops without touching the clock).
  bool popAndFire();

  /// Node storage grows in place as fixed chunks: addresses are stable for
  /// the engine's lifetime (callbacks run in place, no relocation when the
  /// pool grows) and index -> address is one load from the tiny chunk table
  /// plus arithmetic.
  static constexpr unsigned kChunkBits = 12;  // 4096 nodes = 256 KiB / chunk
  static constexpr std::uint32_t kChunkMask = (1u << kChunkBits) - 1;
  Node& nodeAt(std::uint32_t index) {
    return chunks_[index >> kChunkBits][index & kChunkMask];
  }
  const Node& nodeAt(std::uint32_t index) const {
    return chunks_[index >> kChunkBits][index & kChunkMask];
  }

  Time now_ = 0.0;
  PopObserver popObserver_ = nullptr;
  void* popObserverCtx_ = nullptr;
  std::uint64_t seq_ = 0;
  std::size_t processed_ = 0;
  std::size_t nonDaemonPending_ = 0;
  std::size_t cancelledPending_ = 0;
  std::size_t freeCount_ = 0;
  bool stopped_ = false;
  std::vector<std::unique_ptr<Node[]>> chunks_;
  std::uint32_t poolSize_ = 0;
  std::uint32_t freeHead_ = kNilNode;
  EventQueue queue_;

  /// Root processes in spawn order. List nodes do not move, so a frame's
  /// promise can point at its root; each root keeps its own position, and
  /// the roots that finished in the current event wait in finished_ until
  /// popAndFire erases them, in O(1) each.
  struct RootProcess;
  std::list<RootProcess> roots_;
  std::vector<std::list<RootProcess>::iterator> finished_;
  std::vector<std::exception_ptr> failures_;

  friend class Task;
};

/// Awaitable returned by sleepFor(); resumes the coroutine after `delay`.
struct SleepAwaiter {
  Engine& engine;
  Time delay;
  bool await_ready() const noexcept { return delay <= 0.0; }
  void await_suspend(std::coroutine_handle<> h) {
    engine.scheduleResume(delay, h);
  }
  void await_resume() const noexcept {}
};

/// `co_await sleepFor(engine, dt)` — suspend for dt simulated seconds.
inline SleepAwaiter sleepFor(Engine& engine, Time delay) {
  return SleepAwaiter{engine, delay};
}

}  // namespace grads::sim
