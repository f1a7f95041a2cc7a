#pragma once

#include <coroutine>
#include <vector>

#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "util/error.hpp"

namespace grads::sim {

/// One-shot event: coroutines block on wait() until set() is called.
/// Resumptions are scheduled as zero-delay engine events, so wake order is
/// deterministic (registration order) and stacks stay shallow.
class Event {
 public:
  explicit Event(Engine& engine) : engine_(&engine) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  void set() {
    if (set_) return;
    set_ = true;
    for (auto h : waiters_) engine_->scheduleResume(0.0, h);
    waiters_.clear();
  }

  bool isSet() const { return set_; }

  /// Re-arms the event. Only legal when no coroutine is waiting.
  void reset() {
    GRADS_REQUIRE(waiters_.empty(), "Event::reset with pending waiters");
    set_ = false;
  }

  auto wait() {
    struct Awaiter {
      Event* ev;
      bool await_ready() const noexcept { return ev->set_; }
      void await_suspend(std::coroutine_handle<> h) {
        ev->waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  Engine* engine_;
  bool set_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Level-triggered gate: await passes immediately while open, blocks while
/// closed. Used for pause/resume style control (e.g. swap barriers).
class Gate {
 public:
  explicit Gate(Engine& engine, bool open = false)
      : engine_(&engine), open_(open) {}

  void open() {
    open_ = true;
    for (auto h : waiters_) engine_->scheduleResume(0.0, h);
    waiters_.clear();
  }
  void close() { open_ = false; }

  auto wait() {
    struct Awaiter {
      Gate* gate;
      bool await_ready() const noexcept { return gate->open_; }
      void await_suspend(std::coroutine_handle<> h) {
        gate->waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  Engine* engine_;
  bool open_;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Fork/join helper for groups of concurrently running tasks.
///
///   JoinSet js(engine);
///   for (...) js.spawn(worker(...));
///   co_await js.join();   // rethrows the first child exception, if any
class JoinSet {
 public:
  explicit JoinSet(Engine& engine) : engine_(&engine), done_(engine) {}

  void spawn(Task task) {
    ++live_;
    ++total_;
    engine_->spawn(wrap(std::move(task)), "joinset-child");
  }

  Task join() {
    if (live_ > 0) co_await done_.wait();
    if (error_) std::rethrow_exception(error_);
  }

  std::size_t liveChildren() const { return live_; }
  std::size_t totalSpawned() const { return total_; }

 private:
  Task wrap(Task task) {
    // The child frame is owned by this wrapper frame for its whole life.
    try {
      co_await task;
    } catch (...) {
      if (!error_) error_ = std::current_exception();
    }
    if (--live_ == 0) done_.set();
  }

  Engine* engine_;
  Event done_;
  std::size_t live_ = 0;
  std::size_t total_ = 0;
  std::exception_ptr error_;
};

}  // namespace grads::sim
