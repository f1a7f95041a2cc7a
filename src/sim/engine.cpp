#include "sim/engine.hpp"

#include "sim/task.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace grads::sim {

struct Engine::RootProcess {
  Task::Handle handle;
  std::string name;
  Engine* engine = nullptr;
  std::list<RootProcess>::iterator pos;

  // Runs inside the frame's final suspend, so the frame cannot be destroyed
  // here: popAndFire erases the root once the event's callback returns.
  static void onDone(void* ctx, std::exception_ptr error) {
    auto* self = static_cast<RootProcess*>(ctx);
    self->engine->finished_.push_back(self->pos);
    if (error) {
      self->engine->failures_.push_back(error);
      GRADS_ERROR("sim", self->engine->now())
          << "process '" << self->name << "' terminated with an exception";
    }
  }

  ~RootProcess() {
    if (handle) handle.destroy();
  }
};

Engine::Engine() = default;

Engine::~Engine() {
  // Destroy remaining root frames, in spawn order, before the node pool
  // (queued resumes may point into frames; they are never invoked after
  // destruction).
  roots_.clear();
}

void Engine::EventHandle::cancel() {
  if (engine_ == nullptr) return;
  Node& node = engine_->nodeAt(index_);
  if (node.generation() != generation_ || node.cancelled()) return;
  node.bits |= Node::kCancelledBit;
  node.fn.reset();  // release captured resources eagerly
  // Eagerly drop the run()-keepalive: a cancelled timeout at 1e6 s must not
  // keep the loop grinding through daemon events until the dead slot pops.
  if (!node.daemon()) --engine_->nonDaemonPending_;
  ++engine_->cancelledPending_;
}

bool Engine::EventHandle::pending() const {
  if (engine_ == nullptr) return false;
  const Node& node = engine_->nodeAt(index_);
  return node.generation() == generation_ && !node.cancelled();
}

std::uint32_t Engine::acquireNode(InlineFn fn, bool daemon) {
  std::uint32_t index;
  if (freeHead_ != kNilNode) {
    index = freeHead_;
    Node& node = nodeAt(index);
    freeHead_ = node.nextFree;
    --freeCount_;
    node.nextFree = kNilNode;
    node.fn = std::move(fn);
    if (daemon) node.bits |= Node::kDaemonBit;
  } else {
    index = poolSize_;
    GRADS_ASSERT(index < (1u << kNodeBits), "Engine: event pool exhausted");
    if ((index >> kChunkBits) == chunks_.size()) {
      // Default-initialised: make_unique would zero the 256 KiB chunk
      // before constructing every node.
      chunks_.push_back(
          std::make_unique_for_overwrite<Node[]>(std::size_t{1} << kChunkBits));
    }
    ++poolSize_;
    Node& node = nodeAt(index);
    node.fn = std::move(fn);
    if (daemon) node.bits |= Node::kDaemonBit;
  }
  return index;
}

void Engine::recycleNode(std::uint32_t index) {
  Node& node = nodeAt(index);
  // Bump the generation (outstanding handles to this slot go stale) and
  // clear the flag bits in one store.
  node.bits = (node.generation() + 1) & Node::kGenMask;
  node.fn.reset();
  node.nextFree = freeHead_;
  freeHead_ = index;
  ++freeCount_;
}

Engine::EventHandle Engine::schedule(Time delay, InlineFn fn) {
  GRADS_REQUIRE(delay >= 0.0, "Engine::schedule: negative delay");
  return scheduleItem("Engine::schedule", now_ + delay, std::move(fn),
                      /*daemon=*/false);
}

Engine::EventHandle Engine::scheduleAt(Time t, InlineFn fn) {
  return scheduleItem("Engine::scheduleAt", t, std::move(fn),
                      /*daemon=*/false);
}

Engine::EventHandle Engine::scheduleDaemon(Time delay, InlineFn fn) {
  GRADS_REQUIRE(delay >= 0.0, "Engine::scheduleDaemon: negative delay");
  return scheduleItem("Engine::scheduleDaemon", now_ + delay, std::move(fn),
                      /*daemon=*/true);
}

Engine::EventHandle Engine::scheduleDaemonAt(Time t, InlineFn fn) {
  return scheduleItem("Engine::scheduleDaemonAt", t, std::move(fn),
                      /*daemon=*/true);
}

Engine::EventHandle Engine::scheduleItem(const char* caller, Time t,
                                         InlineFn fn, bool daemon) {
  GRADS_REQUIRE(t >= now_, std::string(caller) + ": time in the past");
  GRADS_REQUIRE(t < kInfTime, std::string(caller) + ": infinite time");
  const std::uint32_t index = acquireNode(std::move(fn), daemon);
  GRADS_ASSERT(seq_ <= kMaxSeq, "Engine: event sequence space exhausted");
  queue_.push(QueueEntry{t, (seq_++ << kNodeBits) | index}, now_);
  if (!daemon) ++nonDaemonPending_;
  return EventHandle{this, index, nodeAt(index).generation()};
}

Engine::EventHandle Engine::scheduleResume(Time delay,
                                           std::coroutine_handle<> h) {
  GRADS_REQUIRE(delay >= 0.0, "Engine::scheduleResume: negative delay");
  return scheduleItem("Engine::scheduleResume", now_ + delay,
                      InlineFn([h] { h.resume(); }), /*daemon=*/false);
}

bool Engine::popAndFire() {
  const QueueEntry top = queue_.pop();
  const std::uint32_t index = top.node();
  Node& node = nodeAt(index);
  if (node.cancelled()) {
    --cancelledPending_;
    recycleNode(index);
    return false;
  }
  GRADS_ASSERT(top.t >= now_, "event queue time went backwards");
  now_ = top.t;
  if (popObserver_ != nullptr) {
    popObserver_(popObserverCtx_, top.t, top.key, node.daemon());
  }
  if (!node.daemon()) --nonDaemonPending_;
  // Stale-ify the handle before invoking (a callback cancelling itself is a
  // no-op, matching the old semantics). Chunked node storage is address-
  // stable, so the callback runs IN PLACE — no move of the 48-byte buffer —
  // and is free to schedule new events while it runs; its own node is
  // neither free nor queued until the guard recycles it afterwards.
  node.bits = (node.generation() + 1) & Node::kGenMask;
  ++processed_;
  // Recycle after the callback returns or unwinds (the generation was
  // already bumped above, so no second bump here).
  struct FireGuard {
    Engine* e;
    std::uint32_t i;
    ~FireGuard() {
      Node& n = e->nodeAt(i);
      n.fn.reset();
      n.nextFree = e->freeHead_;
      e->freeHead_ = i;
      ++e->freeCount_;
    }
  } guard{this, index};
  node.fn();
  // Free the roots that finished in this event.
  for (const auto it : finished_) roots_.erase(it);
  finished_.clear();
  return true;
}

void Engine::run() {
  stopped_ = false;
  while (!queue_.empty() && nonDaemonPending_ > 0 && !stopped_) {
    popAndFire();
  }
  rethrowIfFailed();
}

void Engine::runUntil(Time t) {
  GRADS_REQUIRE(t >= now_, "Engine::runUntil: time in the past");
  stopped_ = false;
  while (!queue_.empty() && !stopped_ && queue_.top().t <= t) {
    popAndFire();
  }
  if (!stopped_) now_ = t;
  rethrowIfFailed();
}

std::size_t Engine::pendingEvents() const {
  return queue_.size() - cancelledPending_;
}

void Engine::spawn(Task task, std::string name) {
  GRADS_REQUIRE(task.valid(), "Engine::spawn: invalid task");
  RootProcess& root = roots_.emplace_back();
  root.pos = std::prev(roots_.end());
  root.handle = task.release();
  root.name = std::move(name);
  root.engine = this;
  auto& promise = root.handle.promise();
  promise.detachedDone = &RootProcess::onDone;
  promise.detachedCtx = &root;
  // First resume happens as an ordinary event so spawn order == start order.
  auto h = root.handle;
  schedule(0.0, [h] { h.resume(); });
}

void Engine::rethrowIfFailed() {
  if (!failures_.empty()) {
    auto e = failures_.front();
    failures_.clear();
    std::rethrow_exception(e);
  }
}

}  // namespace grads::sim
