#include "vmpi/world.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace grads::vmpi {

World::World(grid::Grid& grid, std::vector<grid::NodeId> ranks,
             std::string name)
    : grid_(&grid), nodes_(std::move(ranks)), name_(std::move(name)) {
  GRADS_REQUIRE(!nodes_.empty(), "World: need at least one rank");
  for (const auto n : nodes_) {
    GRADS_REQUIRE(n < grid_->nodeCount(), "World: unknown node in mapping");
  }
}

grid::NodeId World::nodeOf(int rank) const {
  GRADS_REQUIRE(rank >= 0 && rank < size(), "World::nodeOf: bad rank");
  return nodes_[static_cast<std::size_t>(rank)];
}

void World::setNodeOf(int rank, grid::NodeId node) {
  GRADS_REQUIRE(rank >= 0 && rank < size(), "World::setNodeOf: bad rank");
  GRADS_REQUIRE(node < grid_->nodeCount(), "World::setNodeOf: unknown node");
  nodes_[static_cast<std::size_t>(rank)] = node;
}

World::Mailbox& World::mailbox(int dst, int tag) {
  return boxes_[MailboxKey{dst, tag}];
}

void World::deliver(int dst, Message msg) {
  Mailbox& box = mailbox(dst, msg.tag);
  for (auto it = box.waiters.begin(); it != box.waiters.end(); ++it) {
    if (it->src == kAnySource || it->src == msg.src) {
      *it->slot = std::move(msg);
      auto h = it->handle;
      box.waiters.erase(it);
      engine().scheduleResume(0.0, h);
      return;
    }
  }
  box.pending.push_back(std::move(msg));
}

namespace {
struct RecvAwaiterImpl {
  World::Mailbox* box;
  int src;
  Message* out;

  bool await_ready() {
    for (auto it = box->pending.begin(); it != box->pending.end(); ++it) {
      if (src == kAnySource || it->src == src) {
        *out = std::move(*it);
        box->pending.erase(it);
        return true;
      }
    }
    return false;
  }
  void await_suspend(std::coroutine_handle<> h) {
    box->waiters.push_back(World::Waiter{src, out, h});
  }
  void await_resume() const noexcept {}
};
}  // namespace

sim::Task World::send(int from, int to, double bytes, int tag,
                      std::any payload) {
  GRADS_REQUIRE(from >= 0 && from < size(), "World::send: bad source rank");
  GRADS_REQUIRE(to >= 0 && to < size(), "World::send: bad dest rank");
  GRADS_REQUIRE(bytes >= 0.0, "World::send: negative size");
  co_await grid_->transfer(nodeOf(from), nodeOf(to), bytes);
  bytesSent_ += bytes;
  ++messagesSent_;
  deliver(to, Message{from, tag, bytes, std::move(payload)});
}

sim::Task World::recv(int rank, int src, int tag, Message* out) {
  GRADS_REQUIRE(rank >= 0 && rank < size(), "World::recv: bad rank");
  GRADS_REQUIRE(out != nullptr, "World::recv: null output");
  Mailbox& box = mailbox(rank, tag);
  co_await RecvAwaiterImpl{&box, src, out};
}

sim::Task World::compute(int rank, double flops) {
  co_await grid_->node(nodeOf(rank)).compute(flops);
}

sim::Task World::barrier(int rank) {
  GRADS_REQUIRE(rank >= 0 && rank < size(), "World::barrier: bad rank");
  const std::uint64_t gen = barrierGeneration_;
  auto it = barrierEvents_.find(gen);
  if (it == barrierEvents_.end()) {
    it = barrierEvents_
             .emplace(gen, std::make_shared<sim::Event>(engine()))
             .first;
  }
  auto ev = it->second;
  if (++barrierArrived_ == size()) {
    barrierArrived_ = 0;
    ++barrierGeneration_;
    ev->set();
    barrierEvents_.erase(gen);
  } else {
    co_await ev->wait();
  }
}

sim::Task World::bcast(int rank, int root, double bytes) {
  const int p = size();
  const int vr = vrank(rank, root);
  // MPICH-style binomial tree.
  int mask = 1;
  while (mask < p) {
    if ((vr & mask) != 0) {
      Message m;
      const int src = (vr - mask + root) % p;
      co_await recv(rank, src, tags::kBcast, &m);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vr + mask < p) {
      const int dst = (vr + mask + root) % p;
      co_await send(rank, dst, bytes, tags::kBcast);
    }
    mask >>= 1;
  }
}

sim::Task World::allreduce(int rank, double bytes, double contribution,
                           double* reduced) {
  const int p = size();
  double value = contribution;
  // Binomial reduce to rank 0 (max-combine), then binomial bcast back.
  int mask = 1;
  while (mask < p) {
    if ((rank & mask) == 0) {
      const int src = rank | mask;
      if (src < p) {
        Message m;
        co_await recv(rank, src, tags::kReduce, &m);
        value = std::max(value, std::any_cast<double>(m.payload));
      }
    } else {
      const int dst = rank & ~mask;
      co_await send(rank, dst, bytes, tags::kReduce, value);
      break;
    }
    mask <<= 1;
  }
  // Broadcast the combined value.
  const int vr = rank;
  mask = 1;
  while (mask < p) {
    if ((vr & mask) != 0) {
      Message m;
      co_await recv(rank, vr - mask, tags::kAllreduceBase, &m);
      value = std::any_cast<double>(m.payload);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vr + mask < p) {
      co_await send(rank, vr + mask, bytes, tags::kAllreduceBase, value);
    }
    mask >>= 1;
  }
  if (reduced != nullptr) *reduced = value;
}

sim::Task World::allgather(int rank, double bytesPerRank) {
  const int p = size();
  // Ring: in step s every rank forwards the block it received in step s−1
  // to its right neighbour; after p−1 steps everyone holds every block.
  const int right = (rank + 1) % p;
  const int left = (rank - 1 + p) % p;
  for (int step = 0; step + 1 < p; ++step) {
    co_await send(rank, right, bytesPerRank, tags::kAllgather);
    Message m;
    co_await recv(rank, left, tags::kAllgather, &m);
  }
}

}  // namespace grads::vmpi
