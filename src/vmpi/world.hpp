#pragma once

#include <any>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "grid/grid.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace grads::vmpi {

inline constexpr int kAnySource = -1;

/// A received message: metadata plus an optional small payload (std::any)
/// for control information. Bulk data is represented by its size only — the
/// simulator charges transfer time, not storage.
struct Message {
  int src = -1;
  int tag = 0;
  double bytes = 0.0;
  std::any payload;
};

/// Virtual MPI communicator: a set of ranks mapped onto grid nodes.
///
/// The rank→node mapping is *mutable* (setNodeOf): the process-swapping
/// runtime exploits this to retarget ranks at communication points, exactly
/// like the paper's hijacked MPI_Comm_World (§4.2.1).
class World {
 public:
  World(grid::Grid& grid, std::vector<grid::NodeId> ranks,
        std::string name = "world");
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  int size() const { return static_cast<int>(nodes_.size()); }
  const std::string& name() const { return name_; }
  grid::Grid& grid() const { return *grid_; }
  sim::Engine& engine() const { return grid_->engine(); }

  grid::NodeId nodeOf(int rank) const;
  void setNodeOf(int rank, grid::NodeId node);
  const std::vector<grid::NodeId>& mapping() const { return nodes_; }

  /// Point-to-point send: pays the network cost, then delivers.
  sim::Task send(int from, int to, double bytes, int tag = 0,
                 std::any payload = {});
  /// Blocks until a message from `src` (or kAnySource) with `tag` arrives.
  sim::Task recv(int rank, int src, int tag, Message* out);

  /// Runs `flops` of computation on the rank's current node.
  sim::Task compute(int rank, double flops);

  /// Collectives (every rank must call with identical arguments).
  sim::Task barrier(int rank);
  sim::Task bcast(int rank, int root, double bytes);
  /// Recursive-doubling allreduce of a `bytes`-sized buffer; optionally
  /// combines a per-rank double contribution with max().
  sim::Task allreduce(int rank, double bytes, double contribution = 0.0,
                      double* reduced = nullptr);
  /// Ring allgather: p−1 steps, each shipping one rank's block around.
  sim::Task allgather(int rank, double bytesPerRank);

  /// Totals for tests/sensors.
  double bytesSent() const { return bytesSent_; }
  std::size_t messagesSent() const { return messagesSent_; }

  /// Internal mailbox machinery; public only for the recv awaiter.
  struct Waiter {
    int src;
    Message* slot;
    std::coroutine_handle<> handle;
  };
  struct Mailbox {
    std::deque<Message> pending;
    std::deque<Waiter> waiters;
  };

 private:
  struct MailboxKey {
    int dst;
    int tag;
    bool operator<(const MailboxKey& o) const {
      return dst != o.dst ? dst < o.dst : tag < o.tag;
    }
  };

  Mailbox& mailbox(int dst, int tag);
  void deliver(int dst, Message msg);
  int vrank(int rank, int root) const {  // rank relative to root
    return (rank - root + size()) % size();
  }

  grid::Grid* grid_;
  std::vector<grid::NodeId> nodes_;
  std::string name_;
  std::map<MailboxKey, Mailbox> boxes_;

  // Barrier state.
  int barrierArrived_ = 0;
  std::uint64_t barrierGeneration_ = 0;
  std::map<std::uint64_t, std::shared_ptr<sim::Event>> barrierEvents_;

  double bytesSent_ = 0.0;
  std::size_t messagesSent_ = 0;
};

/// Internal tags reserved by collectives; applications should use tags < 1e6.
namespace tags {
inline constexpr int kBcast = 1000000;
inline constexpr int kReduce = 1000001;
inline constexpr int kAllgather = 1000004;
inline constexpr int kAllreduceBase = 2000000;  // + round number
}  // namespace tags

}  // namespace grads::vmpi
