#pragma once

#include <vector>

#include "services/nws.hpp"
#include "sim/task.hpp"
#include "vmpi/world.hpp"

namespace grads::reschedule {

/// Swap policies evaluated in [14] ("We have designed and evaluated several
/// policies"), plus kNever as the no-rescheduling control.
enum class SwapPolicy {
  kNever,         ///< control: never swap
  kGreedy,        ///< swap a degraded active node for the best idle one
  kPeriodicBest,  ///< keep the k individually-fastest pool nodes active
  kModelBased     ///< minimize predicted iteration time incl. communication
};

const char* swapPolicyName(SwapPolicy p);

struct SwapConfig {
  SwapPolicy policy = SwapPolicy::kGreedy;
  /// Per-iteration flops per process (for the model-based policy).
  double flopsPerRankPerIteration = 0.0;
  /// Per-iteration synchronizing messages (for the latency penalty).
  double messagesPerIteration = 2.0;
};

/// MPI process swapping (paper §4.2): the application is launched with more
/// machines than it uses; ranks in the World form the *active set*, the
/// remaining pool nodes are *inactive*. The swap rescheduler watches node
/// performance and, at the application's communication points, retargets
/// slow ranks onto faster idle machines — communication calls are hijacked
/// via the World's mutable rank→node mapping, so the application never
/// notices.
class SwapManager {
 public:
  SwapManager(vmpi::World& world, std::vector<grid::NodeId> pool,
              const services::Nws* nws, SwapConfig config);

  /// Begins periodic policy evaluation on the engine.
  void start();
  void stop() { running_ = false; }

  /// Application hook, called by every rank at each iteration boundary
  /// (after the iteration's closing collective). Rank 0 applies pending
  /// swap commands — paying the data-movement cost — then everyone
  /// resynchronizes. A swap whose image transfer fails leaves its rank on
  /// the node it was on.
  sim::Task atIterationBoundary(int rank);

  /// Effective flop rate of a node right now (NWS forecast when available,
  /// ground truth otherwise).
  double nodeRate(grid::NodeId node) const;

  /// Predicted duration of one iteration on a candidate active set
  /// (model-based policy; also used by benches).
  double predictIterationSeconds(const std::vector<grid::NodeId>& active) const;

  struct SwapEvent {
    double time = 0.0;
    int rank = -1;
    grid::NodeId from = grid::kNoId;
    grid::NodeId to = grid::kNoId;
  };
  const std::vector<SwapEvent>& history() const { return history_; }
  std::size_t pendingSwaps() const { return pending_.size(); }
  const std::vector<grid::NodeId>& pool() const { return pool_; }

  /// Runs one policy evaluation immediately (normally driven by start()).
  void evaluate();

 private:
  /// Arms the next policy tick, which evaluates and re-arms from here.
  void scheduleTick();
  std::vector<grid::NodeId> inactiveNodes() const;
  void enqueue(int rank, grid::NodeId to);

  vmpi::World* world_;
  std::vector<grid::NodeId> pool_;
  const services::Nws* nws_;
  SwapConfig cfg_;
  bool running_ = false;
  struct Command {
    int rank;
    grid::NodeId to;
  };
  std::vector<Command> pending_;
  std::vector<SwapEvent> history_;
};

}  // namespace grads::reschedule
