#include "reschedule/swap.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "util/error.hpp"
#include "util/log.hpp"

namespace grads::reschedule {

namespace {
/// Active node is "slow" when its availability drops below this.
constexpr double kDegradeThreshold = 0.75;
/// A candidate must beat the slow node's rate by this factor.
constexpr double kImproveMargin = 1.15;
/// Virtual seconds between policy evaluations.
constexpr double kCheckPeriodSec = 10.0;
/// Per-process working-set size moved on a swap (the data allocation
/// itself cannot be modified, §4.2.1 — only relocated).
constexpr double kPerProcessDataBytes = 8.0 * 1024 * 1024;
}  // namespace

const char* swapPolicyName(SwapPolicy p) {
  switch (p) {
    case SwapPolicy::kNever: return "never";
    case SwapPolicy::kGreedy: return "greedy";
    case SwapPolicy::kPeriodicBest: return "periodic-best";
    case SwapPolicy::kModelBased: return "model-based";
  }
  return "?";
}

SwapManager::SwapManager(vmpi::World& world, std::vector<grid::NodeId> pool,
                         const services::Nws* nws, SwapConfig config)
    : world_(&world), pool_(std::move(pool)), nws_(nws), cfg_(config) {
  GRADS_REQUIRE(!pool_.empty(), "SwapManager: empty pool");
  // Every active node must belong to the pool.
  for (const auto n : world_->mapping()) {
    GRADS_REQUIRE(std::find(pool_.begin(), pool_.end(), n) != pool_.end(),
                  "SwapManager: active node not in pool");
  }
  GRADS_REQUIRE(static_cast<int>(pool_.size()) >= world_->size(),
                "SwapManager: pool smaller than active set");
}

double SwapManager::nodeRate(grid::NodeId node) const {
  // A node we already occupy must be rated by the share our process *keeps*
  // (incumbent view); an idle candidate by what a new process would get —
  // otherwise the policy penalizes its own active set and flip-flops.
  const auto& m = world_->mapping();
  const bool active = std::find(m.begin(), m.end(), node) != m.end();
  if (nws_ != nullptr) {
    // Dark-sensor fallback: rate the node from its static spec (full
    // availability) rather than failing the swap evaluation.
    const auto measured =
        active ? nws_->tryIncumbentRate(node) : nws_->tryEffectiveRate(node);
    if (measured) return *measured;
    const auto& n = world_->grid().node(node);
    return n.spec().effectiveFlopsPerCpu();
  }
  const auto& n = world_->grid().node(node);
  const double avail =
      active ? n.incumbentAvailability() : n.cpuAvailability();
  return avail * n.spec().effectiveFlopsPerCpu();
}

std::vector<grid::NodeId> SwapManager::inactiveNodes() const {
  std::set<grid::NodeId> active(world_->mapping().begin(),
                                world_->mapping().end());
  // Nodes already targeted by pending commands count as claimed.
  for (const auto& c : pending_) active.insert(c.to);
  std::vector<grid::NodeId> out;
  for (const auto n : pool_) {
    if (active.count(n) == 0) out.push_back(n);
  }
  return out;
}

double SwapManager::predictIterationSeconds(
    const std::vector<grid::NodeId>& active) const {
  GRADS_REQUIRE(!active.empty(), "predictIterationSeconds: empty set");
  double compute = 0.0;
  for (const auto n : active) {
    compute = std::max(compute, cfg_.flopsPerRankPerIteration / nodeRate(n));
  }
  // Synchronous iteration: every collective crosses the widest link in the
  // active set.
  double maxLatency = 0.0;
  const auto& g = world_->grid();
  for (std::size_t i = 0; i < active.size(); ++i) {
    for (std::size_t j = i + 1; j < active.size(); ++j) {
      maxLatency = std::max(maxLatency, g.route(active[i], active[j]).latencySec);
    }
  }
  return compute + cfg_.messagesPerIteration * maxLatency;
}

void SwapManager::enqueue(int rank, grid::NodeId to) {
  for (const auto& c : pending_) {
    if (c.rank == rank) return;  // one pending command per rank
  }
  pending_.push_back(Command{rank, to});
}

void SwapManager::evaluate() {
  const auto& mapping = world_->mapping();

  switch (cfg_.policy) {
    case SwapPolicy::kNever:
      return;
    case SwapPolicy::kGreedy: {
      // Swap any degraded active node for the fastest idle one.
      auto idle = inactiveNodes();
      for (int r = 0; r < world_->size(); ++r) {
        const grid::NodeId cur = mapping[static_cast<std::size_t>(r)];
        const auto& node = world_->grid().node(cur);
        const double avail =
            nws_ != nullptr
                ? nws_->tryIncumbentAvailability(cur).value_or(
                      node.incumbentAvailability())
                : node.incumbentAvailability();
        if (avail >= kDegradeThreshold) continue;
        grid::NodeId best = grid::kNoId;
        double bestRate = nodeRate(cur) * kImproveMargin;
        for (const auto cand : idle) {
          if (nodeRate(cand) > bestRate) {
            bestRate = nodeRate(cand);
            best = cand;
          }
        }
        if (best != grid::kNoId) {
          enqueue(r, best);
          idle.erase(std::find(idle.begin(), idle.end(), best));
        }
      }
      break;
    }
    case SwapPolicy::kPeriodicBest: {
      // Keep the k individually-fastest pool nodes active, ignoring
      // communication structure (the classic strawman).
      std::vector<grid::NodeId> sorted = pool_;
      std::sort(sorted.begin(), sorted.end(),
                [this](grid::NodeId a, grid::NodeId b) {
                  return nodeRate(a) > nodeRate(b);
                });
      sorted.resize(static_cast<std::size_t>(world_->size()));
      std::set<grid::NodeId> want(sorted.begin(), sorted.end());
      std::vector<grid::NodeId> spare;
      for (const auto n : sorted) {
        if (std::find(mapping.begin(), mapping.end(), n) == mapping.end()) {
          spare.push_back(n);
        }
      }
      for (int r = 0; r < world_->size() && !spare.empty(); ++r) {
        const grid::NodeId cur = mapping[static_cast<std::size_t>(r)];
        if (want.count(cur) == 0) {
          enqueue(r, spare.back());
          spare.pop_back();
        }
      }
      break;
    }
    case SwapPolicy::kModelBased: {
      // Consider candidate active sets: the current one, and for each
      // cluster, the fastest k nodes within that cluster (cluster-affine
      // sets avoid paying WAN latency every iteration). Pick the best.
      GRADS_REQUIRE(cfg_.flopsPerRankPerIteration > 0.0,
                    "model-based swap policy needs flopsPerRankPerIteration");
      const auto& g = world_->grid();
      const std::size_t k = static_cast<std::size_t>(world_->size());
      std::vector<std::vector<grid::NodeId>> candidates{mapping};
      std::map<grid::ClusterId, std::vector<grid::NodeId>> byCluster;
      for (const auto n : pool_) byCluster[g.node(n).cluster()].push_back(n);
      for (auto& [cluster, nodes] : byCluster) {
        (void)cluster;
        if (nodes.size() < k) continue;
        std::sort(nodes.begin(), nodes.end(),
                  [this](grid::NodeId a, grid::NodeId b) {
                    return nodeRate(a) > nodeRate(b);
                  });
        candidates.emplace_back(nodes.begin(),
                                nodes.begin() + static_cast<std::ptrdiff_t>(k));
      }
      double bestTime = predictIterationSeconds(mapping) / kImproveMargin;
      const std::vector<grid::NodeId>* best = nullptr;
      for (std::size_t i = 1; i < candidates.size(); ++i) {
        const double t = predictIterationSeconds(candidates[i]);
        if (t < bestTime) {
          bestTime = t;
          best = &candidates[i];
        }
      }
      if (best != nullptr) {
        for (int r = 0; r < world_->size(); ++r) {
          const grid::NodeId target = (*best)[static_cast<std::size_t>(r)];
          if (mapping[static_cast<std::size_t>(r)] != target) {
            enqueue(r, target);
          }
        }
      }
      break;
    }
  }
}

void SwapManager::start() {
  if (running_) return;
  running_ = true;
  scheduleTick();
}

void SwapManager::scheduleTick() {
  world_->engine().scheduleDaemon(kCheckPeriodSec, [this] {
    if (!running_) return;
    evaluate();
    scheduleTick();
  });
}

sim::Task SwapManager::atIterationBoundary(int rank) {
  // The hijacked communication point: rank 0 applies pending swaps, paying
  // the process-image transfer for each, and re-points the rank once its
  // image has arrived (until then it keeps communicating from its old
  // node); everyone then resynchronizes. A transfer that fails (a link on
  // the route is down) leaves the rank where it was.
  if (rank == 0 && !pending_.empty()) {
    std::vector<Command> cmds = std::move(pending_);
    pending_.clear();
    for (const auto& c : cmds) {
      const grid::NodeId from = world_->nodeOf(c.rank);
      if (from == c.to) continue;
      try {
        co_await world_->grid().transfer(from, c.to, kPerProcessDataBytes);
      } catch (const std::exception& e) {
        GRADS_INFO("swap", world_->engine().now())
            << world_->name() << ": rank " << c.rank << " stays on "
            << world_->grid().node(from).name() << ": image transfer to "
            << world_->grid().node(c.to).name() << " failed: " << e.what();
        continue;
      }
      world_->setNodeOf(c.rank, c.to);
      history_.push_back(SwapEvent{world_->engine().now(), c.rank, from, c.to});
      GRADS_INFO("swap", world_->engine().now())
          << world_->name() << ": rank " << c.rank << " swapped "
          << world_->grid().node(from).name() << " -> "
          << world_->grid().node(c.to).name();
    }
  }
  co_await world_->barrier(rank);
}

}  // namespace grads::reschedule
