#include "workflow/annealing.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace grads::workflow {

namespace {
/// Initial temperature as a fraction of the starting makespan.
constexpr double kInitialTempFraction = 0.2;
/// Restart from the best-so-far state when stuck this many rejections.
constexpr int kRestartAfterRejections = 400;
/// Geometric cooling: the temperature is multiplied by this every iteration.
constexpr double kCoolingRate = 0.998;
/// Seed of the perturbation and acceptance stream.
constexpr std::uint64_t kSeed = 1;

static_assert(kCoolingRate > 0.0 && kCoolingRate < 1.0,
              "annealing: cooling rate must be in (0,1)");
}  // namespace

Schedule scheduleSimulatedAnnealing(const Dag& dag, const Estimator& estimator,
                                    const std::vector<grid::NodeId>& resources,
                                    AnnealingOptions options,
                                    AnnealingStats* stats) {
  GRADS_REQUIRE(options.iterations >= 0, "annealing: negative iterations");

  // Eligible resources per component (rank = ∞ placements are never legal).
  std::vector<std::vector<grid::NodeId>> eligible(dag.size());
  for (ComponentId c = 0; c < dag.size(); ++c) {
    for (const auto node : resources) {
      if (estimator.ecost(dag.component(c), node) != kInfeasible) {
        eligible[c].push_back(node);
      }
    }
    GRADS_REQUIRE(!eligible[c].empty(),
                  "annealing: no feasible resource for " +
                      dag.component(c).name);
  }

  // Seed with the greedy min-min schedule.
  WorkflowScheduler greedy(estimator, resources);
  Schedule seed = greedy.schedule(dag, Heuristic::kMinMin);
  std::vector<Assignment> state = seed.assignments;
  double cost = evaluateMapping(dag, estimator, state).makespan;

  std::vector<Assignment> best = state;
  double bestCost = cost;

  AnnealingStats st;
  st.initialMakespan = cost;

  Rng rng(kSeed);
  double temperature = cost * kInitialTempFraction;
  int rejectionStreak = 0;

  auto slotOf = [&state](ComponentId c) -> Assignment& {
    for (auto& a : state) {
      if (a.component == c) return a;
    }
    throw InternalError("annealing: component missing from state");
  };

  for (int iter = 0; iter < options.iterations; ++iter) {
    // Perturb: move one random component to a random eligible node.
    const auto c = static_cast<ComponentId>(
        rng.uniformInt(0, static_cast<std::int64_t>(dag.size()) - 1));
    Assignment& slot = slotOf(c);
    const grid::NodeId old = slot.node;
    const auto& options_c = eligible[c];
    slot.node = options_c[static_cast<std::size_t>(rng.uniformInt(
        0, static_cast<std::int64_t>(options_c.size()) - 1))];
    if (slot.node == old) continue;

    const double newCost = evaluateMapping(dag, estimator, state).makespan;
    const double delta = newCost - cost;
    const bool accept =
        delta <= 0.0 ||
        (temperature > 0.0 && rng.uniform() < std::exp(-delta / temperature));
    if (accept) {
      cost = newCost;
      ++st.accepted;
      if (delta > 0.0) ++st.uphillAccepted;
      rejectionStreak = 0;
      if (cost < bestCost) {
        bestCost = cost;
        best = state;
      }
    } else {
      slot.node = old;
      if (++rejectionStreak >= kRestartAfterRejections) {
        state = best;
        cost = bestCost;
        rejectionStreak = 0;
      }
    }
    temperature *= kCoolingRate;
  }

  Schedule out = evaluateMapping(dag, estimator, best);
  out.heuristic = Heuristic::kMinMin;  // provenance: seeded from min-min
  st.finalMakespan = out.makespan;
  if (stats != nullptr) *stats = st;
  return out;
}

}  // namespace grads::workflow
