#pragma once

#include "workflow/scheduler.hpp"

namespace grads::workflow {

/// Simulated-annealing workflow mapper, after the GrADS metascheduling work
/// of YarKhan & Dongarra ("Experiments with Scheduling Using Simulated
/// Annealing in a Grid Environment"; the paper's scheduler lineage [20]).
/// Where the batch heuristics build a schedule greedily from the rank
/// matrix, annealing searches the full mapping space: start from the
/// min-min schedule, perturb one component's placement at a time, accept
/// uphill moves with Metropolis probability under a geometric cooling
/// schedule.
struct AnnealingOptions {
  int iterations = 4000;
};

struct AnnealingStats {
  double initialMakespan = 0.0;
  double finalMakespan = 0.0;
  int accepted = 0;
  int uphillAccepted = 0;
};

/// Returns a schedule at least as good as min-min on the same estimator
/// (annealing never returns a state worse than its greedy seed). A state is
/// the min-min schedule's assignments with some nodes moved; it keeps the
/// min-min pick order, and evaluateMapping scores it in that order, so the
/// seed scores exactly min-min's makespan.
Schedule scheduleSimulatedAnnealing(const Dag& dag, const Estimator& estimator,
                                    const std::vector<grid::NodeId>& resources,
                                    AnnealingOptions options = {},
                                    AnnealingStats* stats = nullptr);

}  // namespace grads::workflow
