#pragma once

#include "services/gis.hpp"
#include "services/nws.hpp"
#include "sim/sync.hpp"
#include "util/retry.hpp"
#include "workflow/scheduler.hpp"

namespace grads::workflow {

/// Options for executing a scheduled workflow on the (simulated) Grid.
struct ExecutionOptions {
  /// Workflow-level rescheduling — the marriage of the paper's two threads
  /// (§5 future work, realized in VGrADS): periodically re-run the
  /// scheduler for components that have not started yet, using fresh NWS
  /// information, and adopt the new placements.
  bool reschedule = false;
  double rescheduleCheckSec = 30.0;

  /// Degraded-mode execution: re-check that a component's target node is
  /// actually reachable at launch time (the GIS directory may be stale) and
  /// remap to the cheapest feasible alternate when it is not; retry input
  /// transfers that hit a partitioned link with bounded backoff.
  bool faultTolerant = false;
  util::RetryPolicy retry;
  std::uint64_t retrySeed = 0xfa417ULL;  ///< jitter Rng seed (deterministic)
};

struct ComponentRun {
  ComponentId component = 0;
  grid::NodeId node = grid::kNoId;
  double ready = 0.0;   ///< all predecessors done
  double start = 0.0;   ///< input transfers began
  double finish = 0.0;
  bool remapped = false;  ///< placed differently from the initial schedule
};

struct ExecutionResult {
  std::vector<ComponentRun> runs;  ///< indexed by component id
  double makespan = 0.0;
  double staticEstimate = 0.0;  ///< the initial schedule's predicted makespan
  int remappedComponents = 0;
  int rescheduleRounds = 0;
  int launchFailures = 0;   ///< stale-GIS targets caught at launch time
  int transferRetries = 0;  ///< input transfers re-tried after LinkDownError
};

/// Executes a workflow DAG on the grid: components run as simulated
/// computations on their scheduled nodes (sharing CPUs with whatever else is
/// there — background load included), data moves over the real simulated
/// links, and (optionally) a rescheduling loop retargets not-yet-started
/// components when resource conditions drift.
class WorkflowExecutor {
 public:
  WorkflowExecutor(grid::Grid& grid, const services::Gis& gis,
                   const services::Nws* nws);

  /// Runs the whole workflow; resolves when the last component finishes.
  sim::Task execute(const Dag& dag, ExecutionOptions options,
                    ExecutionResult* result);

 private:
  struct RunState;

  sim::Task runComponent(const Dag& dag, ComponentId c, RunState& state);
  /// Arms the next rescheduling tick, which reschedules and re-arms from
  /// here; the pending tick is cancelled when `state` is destroyed.
  void scheduleRescheduleTick(const Dag& dag, RunState& state);
  void rescheduleUnstarted(const Dag& dag, RunState& state);

  grid::Grid* grid_;
  const services::Gis* gis_;
  const services::Nws* nws_;
};

}  // namespace grads::workflow
