#include "workflow/executor.hpp"

#include <exception>
#include <map>

#include "util/error.hpp"
#include "util/log.hpp"

namespace grads::workflow {

namespace {
constexpr Heuristic kHeuristic = Heuristic::kBestOfThree;
/// Only adopt a remap when the re-estimated makespan improves by this
/// factor (guards against churn on NWS noise).
constexpr double kImproveMargin = 1.05;
}  // namespace

struct WorkflowExecutor::RunState {
  RunState(sim::Engine& engine, std::size_t n) {
    done.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      done.push_back(std::make_unique<sim::Event>(engine));
    }
    runs.resize(n);
  }
  // The pending rescheduling tick reads this state, so it goes with it:
  // when the workflow returns, throws, or dies with the engine.
  ~RunState() { tick.cancel(); }

  ExecutionOptions options;
  std::vector<grid::NodeId> placement;          // current target per component
  std::vector<grid::NodeId> initialPlacement;
  // Pick order of the schedule last adopted: placement is scored in it, as
  // component ids need not be a dependency order.
  std::vector<ComponentId> order;
  std::vector<std::unique_ptr<sim::Event>> done;
  std::vector<bool> started;
  std::vector<ComponentRun> runs;
  int rescheduleRounds = 0;
  sim::Engine::EventHandle tick;
  Rng retryRng{0};
  int launchFailures = 0;
  int transferRetries = 0;
};

WorkflowExecutor::WorkflowExecutor(grid::Grid& grid, const services::Gis& gis,
                                   const services::Nws* nws)
    : grid_(&grid), gis_(&gis), nws_(nws) {}

sim::Task WorkflowExecutor::runComponent(const Dag& dag, ComponentId c,
                                         RunState& state) {
  // Wait for every predecessor.
  for (const auto& e : dag.inEdges(c)) {
    co_await state.done[e.from]->wait();
  }
  ComponentRun& run = state.runs[c];
  run.component = c;
  run.ready = grid_->engine().now();

  // Placement is pinned the moment the component starts.
  state.started[c] = true;
  grid::NodeId node = state.placement[c];

  // Launch-time reachability check: the scheduler placed this component off
  // a GIS directory that may be stale. When the target is in truth dead,
  // remap to the cheapest feasible reachable node; when nothing at all is
  // reachable, back off and re-poll (bounded) before giving up.
  if (state.options.faultTolerant && !gis_->isNodeReachable(node)) {
    util::Retry retry(state.options.retry, &state.retryRng);
    GridEstimator estimator(*gis_, nws_);
    while (!gis_->isNodeReachable(node)) {
      ++state.launchFailures;
      grid::NodeId pick = grid::kNoId;
      double best = kInfeasible;
      for (const auto cand : gis_->availableNodes()) {
        if (!gis_->isNodeReachable(cand)) continue;
        const double cost = estimator.ecost(dag.component(c), cand);
        if (cost < best) {
          best = cost;
          pick = cand;
        }
      }
      if (pick != grid::kNoId) {
        GRADS_WARN("wf-exec", grid_->engine().now())
            << "component " << c << ": node " << grid_->node(node).name()
            << " unreachable at launch, remapped to "
            << grid_->node(pick).name();
        node = pick;
        state.placement[c] = pick;
        break;
      }
      const auto delay = retry.nextDelaySec();
      if (!delay) {
        throw Error("workflow component " + std::to_string(c) +
                    ": no reachable resources after " +
                    std::to_string(retry.attemptsUsed() + 1) + " attempts");
      }
      GRADS_WARN("wf-exec", grid_->engine().now())
          << "component " << c << ": no reachable resources, retrying in "
          << *delay << " s";
      co_await sim::sleepFor(grid_->engine(), *delay);
    }
  }

  run.node = node;
  run.remapped = node != state.initialPlacement[c];
  run.start = run.ready;

  // Pull inputs from wherever the predecessors actually ran.
  for (const auto& e : dag.inEdges(c)) {
    const grid::NodeId from = state.runs[e.from].node;
    if (from == node || e.bytes <= 0.0) continue;
    if (!state.options.faultTolerant) {
      co_await grid_->transfer(from, node, e.bytes);
      continue;
    }
    // A partitioned link throws before consuming bandwidth; retry with
    // backoff until the partition heals or the budget runs out.
    // (co_await is not allowed inside a handler, hence the exception_ptr.)
    util::Retry retry(state.options.retry, &state.retryRng);
    while (true) {
      std::exception_ptr linkError;
      try {
        co_await grid_->transfer(from, node, e.bytes);
        break;
      } catch (const grid::LinkDownError& ex) {
        linkError = std::current_exception();
        GRADS_WARN("wf-exec", grid_->engine().now())
            << "component " << c << ": " << ex.what();
      }
      const auto delay = retry.nextDelaySec();
      if (!delay) std::rethrow_exception(linkError);
      ++state.transferRetries;
      co_await sim::sleepFor(grid_->engine(), *delay);
    }
  }

  // Compute on the node's shared CPU (background load slows us naturally).
  co_await grid_->node(node).compute(dag.component(c).flops);

  run.finish = grid_->engine().now();
  state.done[c]->set();
}

void WorkflowExecutor::rescheduleUnstarted(const Dag& dag, RunState& state) {
  // Schedules the whole DAG from t = 0 with fresh NWS information and, if
  // that schedule wins, moves only the components that have not started;
  // started ones keep their nodes. Scheduling the residual work from now
  // (started components fixed at their actual or expected finish) is still
  // open.
  ++state.rescheduleRounds;
  GridEstimator estimator(*gis_, nws_);
  WorkflowScheduler scheduler(estimator, gis_->availableNodes());

  Schedule fresh;
  try {
    fresh = scheduler.schedule(dag, kHeuristic);
  } catch (const Error&) {
    return;  // e.g. no feasible resources right now — keep current placement
  }

  // Estimate both placements under the current estimator; adopt the new one
  // only if it wins by the configured margin.
  std::vector<Assignment> current;
  for (const ComponentId c : state.order) {
    Assignment a;
    a.component = c;
    a.node = state.placement[c];
    current.push_back(a);
  }
  double curCost = 0.0;
  try {
    curCost = evaluateMapping(dag, estimator, current).makespan;
  } catch (const Error&) {
    curCost = std::numeric_limits<double>::infinity();  // placement went stale
  }
  const double newCost = evaluateMapping(dag, estimator, fresh.assignments)
                             .makespan;
  if (newCost * kImproveMargin >= curCost) return;

  int changed = 0;
  state.order.clear();
  for (const auto& a : fresh.assignments) {
    state.order.push_back(a.component);
    if (!state.started[a.component] &&
        state.placement[a.component] != a.node) {
      state.placement[a.component] = a.node;
      ++changed;
    }
  }
  if (changed > 0) {
    GRADS_INFO("wf-exec", grid_->engine().now())
        << "rescheduled " << changed << " pending components (est. "
        << curCost << " -> " << newCost << " s)";
  }
}

void WorkflowExecutor::scheduleRescheduleTick(const Dag& dag,
                                              RunState& state) {
  state.tick = grid_->engine().scheduleDaemon(
      state.options.rescheduleCheckSec,
      [this, dagPtr = &dag, statePtr = &state] {
        rescheduleUnstarted(*dagPtr, *statePtr);
        scheduleRescheduleTick(*dagPtr, *statePtr);
      });
}

sim::Task WorkflowExecutor::execute(const Dag& dag, ExecutionOptions options,
                                    ExecutionResult* result) {
  GRADS_REQUIRE(dag.size() > 0, "WorkflowExecutor: empty DAG");
  sim::Engine& eng = grid_->engine();
  const double t0 = eng.now();

  RunState state(eng, dag.size());
  state.options = options;
  state.started.assign(dag.size(), false);
  state.retryRng = Rng(options.retrySeed);

  // Initial schedule from current NWS information.
  GridEstimator estimator(*gis_, nws_);
  WorkflowScheduler scheduler(estimator, gis_->availableNodes());
  const Schedule initial = scheduler.schedule(dag, kHeuristic);
  state.placement.assign(dag.size(), grid::kNoId);
  for (const auto& a : initial.assignments) {
    state.placement[a.component] = a.node;
    state.order.push_back(a.component);
  }
  state.initialPlacement = state.placement;

  // Optional rescheduling loop (daemon: dies with the run).
  if (options.reschedule) scheduleRescheduleTick(dag, state);

  sim::JoinSet components(eng);
  for (ComponentId c = 0; c < dag.size(); ++c) {
    components.spawn(runComponent(dag, c, state));
  }
  co_await components.join();

  if (result != nullptr) {
    result->runs = std::move(state.runs);
    result->makespan = eng.now() - t0;
    result->staticEstimate = initial.makespan;
    result->rescheduleRounds = state.rescheduleRounds;
    result->launchFailures = state.launchFailures;
    result->transferRetries = state.transferRetries;
    result->remappedComponents = 0;
    for (const auto& r : result->runs) {
      if (r.remapped) ++result->remappedComponents;
    }
  }
}

}  // namespace grads::workflow
