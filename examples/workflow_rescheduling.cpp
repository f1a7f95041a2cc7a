// Executing a workflow on the Grid with mid-flight rescheduling — the
// fusion of the paper's two threads (§5: VGrADS carries forward "the
// workflow scheduler and the rescheduling mechanisms").
//
//   $ ./examples/workflow_rescheduling

#include <iostream>

#include "grid/load.hpp"
#include "grid/testbeds.hpp"
#include "services/gis.hpp"
#include "util/log.hpp"
#include "workflow/builders.hpp"
#include "workflow/executor.hpp"

using namespace grads;

int main() {
  sim::Engine engine;
  log::config().level = log::Level::kInfo;

  grid::Grid grid(engine);
  const auto tb = grid::buildQrTestbed(grid);
  services::Gis gis(grid);
  services::Nws nws(engine, grid, 10.0, 0.01);
  nws.start();

  // A 12-stage pipeline; at t = 40 s heavy load floods the UTK cluster the
  // scheduler initially picked.
  const auto dag = workflow::makeChain(12, 4e10, 1024.0 * 1024.0);
  for (const auto id : tb.utkNodes) {
    grid::applyLoadTrace(engine, grid.node(id),
                         grid::LoadTrace::stepAt(40.0, 4.0));
  }

  workflow::WorkflowExecutor executor(grid, gis, &nws);
  workflow::ExecutionOptions opts;
  opts.reschedule = true;
  opts.rescheduleCheckSec = 20.0;

  workflow::ExecutionResult result;
  engine.spawn(executor.execute(dag, opts, &result), "workflow");
  engine.run();

  std::cout << "\nstatic estimate:      " << result.staticEstimate << " s\n"
            << "executed makespan:    " << result.makespan << " s\n"
            << "reschedule rounds:    " << result.rescheduleRounds << "\n"
            << "remapped components:  " << result.remappedComponents << "\n\n";
  std::cout << "component timeline:\n";
  for (const auto& run : result.runs) {
    std::cout << "  " << dag.component(run.component).name << " on "
              << grid.node(run.node).name() << "  [" << run.start << ", "
              << run.finish << "] s" << (run.remapped ? "  (remapped)" : "")
              << "\n";
  }
  return 0;
}
