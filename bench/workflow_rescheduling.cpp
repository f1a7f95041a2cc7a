// Workflow-level rescheduling — the fusion of the paper's two contributions
// that its conclusions point at ("A vGrid will incorporate many of the GrADS
// techniques discussed here, notably the workflow scheduler and the
// rescheduling mechanisms", §5): workflows *executing* on the grid are
// remapped mid-flight when NWS detects resource drift.
//
// Scenario sweep: a load burst lands on the initially-chosen cluster at
// varying points of the workflow's life; we compare static execution against
// the rescheduling executor.

#include <fstream>
#include <iostream>

#include "bench_paths.hpp"
#include "grid/load.hpp"
#include "grid/testbeds.hpp"
#include "services/gis.hpp"
#include "util/table.hpp"
#include "workflow/builders.hpp"
#include "workflow/executor.hpp"

using namespace grads;

namespace {

struct Outcome {
  double makespan = 0.0;
  int remapped = 0;
};

Outcome runOnce(double loadAtSec, bool reschedule, const std::string& shape) {
  sim::Engine eng;
  grid::Grid g(eng);
  const auto tb = grid::buildQrTestbed(g);
  services::Gis gis(g);
  services::Nws nws(eng, g, 10.0, 0.01, 21);
  nws.start();

  Rng rng(13);
  workflow::Dag dag;
  if (shape == "chain") {
    dag = workflow::makeChain(12, 4e10, 1024.0 * 1024.0);
  } else if (shape == "ligo") {
    dag = workflow::makeLigoLike(16, rng);
  } else {
    dag = workflow::makeRandomLayered(5, 4, rng);
  }

  // Load burst on every UTK node (the initially fastest cluster).
  if (loadAtSec >= 0.0) {
    for (const auto id : tb.utkNodes) {
      grid::applyLoadTrace(eng, g.node(id),
                           grid::LoadTrace::stepAt(loadAtSec, 4.0));
    }
  }

  workflow::WorkflowExecutor exec(g, gis, &nws);
  workflow::ExecutionOptions opts;
  opts.reschedule = reschedule;
  opts.rescheduleCheckSec = 20.0;
  workflow::ExecutionResult result;
  eng.spawn(exec.execute(dag, opts, &result), "wf");
  eng.run();
  return Outcome{result.makespan, result.remappedComponents};
}

}  // namespace

int main() {
  std::ofstream csv =
      bench::openOutput(bench::outputPath("workflow_rescheduling.csv"));
  util::Table table({"dag", "load_at_s", "static_s", "rescheduled_s",
                     "speedup", "remapped_components"});
  for (const std::string shape : {"chain", "ligo", "layered"}) {
    for (const double loadAt : {-1.0, 20.0, 60.0, 120.0}) {
      const auto fixed = runOnce(loadAt, false, shape);
      const auto adaptive = runOnce(loadAt, true, shape);
      table.addRow({shape, loadAt,
                    fixed.makespan, adaptive.makespan,
                    fixed.makespan / adaptive.makespan,
                    static_cast<std::int64_t>(adaptive.remapped)});
    }
  }
  table.print(std::cout,
              "Workflow-level rescheduling — executed makespan with a load "
              "burst on the initial cluster (load_at=-1: no load)");
  table.writeCsv(csv);

  std::cout << "\nExpected shape: no load → identical (no churn); early load"
               " → large wins from remapping pending components; late load →"
               " shrinking benefit (most work already placed).\n";
  return 0;
}
