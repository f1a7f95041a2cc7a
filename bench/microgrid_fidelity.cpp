// MicroGrid fidelity check (paper §4.2/§5: "Grid computations can be
// successfully emulated by a controllable testbed", validated against the
// MacroGrid in [14]/[16]): the Figure-4 swap experiment is run twice on the
// same virtual-grid description — once with exact hardware parameters (the
// MacroGrid reference) and once through the MicroGrid emulation layer with
// its virtualization overheads — and the progress trajectories and decision
// points are compared.

#include <cmath>
#include <fstream>
#include <iostream>

#include "bench_paths.hpp"
#include "scenarios.hpp"
#include "util/table.hpp"

using namespace grads;

int main() {
  std::ofstream csv =
      bench::openOutput(bench::outputPath("microgrid_fidelity.csv"));
  const auto direct = bench::runSwapExperiment(
      reschedule::SwapPolicy::kModelBased, /*emulated=*/false);
  const auto emulated = bench::runSwapExperiment(
      reschedule::SwapPolicy::kModelBased, /*emulated=*/true);
  const auto firstSwapAt = [](const bench::SwapExperimentRun& r) {
    return r.swaps.empty() ? -1.0 : r.swaps.front().time;
  };

  util::Table table({"metric", "direct(MacroGrid)", "emulated(MicroGrid)",
                     "relative_diff_pct"});
  auto row = [&](const std::string& name, double a, double b) {
    table.addRow({name, a, b, a > 0.0 ? 100.0 * std::fabs(b - a) / a : 0.0});
  };
  row("completion_s", direct.finishedAt, emulated.finishedAt);
  row("first_swap_at_s", firstSwapAt(direct), firstSwapAt(emulated));
  auto timeAtIter = [](const bench::SwapExperimentRun& r, int iter) {
    for (const auto& [t, i] : r.progress.samples) {
      if (i >= iter) return t;
    }
    return 0.0;
  };
  for (const int iter : {25, 50, 75, 100}) {
    row("time_at_iteration_" + std::to_string(iter), timeAtIter(direct, iter),
        timeAtIter(emulated, iter));
  }
  table.print(std::cout,
              "MicroGrid fidelity — Figure-4 scenario, direct simulation vs "
              "emulation with virtualization overheads");
  table.writeCsv(csv);

  std::cout << "\nExpected shape: the emulated run tracks the direct run "
               "within a few percent everywhere, and both make the same "
               "rescheduling decision (all workers swapped to UIUC shortly "
               "after the t=80 s load).\n";
  return 0;
}
