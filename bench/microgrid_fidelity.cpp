// MicroGrid fidelity check (paper §4.2/§5: "Grid computations can be
// successfully emulated by a controllable testbed", validated against the
// MacroGrid in [14]/[16]): the Figure-4 swap experiment is run twice on the
// same virtual-grid description — once with exact hardware parameters (the
// MacroGrid reference) and once through the MicroGrid emulation layer with
// its virtualization overheads — and the progress trajectories and decision
// points are compared.

#include <cmath>
#include <iostream>

#include "bench_paths.hpp"
#include "apps/nbody.hpp"
#include "grid/load.hpp"
#include "microgrid/dml.hpp"
#include "reschedule/swap.hpp"
#include "services/nws.hpp"
#include "util/table.hpp"

using namespace grads;

namespace {

struct RunOutput {
  apps::NBodyProgress progress;
  double firstSwapAt = -1.0;
  double finishedAt = 0.0;
};

RunOutput runOn(bool emulated) {
  sim::Engine eng;
  grid::Grid g(eng);
  const auto spec = microgrid::parseDml(microgrid::swapExperimentDml());
  microgrid::instantiate(g, spec, emulated);
  services::Nws nws(eng, g, 10.0, 0.01, 7);
  nws.start();

  const auto utkNodes = g.clusterNodes(*g.findCluster("utk"));
  const auto uiucNodes = g.clusterNodes(*g.findCluster("uiuc"));
  grid::applyLoadTrace(eng, g.node(utkNodes[0]),
                       grid::LoadTrace::stepAt(80.0, 2.0));

  apps::NBodyConfig cfg;
  cfg.particles = 10000;
  cfg.iterations = 100;
  vmpi::World world(g, {utkNodes[0], utkNodes[1], utkNodes[2]}, "nbody");
  std::vector<grid::NodeId> pool = utkNodes;
  pool.insert(pool.end(), uiucNodes.begin(), uiucNodes.end());

  reschedule::SwapConfig scfg;
  scfg.policy = reschedule::SwapPolicy::kModelBased;
  scfg.flopsPerRankPerIteration = apps::nbodyIterationFlopsPerRank(cfg, 3);
  scfg.messagesPerIteration = 4.0;
  reschedule::SwapManager swap(world, pool, &nws, scfg);
  swap.start();

  RunOutput out;
  for (int r = 0; r < 3; ++r) {
    eng.spawn(apps::nbodyRank(world, &swap, cfg, r, nullptr, "nbody",
                              &out.progress));
  }
  eng.run();
  out.finishedAt = eng.now();
  if (!swap.history().empty()) out.firstSwapAt = swap.history()[0].time;
  return out;
}

}  // namespace

int main() {
  const auto direct = runOn(false);
  const auto emulated = runOn(true);

  util::Table table({"metric", "direct(MacroGrid)", "emulated(MicroGrid)",
                     "relative_diff_pct"});
  auto row = [&](const std::string& name, double a, double b) {
    table.addRow({name, a, b, a > 0.0 ? 100.0 * std::fabs(b - a) / a : 0.0});
  };
  row("completion_s", direct.finishedAt, emulated.finishedAt);
  row("first_swap_at_s", direct.firstSwapAt, emulated.firstSwapAt);
  auto timeAtIter = [](const RunOutput& r, int iter) {
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
  table.saveCsv(bench::outputPath("microgrid_fidelity.csv"));

  std::cout << "\nExpected shape: the emulated run tracks the direct run "
               "within a few percent everywhere, and both make the same "
               "rescheduling decision (all workers swapped to UIUC shortly "
               "after the t=80 s load).\n";
  return 0;
}
