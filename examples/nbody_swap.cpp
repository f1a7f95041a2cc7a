// The paper's §4.2 process-swapping demonstration: an N-body simulation is
// over-provisioned (3 active UTK workers + 3 inactive UIUC machines); when
// competitive load degrades a UTK node, the swap rescheduler retargets the
// ranks through the hijacked communicator, without checkpoint/restart.
//
//   $ ./examples/nbody_swap [greedy|periodic|model|never]

#include <cstring>
#include <iostream>

#include "apps/nbody.hpp"
#include "grid/load.hpp"
#include "microgrid/dml.hpp"
#include "reschedule/swap.hpp"
#include "services/nws.hpp"
#include "util/log.hpp"

using namespace grads;

int main(int argc, char** argv) {
  reschedule::SwapPolicy policy = reschedule::SwapPolicy::kModelBased;
  if (argc > 1) {
    if (std::strcmp(argv[1], "greedy") == 0) {
      policy = reschedule::SwapPolicy::kGreedy;
    } else if (std::strcmp(argv[1], "periodic") == 0) {
      policy = reschedule::SwapPolicy::kPeriodicBest;
    } else if (std::strcmp(argv[1], "never") == 0) {
      policy = reschedule::SwapPolicy::kNever;
    }
  }

  sim::Engine engine;
  log::config().level = log::Level::kInfo;

  // The §4.2.2 MicroGrid virtual grid, straight from its DML description.
  grid::Grid grid(engine);
  microgrid::instantiate(grid,
                         microgrid::parseDml(microgrid::swapExperimentDml()),
                         true);  // emulated, as in the paper
  services::Nws nws(engine, grid, 10.0, 0.01);
  nws.start();

  const auto utk = grid.clusterNodes(*grid.findCluster("utk"));
  const auto uiuc = grid.clusterNodes(*grid.findCluster("uiuc"));

  // Two competitive processes on one UTK machine at t = 80 s (§4.2.2).
  grid::applyLoadTrace(engine, grid.node(utk[0]),
                       grid::LoadTrace::stepAt(80.0, 2.0));

  apps::NBodyConfig cfg;
  cfg.particles = 10000;
  cfg.iterations = 100;

  vmpi::World world(grid, {utk[0], utk[1], utk[2]}, "nbody");
  std::vector<grid::NodeId> pool = utk;
  pool.insert(pool.end(), uiuc.begin(), uiuc.end());

  reschedule::SwapConfig scfg;
  scfg.policy = policy;
  scfg.flopsPerRankPerIteration = apps::nbodyIterationFlopsPerRank(cfg, 3);
  scfg.messagesPerIteration = 4.0;
  reschedule::SwapManager swap(world, pool, &nws, scfg);
  swap.start();

  std::cout << "Policy: " << reschedule::swapPolicyName(policy) << "\n";
  autopilot::AutopilotManager autopilot(engine);
  apps::NBodyProgress progress;
  for (int r = 0; r < 3; ++r) {
    engine.spawn(
        apps::nbodyRank(world, &swap, cfg, r, &autopilot, "nbody", &progress));
  }
  engine.run();

  std::cout << "\niteration vs time (every 10th):\n";
  for (std::size_t i = 0; i < progress.samples.size(); i += 10) {
    std::cout << "  t=" << progress.samples[i].first << " s  iter "
              << progress.samples[i].second << "\n";
  }
  std::cout << "swaps performed: " << swap.history().size()
            << ", finished at t=" << engine.now() << " s\n";
  return 0;
}
