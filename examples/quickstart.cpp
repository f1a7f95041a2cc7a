// Quickstart: build a small Grid, monitor it with NWS, and run an MPI-style
// application on it through the public API.
//
//   $ ./examples/quickstart
//
// Walks through the library's core objects in ~60 lines: Engine (virtual
// time), Grid (clusters/nodes/links), Nws (resource forecasts), World
// (virtual MPI), and a coroutine application.

#include <iostream>

#include "grid/load.hpp"
#include "grid/testbeds.hpp"
#include "services/nws.hpp"
#include "sim/sync.hpp"
#include "vmpi/world.hpp"

using namespace grads;

// A tiny iterative MPI application: compute, then synchronize, 10 times.
sim::Task worker(vmpi::World& world, int rank) {
  for (int iter = 0; iter < 10; ++iter) {
    co_await world.compute(rank, 1e9);      // 1 Gflop of local work
    co_await world.allreduce(rank, 1024.0); // 1 KB synchronizing reduction
    if (rank == 0) {
      std::cout << "  iteration " << iter + 1 << " done at t="
                << world.engine().now() << " s\n";
    }
  }
}

int main() {
  // 1. A simulation engine: all time below is *virtual* time.
  sim::Engine engine;

  // 2. The paper's §4.1.2 testbed: 4 dual-CPU UTK nodes + 8 UIUC nodes.
  grid::Grid grid(engine);
  const auto tb = grid::buildQrTestbed(grid);

  // 3. A Network Weather Service monitoring every node and link.
  services::Nws nws(engine, grid, /*periodSec=*/10.0);
  nws.start();

  // 4. Background load lands on one UTK node at 30 s.
  grid::applyLoadTrace(engine, grid.node(tb.utkNodes[0]),
                       grid::LoadTrace::stepAt(30.0, 2.0));

  // 5. An MPI world: one rank on each of the four UTK nodes.
  vmpi::World world(grid, {tb.utkNodes[0], tb.utkNodes[1], tb.utkNodes[2],
                           tb.utkNodes[3]},
                    "quickstart");

  std::cout << "Running 4-rank application on the UTK cluster...\n";
  for (int r = 0; r < world.size(); ++r) engine.spawn(worker(world, r));
  engine.run();

  std::cout << "Finished at t=" << engine.now() << " s\n";
  std::cout << "NWS now sees utk0 availability = "
            << nws.tryCpuAvailability(tb.utkNodes[0]).value()
            << " (degraded by the injected load)\n";
  return 0;
}
