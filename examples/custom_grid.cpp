// Building your own virtual Grid two ways — programmatically through the
// grid API, and declaratively through the MicroGrid DML configuration
// language — then comparing NWS observations of both.
//
//   $ ./examples/custom_grid

#include <iostream>

#include "grid/grid.hpp"
#include "grid/testbeds.hpp"
#include "microgrid/dml.hpp"
#include "services/nws.hpp"
#include "sim/sync.hpp"

using namespace grads;

int main() {
  // --- Way 1: programmatic construction. ---------------------------------
  sim::Engine engine1;
  grid::Grid g1(engine1);
  const auto lab = g1.addCluster(
      grid::ClusterSpec{"lab", "HOME", grid::gigabitLan("lab.lan", 4)});
  for (int i = 0; i < 4; ++i) {
    grid::NodeSpec spec;
    spec.name = "lab" + std::to_string(i);
    spec.mhz = 2000.0;
    spec.cpus = 2;
    spec.efficiency = 0.5;
    g1.addNode(lab, spec);
  }
  const auto farm = g1.addCluster(
      grid::ClusterSpec{"farm", "REMOTE", grid::fastEthernetLan("farm.lan", 8)});
  for (int i = 0; i < 8; ++i) {
    grid::NodeSpec spec;
    spec.name = "farm" + std::to_string(i);
    spec.mhz = 800.0;
    spec.efficiency = 0.4;
    g1.addNode(farm, spec);
  }
  g1.connectClusters(lab, farm,
                     grid::internetWan("lab-farm", 0.020, 4.0 * 1024 * 1024));

  std::cout << "programmatic grid: " << g1.nodeCount() << " nodes, "
            << g1.clusterCount() << " clusters\n";
  std::cout << "lab0 -> farm0 estimate for 8 MB: "
            << g1.transferEstimate(*g1.findNode("lab0"), *g1.findNode("farm0"),
                                   8.0 * 1024 * 1024)
            << " s\n\n";

  // --- Way 2: the same topology in DML. -----------------------------------
  const char* dml = R"(
# my home lab and a remote farm
cluster lab HOME gigabit
  node 2000 2 1.0 0.5 x4
end
cluster farm REMOTE ethernet100
  node 800 1 1.0 0.4 x8
end
wan lab farm 0.020 4194304
)";
  sim::Engine engine2;
  grid::Grid g2(engine2);
  microgrid::instantiate(g2, microgrid::parseDml(dml));
  std::cout << "DML grid:          " << g2.nodeCount() << " nodes, "
            << g2.clusterCount() << " clusters\n";

  // Watch both with NWS while a transfer congests the WAN.
  services::Nws nws(engine2, g2, 5.0, 0.0);
  nws.start();
  engine2.spawn([](grid::Grid& g) -> sim::Task {
    co_await g.transfer(*g.findNode("lab0"), *g.findNode("farm0"),
                        64.0 * 1024 * 1024);
  }(g2));
  engine2.runUntil(10.0);
  std::cout << "mid-transfer, NWS forecasts lab0->farm0 for 8 MB: "
            << nws.transferTimeDegraded(*g2.findNode("lab0"),
                                        *g2.findNode("farm0"),
                                        8.0 * 1024 * 1024)
            << " s (congested)\n";
  engine2.run();
  std::cout << "transfer done at t=" << engine2.now() << " s\n";
  return 0;
}
