// The paper's §4.1 story end-to-end: a ScaLAPACK-style QR factorization is
// launched through the GrADS application manager; 200 s in, an artificial
// load degrades a UTK node; the contract monitor detects the violation, the
// rescheduler judges migration profitable, the app checkpoints through SRS,
// and a new incarnation restarts on the UIUC cluster.
//
//   $ ./examples/qr_migration [N]

#include <cstdlib>
#include <iostream>

#include "apps/qr.hpp"
#include "core/app_manager.hpp"
#include "grid/load.hpp"
#include "grid/testbeds.hpp"
#include "autopilot/viewer.hpp"
#include "reschedule/rescheduler.hpp"
#include "services/gis.hpp"
#include "services/ibp.hpp"
#include "services/nws.hpp"
#include "util/log.hpp"

using namespace grads;

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 10000;

  sim::Engine engine;
  log::config().level = log::Level::kInfo;  // narrate the migration

  grid::Grid grid(engine);
  const auto tb = grid::buildQrTestbed(grid);

  services::Gis gis(grid);
  gis.installEverywhere(services::software::kLocalBinder);
  gis.installEverywhere(services::software::kScalapack);
  gis.installEverywhere(services::software::kSrsLibrary);
  gis.installEverywhere(services::software::kAutopilotSensors);
  services::Nws nws(engine, grid, 10.0, 0.01);
  nws.start();
  services::Ibp ibp(grid);
  autopilot::AutopilotManager autopilot(engine);

  // Artificial load on one UTK node, 200 s into the run.
  grid::applyLoadTrace(engine, grid.node(tb.utkNodes[0]),
                       grid::LoadTrace::stepAt(200.0, 3.0));

  apps::QrConfig cfg;
  cfg.n = n;
  const core::Cop cop = apps::makeQrCop(grid, cfg);

  reschedule::StopRestartRescheduler rescheduler(
      gis, &nws, reschedule::ReschedulerOptions{});
  core::AppManager manager(grid, gis, &nws, ibp, autopilot);
  autopilot::ContractViewer viewer(engine);

  core::ManagerOptions mopts;
  mopts.viewer = &viewer;
  core::RunBreakdown bd;
  engine.spawn(manager.run(cop, &rescheduler, mopts, &bd), "app-manager");
  engine.run();

  std::cout << "\n=== run summary (N=" << n << ") ===\n"
            << "incarnations:        " << bd.incarnations << "\n"
            << "total time:          " << bd.totalSeconds << " s\n"
            << "resource selection:  " << bd.sumSegment(bd.resourceSelection)
            << " s\n"
            << "performance modeling:" << bd.sumSegment(bd.perfModeling)
            << " s\n"
            << "grid overhead:       " << bd.sumSegment(bd.gridOverhead)
            << " s\n"
            << "application start:   " << bd.sumSegment(bd.appStart) << " s\n"
            << "application compute: " << bd.sumSegment(bd.appDuration)
            << " s\n"
            << "checkpoint write:    " << bd.sumSegment(bd.checkpointWrite)
            << " s\n"
            << "checkpoint read:     " << bd.sumSegment(bd.checkpointRead)
            << " s\n";
  for (std::size_t i = 0; i < bd.mappings.size(); ++i) {
    std::cout << "incarnation " << i + 1 << " ran on "
              << grid.cluster(grid.node(bd.mappings[i][0]).cluster()).name
              << " (" << bd.mappings[i].size() << " ranks)\n";
  }

  std::cout << "\n=== contract viewer ===\n";
  viewer.renderTimeline(std::cout, cop.name, 30);
  return 0;
}
