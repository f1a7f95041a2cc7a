// Fault-tolerance ablation — the direction the paper's conclusions point at
// ("new capabilities, such as fault tolerance", §5, carried into VGrADS):
// QR with periodic SRS checkpoints to a stable depot, under a fail-stop
// node failure. Sweeps the checkpoint interval to expose the classic
// tradeoff: frequent checkpoints cost overhead when nothing fails but bound
// the lost work when something does.

#include <fstream>
#include <iostream>

#include "bench_paths.hpp"
#include "apps/qr.hpp"
#include "core/app_manager.hpp"
#include "grid/testbeds.hpp"
#include "reschedule/failure.hpp"
#include "services/ibp.hpp"
#include "services/nws.hpp"
#include "util/table.hpp"

using namespace grads;

namespace {

double runScenario(std::size_t ckptEveryPanels, bool injectFailure,
                   int* incarnations) {
  sim::Engine eng;
  grid::Grid g(eng);
  const auto tb = grid::buildQrTestbed(g);
  services::Gis gis(g);
  gis.installEverywhere(services::software::kLocalBinder);
  gis.installEverywhere(services::software::kScalapack);
  gis.installEverywhere(services::software::kSrsLibrary);
  gis.installEverywhere(services::software::kAutopilotSensors);
  // Confine to UIUC: checkpoints/restores stay on the Myrinet LAN (on this
  // testbed a cross-WAN restore costs as much as recomputing from scratch).
  for (const auto node : tb.utkNodes) gis.setNodeUp(node, false);
  services::Nws nws(eng, g, 10.0, 0.0, 9);
  nws.start();
  services::Ibp ibp(g);
  autopilot::AutopilotManager autopilot(eng);

  reschedule::FailureInjector injector(eng, gis);
  if (injectFailure) injector.scheduleNodeFailure(tb.uiucNodes[2], 250.0, 5.0);

  apps::QrConfig cfg;
  cfg.n = 6000;
  cfg.checkpointEveryPanels = ckptEveryPanels;
  const core::Cop cop = apps::makeQrCop(g, cfg);
  core::AppManager mgr(g, gis, &nws, ibp, autopilot);
  core::ManagerOptions mopts;
  mopts.monitorContract = false;
  mopts.stableDepot = tb.uiucNodes[7];
  mopts.failures = &injector;

  core::RunBreakdown bd;
  eng.spawn(mgr.run(cop, nullptr, mopts, &bd), "qr");
  eng.run();
  if (incarnations != nullptr) *incarnations = bd.incarnations;
  return bd.totalSeconds;
}

}  // namespace

int main() {
  std::ofstream csv =
      bench::openOutput(bench::outputPath("fault_tolerance.csv"));
  util::Table table({"ckpt_every_panels", "no_failure_s", "with_failure_s",
                     "failure_overhead_s", "incarnations"});
  for (const std::size_t every : {std::size_t{0}, std::size_t{32},
                                  std::size_t{16}, std::size_t{8},
                                  std::size_t{4}}) {
    int inc = 0;
    const double clean = runScenario(every, false, nullptr);
    const double failed = runScenario(every, true, &inc);
    table.addRow({static_cast<std::int64_t>(every), clean, failed,
                  failed - clean, static_cast<std::int64_t>(inc)});
  }
  table.print(std::cout,
              "Fault tolerance — QR (N=6000) with periodic SRS checkpoints, "
              "fail-stop at t=250 s (0 = checkpointing off)");
  table.writeCsv(csv);

  std::cout << "\nExpected shape: without checkpoints a failure restarts the"
               " whole factorization; as the interval shrinks the failure"
               " penalty drops but the clean-run overhead grows — the"
               " classic optimal-checkpoint-interval tradeoff.\n";
  return 0;
}
