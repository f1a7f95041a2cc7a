// Opportunistic rescheduling (paper §4.1.1, studied in depth in [21]): the
// rescheduler "periodically checks for a GrADS application that has
// recently completed. If it finds one, the rescheduler determines if
// another application can obtain performance benefits if it is migrated to
// the newly freed resources."
//
// Scenario: app B (a QR job) occupies the fast UTK cluster; app A (a larger
// QR job) must settle for UIUC. When B completes, the opportunistic
// rescheduler migrates A onto the freed UTK nodes. We compare A's total
// time with opportunism on and off.

#include <fstream>
#include <iostream>

#include "bench_paths.hpp"
#include "apps/qr.hpp"
#include "core/app_manager.hpp"
#include "grid/testbeds.hpp"
#include "microgrid/dml.hpp"
#include "reschedule/rescheduler.hpp"
#include "services/gis.hpp"
#include "services/ibp.hpp"
#include "services/nws.hpp"
#include "util/table.hpp"

using namespace grads;

namespace {

struct Outcome {
  double appASeconds = 0.0;
  int appAIncarnations = 0;
};

// Two same-campus clusters joined by a fast (12 MB/s) link, so moving a
// checkpoint is cheap relative to the compute-rate gap — the regime where
// [21] shows opportunistic rescheduling paying off.
const char* kTestbedDml = R"(
cluster fast CAMPUS gigabit
  node 1500 1 1.0 0.30 x8
end
cluster slow CAMPUS myrinet
  node 450 1 1.0 0.22 x8
end
wan fast slow 0.002 12582912
)";

Outcome runScenario(bool opportunistic) {
  sim::Engine eng;
  grid::Grid g(eng);
  microgrid::instantiate(g, microgrid::parseDml(kTestbedDml));
  services::Gis gis(g);
  gis.installEverywhere(services::software::kLocalBinder);
  gis.installEverywhere(services::software::kScalapack);
  gis.installEverywhere(services::software::kSrsLibrary);
  gis.installEverywhere(services::software::kAutopilotSensors);
  services::Nws nws(eng, g, 10.0, 0.01, 17);
  nws.start();
  services::Ibp ibp(g);
  autopilot::AutopilotManager autopilot(eng);

  reschedule::ReschedulerOptions ropts;
  ropts.opportunistic = opportunistic;
  // Same-campus migration: the experimentally-determined worst case is far
  // below the inter-campus 900 s.
  ropts.worstCaseMigrationSec = 300.0;
  reschedule::StopRestartRescheduler rescheduler(gis, &nws, ropts);
  core::AppManager manager(g, gis, &nws, ibp, autopilot);
  core::ManagerOptions mopts;
  mopts.reserveNodes = true;  // exclusive space-sharing between the two apps

  // App B: a small QR that grabs the fast cluster first.
  apps::QrConfig cfgB;
  cfgB.n = 5000;
  core::Cop copB = apps::makeQrCop(g, cfgB);
  copB.name = "qr-B";
  core::RunBreakdown bdB;
  eng.spawn(manager.run(copB, &rescheduler, mopts, &bdB), "app-B");

  // App A: a big QR arriving shortly after; the fast cluster is reserved by
  // B, so its mapper settles for the slow cluster.
  apps::QrConfig cfgA;
  cfgA.n = 9000;
  core::Cop copA = apps::makeQrCop(g, cfgA);
  copA.name = "qr-A";
  core::RunBreakdown bdA;
  // copA must outlive the coroutine (AppManager::run holds a reference), so
  // capture it by reference — it lives until eng.run() returns.
  eng.schedule(30.0, [&manager, &rescheduler, &copA, &bdA, &eng, mopts] {
    eng.spawn(manager.run(copA, &rescheduler, mopts, &bdA), "app-A");
  });

  eng.run();
  return Outcome{bdA.totalSeconds, bdA.incarnations};
}

}  // namespace

int main() {
  std::ofstream csv = bench::openOutput(bench::outputPath("opportunistic.csv"));
  const auto off = runScenario(false);
  const auto on = runScenario(true);

  util::Table table(
      {"opportunistic", "appA_total_s", "appA_incarnations", "speedup"});
  table.addRow({std::string("off"), off.appASeconds,
                static_cast<std::int64_t>(off.appAIncarnations), 1.0});
  table.addRow({std::string("on"), on.appASeconds,
                static_cast<std::int64_t>(on.appAIncarnations),
                off.appASeconds / on.appASeconds});
  table.print(std::cout,
              "Opportunistic rescheduling — app A migrates onto resources "
              "freed by app B's completion");
  table.writeCsv(csv);

  std::cout << "\nExpected shape: with opportunism on, app A restarts once "
               "(2 incarnations) onto the freed UTK cluster and finishes "
               "sooner than the stay-on-UIUC run.\n";
  return 0;
}
