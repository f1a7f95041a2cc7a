// Chaos campaign — degraded-mode Grid under seeded fault schedules.
//
// Two applications run under the same randomized fault campaigns (node
// fail-stops with stale GIS windows, IBP depot outages, WAN partitions, NWS
// sensor blackouts), once with the degraded-mode mitigations enabled
// (bounded launch/depot/transfer retries, checkpoint replicas, generation
// fallback) and once with them disabled. Reported per arm: completion rate
// across seeds and mean slowdown relative to the fault-free baseline.
//
// Every campaign is deterministic in its seed: repeating a seed reproduces
// the identical schedule and the identical simulated run. Exits 1 when a
// repeated seed diverges, when a mitigated campaign of either app is lost,
// or when the raw arm of either app loses none.
//
// Usage: chaos_campaign (takes no options)

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_cli.hpp"
#include "bench_paths.hpp"
#include "grid/testbeds.hpp"
#include "scenarios.hpp"
#include "util/table.hpp"
#include "workflow/builders.hpp"
#include "workflow/executor.hpp"

using namespace grads;

namespace {

struct RunOutcome {
  bool completed = false;
  double seconds = 0.0;
  std::string error;
  int faultsApplied = 0;
};

// ---------------------------------------------------------------------------
// Scenario 1: QR via the application manager (checkpoints, restarts).
// ---------------------------------------------------------------------------

/// The catalog's chaos-qr world: QR on UIUC with UTK marked down, one mid-run
/// fail-stop behind a stale GIS window, depot and NWS outages and WAN
/// degrades. The raw arm drops the launch and depot retries and the replica
/// depot.
RunOutcome runQr(std::uint64_t seed, bool faults, bool mitigate) {
  bench::World w;
  bench::build(w, "chaos-qr", seed, /*armDaemons=*/false);
  if (!faults) w.schedule.clear();  // fault-free baseline: chaos unarmed
  if (!mitigate) {
    w.mopts.launchRetry = util::RetryPolicy::none();
    w.mopts.depotRetry = util::RetryPolicy::none();
    w.mopts.replicaDepot = grid::kNoId;
  }
  bench::startDaemons(w);
  bench::spawnApps(w, /*restored=*/false);
  RunOutcome out;
  try {
    w.eng.run();
    w.eng.rethrowIfFailed();
    if (w.bd.totalSeconds > 0.0) {
      out.completed = true;
      out.seconds = w.bd.totalSeconds;
    } else {
      out.error = "run stalled (manager never completed)";
      out.seconds = w.eng.now();
    }
  } catch (const std::exception& e) {
    out.error = e.what();
    out.seconds = w.eng.now();
  }
  out.faultsApplied = w.chaos->counters().total();
  return out;
}

// ---------------------------------------------------------------------------
// Scenario 2: workflow DAG via the executor (launch remaps, link retries).
// ---------------------------------------------------------------------------

RunOutcome runWorkflow(std::uint64_t seed, bool faults, bool mitigate) {
  sim::Engine eng;
  grid::Grid g(eng);
  const auto tb = grid::buildQrTestbed(g);
  services::Gis gis(g);
  services::Nws nws(eng, g, 10.0, 0.0, 9);
  nws.start();
  services::Ibp ibp(g);
  reschedule::FailureInjector injector(eng, gis);
  reschedule::ChaosDriver chaos(eng, g, injector, &nws, &ibp);

  // Partition/degrade targets: the WAN pipe (the middle of a cross-site
  // route's [source LAN, WAN, destination LAN]) and both campus LANs (LAN
  // partitions are what actually hit intra-cluster input transfers).
  const grid::LinkId wan = g.route(tb.utkNodes[0], tb.uiucNodes[0]).links[1];
  const grid::LinkId utkLan =
      g.route(tb.utkNodes[0], tb.utkNodes[1]).links.front();
  const grid::LinkId uiucLan =
      g.route(tb.uiucNodes[0], tb.uiucNodes[1]).links.front();
  if (faults) {
    reschedule::CampaignConfig cc;
    cc.seed = seed;
    cc.horizonSec = 600.0;
    cc.nodeFailures = 2;
    cc.nodeOutageSec = 300.0;
    cc.gisLagSec = 120.0;  // the executor must catch stale targets itself
    cc.candidateNodes = tb.uiucNodes;
    cc.linkPartitions = 3;
    cc.linkOutageSec = 90.0;
    cc.candidateLinks = {wan, utkLan, uiucLan};
    cc.linkDegrades = 1;
    cc.degradeScale = 0.2;
    cc.degradeDurationSec = 200.0;
    cc.nwsOutages = 1;
    cc.nwsOutageSec = 200.0;
    chaos.armAll(reschedule::makeCampaign(cc));
  }

  Rng dagRng(0xDA6ULL);  // same DAG for every arm and seed
  workflow::Dag dag = workflow::makeRandomLayered(6, 5, dagRng);

  workflow::WorkflowExecutor exec(g, gis, &nws);
  workflow::ExecutionOptions opts;
  opts.retrySeed = seed;
  if (mitigate) {
    opts.faultTolerant = true;
    opts.retry.maxAttempts = 6;
    opts.retry.baseDelaySec = 15.0;
    opts.retry.maxDelaySec = 90.0;
  }

  workflow::ExecutionResult res;
  eng.spawn(exec.execute(dag, opts, &res), "workflow");
  RunOutcome out;
  try {
    eng.run();
    eng.rethrowIfFailed();
    // A component that died mid-DAG strands its successors: the simulation
    // drains with the workflow unfinished (makespan never set). That is a
    // lost run, not a completion.
    if (res.makespan > 0.0) {
      out.completed = true;
      out.seconds = res.makespan;
    } else {
      out.error = "workflow stalled (component lost, successors stranded)";
      out.seconds = eng.now();
    }
  } catch (const std::exception& e) {
    out.error = e.what();
    out.seconds = eng.now();
  }
  out.faultsApplied = chaos.counters().total();
  return out;
}

using Scenario = RunOutcome (*)(std::uint64_t, bool, bool);

/// Runs both arms of `app` over `seeds` and adds their rows to `table`.
/// Returns false (after printing why) unless every mitigated campaign
/// completed and the raw arm lost at least one.
bool report(util::Table& table, const char* app, Scenario run,
            const std::vector<std::uint64_t>& seeds) {
  bool shapeHolds = true;
  for (const bool mitigate : {true, false}) {
    // Fault-free baseline of the *same* configuration, so the slowdown
    // isolates the faults' cost (the mitigated arm pays its replica writes
    // in its own baseline too).
    const RunOutcome baseline = run(seeds.front(), false, mitigate);
    int completed = 0;
    int faults = 0;
    double slowdownSum = 0.0;
    for (const auto seed : seeds) {
      const RunOutcome o = run(seed, true, mitigate);
      faults += o.faultsApplied;
      if (o.completed) {
        ++completed;
        slowdownSum += o.seconds / baseline.seconds;
      } else {
        std::cout << "  [" << app << (mitigate ? "/mitigated" : "/raw")
                  << " seed " << seed << "] lost: " << o.error << "\n";
      }
    }
    table.addRow({app, mitigate ? "on" : "off",
                  static_cast<std::int64_t>(seeds.size()),
                  static_cast<std::int64_t>(faults),
                  static_cast<std::int64_t>(completed),
                  100.0 * completed / static_cast<double>(seeds.size()),
                  completed > 0 ? slowdownSum / completed : 0.0,
                  baseline.seconds});
    const int total = static_cast<int>(seeds.size());
    if (mitigate ? completed != total : completed == total) {
      std::cout << "VIOLATION: " << app << (mitigate ? " mitigated" : " raw")
                << " arm completed " << completed << "/" << total
                << " campaigns\n";
      shapeHolds = false;
    }
  }
  return shapeHolds;
}

}  // namespace

int main(int argc, char**) {
  if (!bench::noArguments(argc, "chaos_campaign")) return 2;
  std::ofstream csv =
      bench::openOutput(bench::outputPath("chaos_campaign.csv"));
  const std::vector<std::uint64_t> seeds = {11, 22, 33, 44, 55};

  // Determinism: the same seed must reproduce the identical run.
  {
    const RunOutcome a = runQr(seeds[0], true, true);
    const RunOutcome b = runQr(seeds[0], true, true);
    if (a.completed != b.completed || a.seconds != b.seconds) {
      std::cerr << "NON-DETERMINISTIC campaign: " << a.seconds
                << " != " << b.seconds << "\n";
      return 1;
    }
    std::cout << "determinism check: seed " << seeds[0]
              << " reproduces exactly (t=" << a.seconds << " s)\n\n";
  }

  util::Table table({"app", "mitigations", "campaigns", "faults", "completed",
                     "completion_pct", "mean_slowdown", "baseline_s"});
  const bool qrHolds = report(table, "qr", &runQr, seeds);
  const bool workflowHolds = report(table, "workflow", &runWorkflow, seeds);
  table.print(std::cout,
              "Chaos campaigns — node/link/NWS/depot faults, mitigations "
              "on vs off (slowdown vs fault-free baseline)");
  table.writeCsv(csv);

  std::cout << "\nExpected shape: with mitigations on, every campaign "
               "completes (bounded retries + replicas + generation "
               "fallback absorb the faults at some slowdown); with "
               "mitigations off, stale-GIS launches and partitioned links "
               "kill runs outright and dark depots force scratch "
               "restarts.\n";
  return qrHolds && workflowHolds ? 0 : 1;
}
