// Integrity campaign — checkpoint corruption and zombie writers, raw vs
// mitigated.
//
// QR runs under seeded campaigns that fail a compute node mid-flight (to
// force a checkpoint restore) and corrupt checkpoint objects on the stable
// and replica depots (bit-rot, torn writes, stale deliveries). Both arms get
// identical availability machinery (retries, replica copies, generation
// fallback) so the contrast isolates the integrity layer:
//
//   raw        — no manifest verification, no depot write fence, no scrubber.
//                Restores trust whatever the depot serves; corrupt reads are
//                counted (ground truth) but never avoided.
//   mitigated  — checksummed manifests verified on restore, incarnation-epoch
//                fencing at the depot, and a background scrubber re-
//                replicating corrupt copies from the surviving one.
//
// Expected shape: the raw arm silently restores corrupt data (wrong_restores
// > 0 across the seed set); the mitigated arm never does (wrong_restores ==
// 0), paying for it with replica fallbacks and scrub repairs.
//
// Usage: integrity_campaign   (seeds 11, 22, 33, 44 and 55)
// Exit:  1 if a run does not reproduce or the expected shape is violated.

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_cli.hpp"
#include "bench_paths.hpp"
#include "grid/testbeds.hpp"
#include "reschedule/srs.hpp"
#include "scenarios.hpp"
#include "services/ibp.hpp"
#include "util/table.hpp"

using namespace grads;

namespace {

struct RunOutcome {
  bool completed = false;
  double seconds = 0.0;
  std::string error;
  int corruptionsApplied = 0;
  int wrongRestores = 0;      ///< incarnations restored from corrupt data
  int corruptSliceReads = 0;  ///< slices delivered that defy the manifest
  int integrityRejects = 0;   ///< corrupt copies skipped for the replica
  int scrubRepairs = 0;
  int incarnations = 0;
};

/// The catalog's integrity-qr world (QR on UIUC with UTK marked down, one
/// mid-run fail-stop forcing a checkpoint restore, corruption of both
/// depots). Both arms keep identical availability machinery — retries,
/// replica copies, generation fallback — so the contrast is integrity-only.
RunOutcome runQr(std::uint64_t seed, bool corrupt, bool mitigate) {
  bench::World w;
  bench::build(w, "integrity-qr", seed, /*armDaemons=*/false);
  if (!corrupt) w.schedule.clear();  // fault-free baseline: chaos unarmed
  if (!mitigate) {
    w.mopts.verifyCheckpoints = false;
    w.mopts.fenceWrites = false;
    w.mopts.scrubPeriodSec = 0.0;
  }
  bench::startDaemons(w);
  bench::spawnApps(w, /*restored=*/false);
  const core::RunBreakdown& bd = w.bd;
  RunOutcome out;
  try {
    w.eng.run();
    w.eng.rethrowIfFailed();
    if (bd.totalSeconds > 0.0) {
      out.completed = true;
      out.seconds = bd.totalSeconds;
    } else {
      out.error = "run stalled (manager never completed)";
      out.seconds = w.eng.now();
    }
  } catch (const std::exception& e) {
    out.error = e.what();
    out.seconds = w.eng.now();
  }
  const auto& c = w.chaos->counters();
  out.corruptionsApplied = c.bitFlips + c.tornWrites + c.staleDeliveries;
  out.wrongRestores = bd.corruptRestores;
  out.corruptSliceReads = bd.corruptSliceReads;
  out.integrityRejects = bd.integrityRejects;
  out.scrubRepairs = bd.scrubRepairs;
  out.incarnations = bd.incarnations;
  return out;
}

// ---------------------------------------------------------------------------
// Zombie demo: an incarnation falsely declared dead keeps writing. With the
// depot fence raised (mitigated) every one of its writes is rejected; without
// it (raw) the depot happily accepts them.
// ---------------------------------------------------------------------------

void zombieDemo(bool fence) {
  sim::Engine eng;
  grid::Grid g(eng);
  const auto tb = grid::buildQrTestbed(g);
  services::Ibp ibp(g);
  reschedule::Rss rss(eng, "qr");
  constexpr double kTotal = 8.0 * 1024.0 * 1024.0;

  const auto writeAll = [&](reschedule::Srs& srs) {
    for (int r = 0; r < 2; ++r) {
      eng.spawn([](reschedule::Srs& s, int rank) -> sim::Task {
        co_await s.writeCheckpoint(rank);
      }(srs, r));
    }
    eng.run();
  };

  vmpi::World w1(g, {tb.uiucNodes[0], tb.uiucNodes[1]});
  rss.beginIncarnation(2);
  reschedule::Srs zombie(ibp, rss, w1);  // created in incarnation 1...
  zombie.setStableDepot(tb.uiucNodes[7]);
  zombie.setReplicaDepot(tb.uiucNodes[6]);
  zombie.registerArray("A", kTotal);
  writeAll(zombie);
  rss.storeIteration(7);

  vmpi::World w2(g, {tb.uiucNodes[2], tb.uiucNodes[3]});
  rss.beginIncarnation(2);  // ...which the manager has since superseded
  if (fence) ibp.setFence("qr", rss.incarnation());
  reschedule::Srs live(ibp, rss, w2);
  live.setStableDepot(tb.uiucNodes[7]);
  live.setReplicaDepot(tb.uiucNodes[6]);
  live.registerArray("A", kTotal);
  writeAll(live);
  rss.storeIteration(20);

  writeAll(zombie);         // the zombie fires again, stale epoch 1
  zombie.storeIteration(5); // and tries to publish over iteration 20

  // 2 ranks × 1 array × 2 copies = 4 put attempts; unfenced, the depot
  // accepts all of them (overwriting generation-1 objects the live
  // incarnation may still restore from).
  const int attempts = 4;
  std::cout << "  fence " << (fence ? "ON " : "off") << ": zombie depot "
            << "writes accepted=" << (attempts - zombie.staleWriteRejects())
            << " rejected=" << zombie.staleWriteRejects()
            << ", ledger iteration=" << rss.storedIteration()
            << " (zombie publishes dropped=" << rss.staleEpochRejects()
            << ")\n";
}

}  // namespace

int main(int argc, char**) {
  if (!bench::noArguments(argc, "integrity_campaign")) return 2;
  std::ofstream csv =
      bench::openOutput(bench::outputPath("integrity_campaign.csv"));
  const std::vector<std::uint64_t> seeds = {11, 22, 33, 44, 55};

  // Determinism: the same seed must reproduce the identical run.
  {
    const RunOutcome a = runQr(seeds[0], true, true);
    const RunOutcome b = runQr(seeds[0], true, true);
    if (a.completed != b.completed || a.seconds != b.seconds ||
        a.integrityRejects != b.integrityRejects) {
      std::cerr << "NON-DETERMINISTIC campaign: " << a.seconds
                << " != " << b.seconds << "\n";
      return 1;
    }
    std::cout << "determinism check: seed " << seeds[0]
              << " reproduces exactly (t=" << a.seconds << " s)\n\n";
  }

  util::Table table({"arm", "campaigns", "corruptions", "wrong_restores",
                     "corrupt_slices", "rejected_copies", "scrub_repairs",
                     "completed", "completion_pct", "mean_slowdown"});
  int rawWrong = 0;
  int mitigatedWrong = 0;
  for (const bool mitigate : {false, true}) {
    const RunOutcome baseline = runQr(seeds.front(), false, mitigate);
    int completed = 0;
    int corruptions = 0;
    int wrong = 0;
    int slices = 0;
    int rejects = 0;
    int repairs = 0;
    double slowdownSum = 0.0;
    for (const auto seed : seeds) {
      const RunOutcome o = runQr(seed, true, mitigate);
      corruptions += o.corruptionsApplied;
      wrong += o.wrongRestores;
      slices += o.corruptSliceReads;
      rejects += o.integrityRejects;
      repairs += o.scrubRepairs;
      if (o.completed) {
        ++completed;
        slowdownSum += o.seconds / baseline.seconds;
      } else {
        std::cout << "  [" << (mitigate ? "mitigated" : "raw") << " seed "
                  << seed << "] lost: " << o.error << "\n";
      }
    }
    (mitigate ? mitigatedWrong : rawWrong) = wrong;
    table.addRow({mitigate ? "mitigated" : "raw",
                  static_cast<std::int64_t>(seeds.size()),
                  static_cast<std::int64_t>(corruptions),
                  static_cast<std::int64_t>(wrong),
                  static_cast<std::int64_t>(slices),
                  static_cast<std::int64_t>(rejects),
                  static_cast<std::int64_t>(repairs),
                  static_cast<std::int64_t>(completed),
                  100.0 * completed / static_cast<double>(seeds.size()),
                  completed > 0 ? slowdownSum / completed : 0.0});
  }
  table.print(std::cout,
              "Integrity campaigns — checkpoint corruption under node "
              "failures, raw vs mitigated (identical retries/replicas)");
  table.writeCsv(csv);

  std::cout << "\nZombie incarnation fencing (2-rank checkpoint, stale "
               "epoch):\n";
  zombieDemo(false);
  zombieDemo(true);

  const bool shapeHolds = mitigatedWrong == 0 && rawWrong > 0;
  std::cout << "\nExpected shape " << (shapeHolds ? "HOLDS" : "VIOLATED")
            << ": raw wrong_restores=" << rawWrong
            << " (silent corruption reaches the application), mitigated "
               "wrong_restores="
            << mitigatedWrong
            << " (manifest verification routes every corrupt copy to the "
               "replica, an older generation, or scratch).\n";
  return shapeHolds ? 0 : 1;
}
