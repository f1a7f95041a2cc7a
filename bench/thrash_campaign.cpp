// Thrash campaign — transactional rescheduling under flapping load and
// mid-action faults.
//
// Part A (anti-thrash): a QR factorization runs on a symmetric two-cluster
// testbed while an antiphase square-wave background load alternates between
// the clusters — whichever cluster hosts the application becomes the loaded
// one a half-period later. Ungoverned, the contract monitor confirms a
// violation every half-period and the rescheduler chases the load: migrate,
// migrate back, migrate again, paying the full checkpoint-restore cost each
// way. Governed (quorum + hysteresis + cooldown + concurrency cap), the
// same signals produce at most the first migration and zero oscillations.
//
// Part B (transactional rollback): the classic Figure-3 scenario (load
// lands, rescheduler migrates), except a node is killed between the
// action's prepare (journal open) and its commit point (all ranks restored
// on the target). Every campaign must complete via rollback: the journal
// ends with no open records and the application resumes on its prior
// mapping before retrying.
//
// Usage: thrash_campaign   (seeds 17, 27 and 37)

#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "bench_cli.hpp"
#include "bench_paths.hpp"
#include "scenarios.hpp"
#include "util/table.hpp"

using namespace grads;

namespace {

// ---------------------------------------------------------------------------
// Part A: the catalog's thrash-governed world (antiphase flapping load on a
// symmetric two-cluster testbed); the raw arm leaves the governor unwired.
// ---------------------------------------------------------------------------

struct ThrashOutcome {
  bool completed = false;
  int migrations = 0;
  int oscillations = 0;
  int suppressed = 0;
  int committed = 0;
  int rolledBack = 0;
  double seconds = 0.0;
};

ThrashOutcome runThrash(std::uint64_t seed, bool governed) {
  bench::World w;
  bench::build(w, "thrash-governed", seed, /*armDaemons=*/true);
  if (!governed) w.mopts.governor = nullptr;
  bench::spawnApps(w, /*restored=*/false);
  const core::RunBreakdown& bd = w.bd;
  ThrashOutcome out;
  try {
    w.eng.run();
    w.eng.rethrowIfFailed();
    out.completed = bd.totalSeconds > 0.0;
    out.seconds = bd.totalSeconds;
  } catch (const std::exception& e) {
    std::cout << "  [thrash seed " << seed << "] lost: " << e.what() << "\n";
    out.seconds = w.eng.now();
  }
  out.migrations = bd.incarnations > 0 ? bd.incarnations - 1 : 0;
  out.oscillations = bench::countOscillations(bd.mappings);
  out.suppressed = bd.violationsSuppressed;
  out.committed = bd.actionsCommitted;
  out.rolledBack = bd.actionsRolledBack;
  return out;
}

}  // namespace

int main(int argc, char**) {
  if (!bench::noArguments(argc, "thrash_campaign")) return 2;
  std::ofstream thrashCsv =
      bench::openOutput(bench::outputPath("thrash_campaign.csv"));
  std::ofstream faultsCsv =
      bench::openOutput(bench::outputPath("thrash_faults.csv"));
  const std::uint64_t seeds[] = {17, 27, 37};

  bool ok = true;

  // Determinism: the same seed must reproduce the identical run.
  {
    const ThrashOutcome a = runThrash(seeds[0], false);
    const ThrashOutcome b = runThrash(seeds[0], false);
    if (a.seconds != b.seconds || a.migrations != b.migrations) {
      std::cerr << "NON-DETERMINISTIC campaign: " << a.seconds
                << " != " << b.seconds << "\n";
      return 1;
    }
    std::cout << "determinism check: seed " << seeds[0]
              << " reproduces exactly (t=" << a.seconds << " s, "
              << a.migrations << " migrations)\n\n";
  }

  util::Table thrash({"arm", "seed", "migrations", "oscillations",
                      "suppressed", "committed", "rolled_back", "total_s"});
  for (const auto seed : seeds) {
    for (const bool governed : {false, true}) {
      const ThrashOutcome o = runThrash(seed, governed);
      thrash.addRow({governed ? "governed" : "raw",
                     static_cast<std::int64_t>(seed),
                     static_cast<std::int64_t>(o.migrations),
                     static_cast<std::int64_t>(o.oscillations),
                     static_cast<std::int64_t>(o.suppressed),
                     static_cast<std::int64_t>(o.committed),
                     static_cast<std::int64_t>(o.rolledBack), o.seconds});
      if (!o.completed) {
        std::cout << "VIOLATION: " << (governed ? "governed" : "raw")
                  << " seed " << seed << " did not complete\n";
        ok = false;
      }
      if (governed && o.oscillations != 0) {
        std::cout << "VIOLATION: governed seed " << seed << " oscillated "
                  << o.oscillations << " times (want 0)\n";
        ok = false;
      }
      if (!governed && o.oscillations < 3) {
        std::cout << "VIOLATION: raw seed " << seed << " oscillated only "
                  << o.oscillations << " times (want >= 3: the scenario "
                  << "must actually thrash ungoverned)\n";
        ok = false;
      }
    }
  }
  thrash.print(std::cout,
               "Thrash campaign — antiphase flapping load, governed vs raw "
               "(oscillation = migrate followed by migrate-back)");
  thrash.writeCsv(thrashCsv);

  util::Table faults({"kill", "seed", "completed", "committed", "rolled_back",
                      "open_at_end", "total_s"});
  std::cout << "\n";
  for (const auto seed : seeds) {
    for (const bool killTarget : {true, false}) {
      const bench::MidActionKillRun o =
          bench::runMidActionKill(seed, killTarget);
      faults.addRow({killTarget ? "target" : "source",
                     static_cast<std::int64_t>(seed),
                     std::string(o.completed ? "yes" : "NO"),
                     static_cast<std::int64_t>(o.committed),
                     static_cast<std::int64_t>(o.rolledBack),
                     static_cast<std::int64_t>(o.openAtEnd), o.seconds});
      if (!o.completed) {
        std::cout << "VIOLATION: mid-action " << (killTarget ? "target" : "source")
                  << "-kill seed " << seed << " lost the run: " << o.error
                  << "\n";
        ok = false;
      }
      if (!o.killed) {
        std::cout << "VIOLATION: seed " << seed
                  << " never armed the mid-action kill\n";
        ok = false;
      }
      if (o.rolledBack < 1) {
        std::cout << "VIOLATION: mid-action " << (killTarget ? "target" : "source")
                  << "-kill seed " << seed << " resolved without a rollback\n";
        ok = false;
      }
      if (o.openAtEnd != 0) {
        std::cout << "VIOLATION: seed " << seed << " stranded " << o.openAtEnd
                  << " open action record(s)\n";
        ok = false;
      }
    }
  }
  faults.print(std::cout,
               "Mid-action faults — a node killed between prepare and "
               "commit; every run must complete via rollback");
  faults.writeCsv(faultsCsv);

  std::cout << "\nExpected shape: the raw arm chases the flapping load "
               "(>=3 migrate/migrate-back oscillations), the governed arm "
               "takes at most the first migration and zero oscillations; "
               "every mid-action fault resolves as a rollback, the journal "
               "ends with no open records, and every run completes.\n";
  return ok ? 0 : 1;
}
