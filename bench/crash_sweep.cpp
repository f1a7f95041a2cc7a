// Control-plane crash-restart sweep over the scenario catalog
// (scenarios.hpp): chaos-qr, integrity-qr, thrash-governed, tenant-overload
// and whatif-forked. DESIGN.md, "Snapshot/restore invariants".
//
// A kill destroys the whole control plane — engine, grid, services,
// manager, every coroutine frame — and only the latest periodic snapshot
// (one at t=0, then every 90 s) survives it. A kill therefore matters only
// through the image it leaves behind, so the sweep visits recovery states,
// one per image the scenario writes, rather than kill points.
//
// Per scenario, one uncrashed recording run (bench::record) captures every
// image and must complete. Then, for each image i:
//   1. a fresh run is killed right after its i-th capture: the snapshot
//      sink stops the engine and the world is destroyed;
//   2. the killed run's bytes must equal the recording's image i;
//   3. two fresh control planes restore those bytes through bench::restore
//      (decode, journal recovery by presumed abort, chaos/load/NWS re-armed
//      from the original schedules, surviving apps relaunched from their
//      checkpoint ledgers) and run to the end. Both must complete, with
//      bit-identical replay digests (pop stream + outcome fold): any state
//      that leaks around the snapshot (an un-reset flag, a doubled daemon,
//      pointer-order iteration in encode) diverges here.
// Whatever happened between a kill and the image before it dies with the
// control plane, so recovery at the kill itself is not checked.
//
// Usage:  crash_sweep (no options)
// Output: crash_sweep.csv under the bench output dir, one row per state.
// Exit:   0 = every state reproduced, restored, completed and replayed
//         identically.

#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_cli.hpp"
#include "bench_paths.hpp"
#include "scenarios.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

using namespace grads;

namespace {

struct Restored {
  bool completed = false;
  std::uint64_t digest = 0;
};

/// Rebuilds a fresh control plane, restores it from the image bytes, and
/// runs the scenario to completion under the replay-digest oracle.
Restored runRestored(const bench::Scenario& sc,
                     const std::vector<std::uint8_t>& bytes) {
  bench::World w;
  bench::build(w, sc.name, sc.seed, false);
  bench::PopObserver obs;
  obs.attach(w.eng);
  bench::restore(w, bytes);
  w.eng.run();
  w.eng.rethrowIfFailed();
  bench::foldOutcome(obs.ds, w);
  return {bench::scenarioCompleted(w), obs.ds.digest()};
}

struct Row {
  const char* scenario;
  std::size_t state;
  double snapshotTime;
  std::uint64_t imageDigest;
  bool reproduced;  ///< the killed run wrote the recording's bytes
  Restored first;
  Restored second;

  bool ok() const {
    return reproduced && first.completed && second.completed &&
           first.digest == second.digest;
  }
};

}  // namespace

int main(int argc, char**) {
  if (!bench::noArguments(argc, "crash_sweep")) return 2;
  const std::string csvPath = bench::outputPath("crash_sweep.csv");
  std::ofstream csv = bench::openOutput(csvPath);
  std::cout << "crash-restart sweep: for every snapshot image, kill a fresh "
               "run right after it is taken,\nrequire the same bytes, and "
               "restore them twice: both restores must complete with\n"
               "bit-identical replay digests.\n\n";

  std::vector<Row> rows;
  int failures = 0;
  for (const bench::Scenario& sc : bench::kScenarios) {
    const bench::Recording recording = bench::record(sc);
    GRADS_REQUIRE(recording.completed,
                  "crash_sweep: uncrashed recording run did not complete");
    int scenarioFailures = 0;
    for (std::size_t i = 0; i < recording.images.size(); ++i) {
      const bench::Recording::Image& image = recording.images[i];
      const bench::Recording killed = bench::record(sc, i);
      const bool reproduced = killed.images.size() == 1 &&
                              killed.images[0].bytes == image.bytes;
      const Row row{sc.name,
                    i,
                    image.simTime,
                    util::fnv1a64(image.bytes.data(), image.bytes.size()),
                    reproduced,
                    runRestored(sc, image.bytes),
                    runRestored(sc, image.bytes)};
      if (!row.ok()) ++scenarioFailures;
      rows.push_back(row);
    }
    failures += scenarioFailures;
    std::cout << sc.name << ": " << recording.images.size()
              << " recovery states (t = 0 .. "
              << recording.images.back().simTime << " s), "
              << scenarioFailures << " failure(s)\n";
  }

  csv << "scenario,state,snapshot_time_s,image_digest,reproduced,completed,"
         "digest_first,digest_second,match\n";
  for (const Row& r : rows) {
    csv << r.scenario << ',' << r.state << ',' << r.snapshotTime << ','
        << std::hex << r.imageDigest << std::dec << ','
        << (r.reproduced ? 1 : 0) << ','
        << (r.first.completed && r.second.completed ? 1 : 0) << ','
        << std::hex << r.first.digest << ',' << r.second.digest << std::dec
        << ',' << (r.first.digest == r.second.digest ? 1 : 0) << '\n';
  }
  csv.close();

  std::cout << "\n" << rows.size() << " recovery states swept, " << failures
            << " failure(s); results in " << csvPath << "\n";
  if (failures > 0) {
    for (const Row& r : rows) {
      if (r.ok()) continue;
      std::cout << "  FAIL " << r.scenario << " state " << r.state
                << " t=" << r.snapshotTime
                << (r.reproduced ? "" : " [killed run wrote other bytes]")
                << (r.first.completed && r.second.completed ? ""
                                                            : " [incomplete]")
                << (r.first.digest == r.second.digest ? ""
                                                      : " [digest diverged]")
                << "\n";
    }
    return 1;
  }
  std::cout << "every state reproduced, restored, completed, and replayed "
               "bit-identically on its second restore.\n";
  return 0;
}
