// Control-plane crash-restart sweep over the scenario catalog
// (scenarios.hpp): chaos-qr, integrity-qr, thrash-governed, tenant-overload
// and whatif-forked. DESIGN.md, "Snapshot/restore invariants".
//
// Each scenario is first profiled uncrashed to learn its event count and
// journal/frontend/fork transition counts. The sweep then kills the whole
// control plane — engine, grid, services, manager, every coroutine frame —
// at every ActionJournal state transition, at sampled frontend and fork
// transitions, and at sampled event boundaries. Only the latest periodic
// snapshot (every 90 s, plus one at t=0) survives the kill. A fresh control
// plane restores from that image through bench::restore: decode, journal
// recovery (presumed abort), chaos/load/NWS re-armed from the original
// schedules, surviving apps relaunched from their checkpoint ledgers.
//
// Two requirements per crash point:
//   (a) completion — the restored run finishes the scenario;
//   (b) restore determinism — its replay digest (pop stream + outcome fold)
//       is bit-identical to a second restore of the same image bytes. Any
//       state that leaks around the snapshot (an un-reset flag, a doubled
//       daemon, pointer-order iteration in encode) diverges here.
//
// What this does and does not check: the kill point matters only through
// which image was latest, so many points share an image. The full sweep's
// 402 points restore 54 distinct images (8, 7, 7, 19 and 13 per scenario).
// The sweep therefore checks that restore is deterministic for each image
// and that every restored run completes; it does not check recovery at the
// transition itself, whose effects since the last image are lost with the
// control plane. The second restore is cached per image.
//
// Usage: crash_sweep [--quick]
//   full:   every journal transition + 80 sampled event crashes/scenario
//           (16 for whatif-forked) + 24 frontend / 12 fork crashes
//   quick:  every journal transition + 8 sampled event crashes/scenario
//           (4 for whatif-forked) + 6 frontend / 4 fork crashes
// Output: crash_sweep.csv (one row per crash point) and crash_sweep.json
//         (campaign summary), both under the bench output dir.
// Exit:   0 = 100% completion and every digest pair identical.

#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench_cli.hpp"
#include "bench_paths.hpp"
#include "core/snapshot.hpp"
#include "scenarios.hpp"
#include "util/error.hpp"

using namespace grads;

namespace {

constexpr double kSnapshotPeriodSec = 90.0;

struct Profile {
  std::uint64_t totalEvents = 0;
  std::uint64_t journalTransitions = 0;
  std::uint64_t frontendTransitions = 0;
  std::uint64_t forkTransitions = 0;
};

Profile profileScenario(const bench::Scenario& sc) {
  bench::World w;
  bench::build(w, sc.name, sc.seed, true);
  Profile prof;
  if (w.journal) {
    w.journal->setOnTransition(
        [&prof](const reschedule::ActionRecord&) { ++prof.journalTransitions; });
  }
  if (w.meta) {
    w.meta->setOnTransition(
        [&prof](const char*) { ++prof.frontendTransitions; });
  }
  if (w.fork) {
    w.fork->setOnFork([&prof](const char*) { ++prof.forkTransitions; });
  }
  bench::spawnApps(w, false);
  w.eng.run();
  w.eng.rethrowIfFailed();
  GRADS_REQUIRE(bench::scenarioCompleted(w),
                "crash_sweep: uncrashed profile run did not complete");
  prof.totalEvents = w.eng.processedEvents();
  return prof;
}

struct CrashPoint {
  enum class Kind { kJournal, kEvent, kFrontend, kFork };
  Kind kind = Kind::kEvent;
  std::uint64_t index = 0;  ///< transition ordinal / pop ordinal, 1-based
};

const char* kindName(CrashPoint::Kind k) {
  switch (k) {
    case CrashPoint::Kind::kJournal: return "journal";
    case CrashPoint::Kind::kEvent: return "event";
    case CrashPoint::Kind::kFrontend: return "frontend";
    case CrashPoint::Kind::kFork: return "fork";
  }
  return "?";
}

/// Appends `n` crash points of `kind` at evenly spaced ordinals strictly
/// inside [1, total].
void addSampled(std::vector<CrashPoint>& points, CrashPoint::Kind kind,
                std::uint64_t total, int n) {
  for (int i = 0; i < n; ++i) {
    const std::uint64_t target =
        1 + (total - 1) * static_cast<std::uint64_t>(i + 1) /
                static_cast<std::uint64_t>(n + 1);
    points.push_back({kind, target});
  }
}

struct CrashResult {
  bool crashed = false;
  double crashTime = 0.0;
  double snapshotTime = 0.0;
  std::vector<std::uint8_t> image;  ///< latest snapshot at the crash
};

/// Counts one kind of boundary and stops the engine at the target ordinal.
/// stop() lands inside the hook, so the engine halts the instant the
/// enclosing event returns — for a fork boundary, mid-speculation, with the
/// live journal holding whatever the in-flight decision had opened.
struct Stopper {
  sim::Engine* eng = nullptr;
  std::uint64_t target = 0;
  std::uint64_t seen = 0;

  void hit() {
    if (++seen == target) eng->stop();
  }
  bool fired() const { return seen >= target; }
};

/// Runs the scenario fresh and kills the whole control plane at the crash
/// point: engine stopped, then every object — frames included — destroyed
/// when the World goes out of scope. All that survives is the latest
/// snapshot's bytes, exactly like a process crash with an on-disk image.
CrashResult runCrashed(const bench::Scenario& sc, const CrashPoint& point) {
  bench::World w;
  bench::build(w, sc.name, sc.seed, true);
  CrashResult res;
  const auto sink = [&res](core::SnapshotImage img) {
    res.snapshotTime = img.simTime;
    res.image = img.serialize();
  };
  Stopper stop{&w.eng, point.index};
  const auto hit = [&stop](const auto&) { stop.hit(); };
  switch (point.kind) {
    case CrashPoint::Kind::kEvent:
      w.eng.setPopObserver(
          [](void* ctx, sim::Time, std::uint64_t, bool) {
            static_cast<Stopper*>(ctx)->hit();
          },
          &stop);
      break;
    case CrashPoint::Kind::kJournal: w.journal->setOnTransition(hit); break;
    case CrashPoint::Kind::kFrontend: w.meta->setOnTransition(hit); break;
    case CrashPoint::Kind::kFork: w.fork->setOnFork(hit); break;
  }
  bench::spawnApps(w, false);
  w.mgr->armSnapshotDaemon(kSnapshotPeriodSec, sink);
  sink(w.mgr->snapshotNow());  // t=0 baseline: a crash before the first
                               // periodic capture restores from the start
  w.eng.run();
  w.eng.rethrowIfFailed();
  res.crashed = stop.fired();
  if (res.crashed) res.crashTime = w.eng.now();
  return res;
}

struct RestoreOutcome {
  bool completed = false;
  std::uint64_t digest = 0;
};

/// Rebuilds a fresh control plane, restores it from the image bytes, and
/// runs the scenario to completion under the replay-digest oracle.
RestoreOutcome runRestored(const bench::Scenario& sc,
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
  std::string scenario;
  const char* kind;
  std::uint64_t index;
  double crashTime;
  double snapshotTime;
  bool completed;
  std::uint64_t digestRestored;
  std::uint64_t digestReference;
  bool match;
};

}  // namespace

int main(int argc, char** argv) {
  grads::bench::CliOptions cli;
  if (!grads::bench::parseCli(argc, argv, cli, "crash_sweep [--quick]")) {
    return 2;
  }
  const bool quick = cli.quick;

  std::vector<Row> rows;
  std::set<std::uint64_t> restoredDigests;
  std::size_t distinctImages = 0;
  int failures = 0;
  std::cout << "crash-restart sweep: kill the control plane, restore from "
               "the latest snapshot,\nrequire completion + a replay digest "
               "bit-identical to a second restore of the same image.\n\n";

  for (const bench::Scenario& sc : bench::kScenarios) {
    const Profile prof = profileScenario(sc);
    std::vector<CrashPoint> points;
    for (std::uint64_t k = 1; k <= prof.journalTransitions; ++k) {
      points.push_back({CrashPoint::Kind::kJournal, k});
    }
    // The whatif scenario replays every crash point's restore under full
    // speculation (each governed violation re-runs its fork ensemble), so
    // its event sampling is thinner to keep the sweep tractable.
    const bool forks = prof.forkTransitions > 0;
    addSampled(points, CrashPoint::Kind::kEvent, prof.totalEvents,
               forks ? (quick ? 4 : 16) : (quick ? 8 : 80));
    // Frontend transitions (tenant only) land crashes exactly at admit /
    // shed / dispatch / preempt / park boundaries; fork transitions
    // (whatif only) at decision / fork-start / fork-done / verdict.
    if (prof.frontendTransitions > 0) {
      addSampled(points, CrashPoint::Kind::kFrontend,
                 prof.frontendTransitions, quick ? 6 : 24);
    }
    if (forks) {
      addSampled(points, CrashPoint::Kind::kFork, prof.forkTransitions,
                 quick ? 4 : 12);
    }
    std::cout << sc.name << ": " << prof.totalEvents << " events, "
              << prof.journalTransitions << " journal transitions, "
              << prof.frontendTransitions << " frontend transitions, "
              << prof.forkTransitions << " fork transitions, "
              << points.size() << " crash points";

    // Reference arms cached per image bytes: crash points sharing a
    // snapshot share one second restore.
    std::map<std::vector<std::uint8_t>, RestoreOutcome> refCache;
    for (const CrashPoint& point : points) {
      const CrashResult cr = runCrashed(sc, point);
      if (!cr.crashed) {
        // The run drained before the crash ordinal (ruled out by the
        // profile run) — a sweep bug, not a pass.
        ++failures;
        rows.push_back({sc.name, kindName(point.kind), point.index, 0.0, 0.0,
                        false, 0, 0, false});
        continue;
      }
      auto ref = refCache.find(cr.image);
      if (ref == refCache.end()) {
        ref = refCache.emplace(cr.image, runRestored(sc, cr.image)).first;
      }
      const RestoreOutcome restored = runRestored(sc, cr.image);
      const bool match = restored.digest == ref->second.digest;
      const bool ok = match && restored.completed && ref->second.completed;
      if (!ok) ++failures;
      restoredDigests.insert(restored.digest);
      rows.push_back({sc.name, kindName(point.kind), point.index,
                      cr.crashTime, cr.snapshotTime, restored.completed,
                      restored.digest, ref->second.digest, match});
    }
    distinctImages += refCache.size();
    std::cout << ", " << refCache.size() << " distinct images\n";
  }

  const std::string csvPath = bench::outputPath("crash_sweep.csv");
  std::ofstream csv(csvPath);
  csv << "scenario,crash_kind,crash_index,crash_time_s,snapshot_time_s,"
         "completed,digest_restored,digest_reference,match\n";
  for (const Row& r : rows) {
    csv << r.scenario << ',' << r.kind << ',' << r.index << ','
        << r.crashTime << ',' << r.snapshotTime << ','
        << (r.completed ? 1 : 0) << ',' << std::hex << r.digestRestored
        << ',' << r.digestReference << std::dec << ','
        << (r.match ? 1 : 0) << '\n';
  }
  csv.close();

  const std::string jsonPath = bench::outputPath("crash_sweep.json");
  std::ofstream json(jsonPath);
  json << "{\n  \"mode\": \"" << (quick ? "quick" : "full") << "\",\n"
       << "  \"crash_points\": " << rows.size() << ",\n"
       << "  \"distinct_images\": " << distinctImages << ",\n"
       << "  \"distinct_restored_digests\": " << restoredDigests.size()
       << ",\n"
       << "  \"failures\": " << failures << ",\n  \"scenarios\": [";
  for (std::size_t i = 0; i < std::size(bench::kScenarios); ++i) {
    json << (i != 0 ? ", " : "") << '"' << bench::kScenarios[i].name << '"';
  }
  json << "]\n}\n";
  json.close();

  std::cout << "\n" << rows.size() << " crash points swept, "
            << distinctImages << " distinct images, "
            << restoredDigests.size() << " distinct restored digests, "
            << failures << " failure(s); results in " << csvPath << "\n";
  if (failures > 0) {
    for (const Row& r : rows) {
      if (r.match && r.completed) continue;
      std::cout << "  FAIL " << r.scenario << " " << r.kind << " #"
                << r.index << " t=" << r.crashTime
                << (r.completed ? "" : " [incomplete]")
                << (r.match ? "" : " [digest diverged]") << "\n";
    }
    return 1;
  }
  std::cout << "every crash point restored, completed, and replayed "
               "bit-identically to a second restore of its image.\n";
  return 0;
}
