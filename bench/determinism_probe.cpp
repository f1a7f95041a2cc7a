// Replay-divergence oracle — the runtime complement to grads-lint.
//
// Each probed scenario runs TWICE in-process with a fresh engine, grid, and
// service stack. Every event the engine fires folds its (time, key, daemon)
// identity into an FNV-1a stream digest (bench::PopObserver), and scenario
// outputs — scheduler placements, flow counters, the catalog's outcome fold
// — fold in on top. The two digests must be bit-identical: any
// pointer-keyed iteration, unseeded randomness, or wall-clock leak that
// feeds a scheduling decision shifts the event stream and shows up here,
// including the ASLR-order bugs the static rules (R2) can flag but never
// prove absent. Heap layout differs between the two runs by construction
// (the first run's allocations are freed before the second starts), so an
// address-dependent decision has every opportunity to diverge.
//
// Eight rows: three probe-local (engine-churn, sched-dags,
// netsim-contended) and the five catalog scenarios (scenarios.hpp), run
// with the same worlds and seeds as crash_sweep. Each row's digest is also
// pinned (kPinned): every build and compiler must print the same eight.
//
// Usage: determinism_probe (takes no options)
// Exit:  0 = all digests bit-identical and equal to their pins,
//        1 = divergence or pin mismatch (prints offender).

#include <cstdint>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string_view>
#include <vector>

#include "bench_cli.hpp"
#include "grid/testbeds.hpp"
#include "scenarios.hpp"
#include "services/gis.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "workflow/builders.hpp"
#include "workflow/scheduler.hpp"

using namespace grads;

namespace {

constexpr double kMB = 1024.0 * 1024.0;

/// The digest every row must print, on every build and compiler. A change
/// that moves one changed the event stream or a scenario outcome.
struct Pin {
  std::string_view row;
  std::uint64_t digest;
};
constexpr Pin kPinned[] = {
    {"engine-churn", 0x4fd9a1893e19d274ULL},
    {"sched-dags", 0x33c52b3eedd74699ULL},
    {"netsim-contended", 0x7cf6e5752a9ad997ULL},
    {"chaos-qr", 0x7d45b7ab3b200afcULL},
    {"integrity-qr", 0xbc81fd5c0c4b781eULL},
    {"thrash-governed", 0xce2b24326cb14a0dULL},
    {"tenant-overload", 0x6c093f3e7c03ac3eULL},
    {"whatif-forked", 0x2b7bc9584eff2076ULL},
};

/// The pinned digest of `row`; 0 when the row has no pin.
std::uint64_t pinnedDigest(std::string_view row) {
  for (const Pin& p : kPinned) {
    if (p.row == row) return p.digest;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Probe 1: raw engine churn — schedule/cancel/daemon mix driven by Rng.
// ---------------------------------------------------------------------------

std::uint64_t probeEngineChurn(std::uint64_t seed) {
  sim::Engine eng;
  bench::PopObserver obs;
  obs.attach(eng);
  util::DigestStream& ds = obs.ds;

  Rng rng(seed);
  std::vector<sim::Engine::EventHandle> handles;
  for (int i = 0; i < 20000; ++i) {
    const double delay = rng.exponential(0.1);
    if (rng.uniform() < 0.15) {
      handles.push_back(eng.scheduleDaemon(delay, [] {}));
    } else {
      handles.push_back(eng.schedule(delay, [] {}));
    }
    // Cancel a random earlier handle now and then: exercises the free list
    // and the eager non-daemon decrement, both of which must recycle nodes
    // in an address-independent order.
    if (i % 7 == 3 && !handles.empty()) {
      handles[static_cast<std::size_t>(
                  rng.uniformInt(0, static_cast<std::int64_t>(
                                        handles.size() - 1)))]
          .cancel();
    }
  }
  eng.run();
  ds.put(static_cast<std::uint64_t>(eng.processedEvents()));
  return ds.digest();
}

// ---------------------------------------------------------------------------
// Probe 2: perf DAG scheduling — placements across heuristics and shapes.
// ---------------------------------------------------------------------------

std::uint64_t probeSchedDags(std::uint64_t seed) {
  sim::Engine eng;
  bench::PopObserver obs;
  obs.attach(eng);
  util::DigestStream& ds = obs.ds;
  grid::Grid g(eng);
  grid::buildMacroGrid(g);
  services::Gis gis(g);
  workflow::GridEstimator estimator(gis, nullptr);
  Rng rng(seed);

  std::vector<workflow::Dag> dags;
  dags.push_back(workflow::makeChain(12, 4e10, 8 * kMB));
  dags.push_back(workflow::makeFanOutIn(16, 3e10, 4 * kMB));
  dags.push_back(workflow::makeLigoLike(32, rng));
  dags.push_back(workflow::makeParameterSweep(48, rng));
  dags.push_back(workflow::makeRandomLayered(4, 6, rng));

  workflow::WorkflowScheduler ws(estimator, g.allNodes());
  for (const auto& dag : dags) {
    for (const auto h :
         {workflow::Heuristic::kMinMin, workflow::Heuristic::kMaxMin,
          workflow::Heuristic::kSufferage,
          workflow::Heuristic::kBestOfThree}) {
      const workflow::Schedule s = ws.schedule(dag, h);
      ds.put(s.makespan);
      for (const auto& a : s.assignments) {
        ds.put(static_cast<std::uint64_t>(a.component));
        ds.put(static_cast<std::uint64_t>(a.node));
        ds.put(a.start);
        ds.put(a.finish);
      }
    }
  }
  return ds.digest();
}

// ---------------------------------------------------------------------------
// Probe 3: contended flow-level network model. A seeded
// burst of overlapping transfers — mixed bulk/interactive classes, random
// sizes and start times, a mid-flight WAN degrade and recovery — exercises
// the max-min water-fill, the pacing weights, and the arrival/departure
// re-solve chain. Every solve iterates flows in submission order; any
// address-dependent tie-break in the allocator would reorder completions
// and diverge here.
// ---------------------------------------------------------------------------

std::uint64_t probeNetsim(std::uint64_t seed) {
  sim::Engine eng;
  bench::PopObserver obs;
  obs.attach(eng);
  util::DigestStream& ds = obs.ds;
  grid::Grid g(eng);
  const auto tb = grid::buildQrTestbed(g);
  Rng rng(seed);

  for (int i = 0; i < 40; ++i) {
    const double at = rng.uniform() * 30.0;
    const double bytes = (0.1 + rng.uniform() * 2.0) * kMB;
    const auto cls = rng.uniform() < 0.4 ? grid::TransferClass::kBulk
                                         : grid::TransferClass::kInteractive;
    const auto src = tb.utkNodes[static_cast<std::size_t>(
        rng.uniformInt(0, 3))];
    const auto dst = tb.uiucNodes[static_cast<std::size_t>(
        rng.uniformInt(0, 7))];
    eng.schedule(at, [&g, src, dst, bytes, cls] {
      g.engine().spawn(
          [](grid::Grid* grid, grid::NodeId a, grid::NodeId b, double n,
             grid::TransferClass c) -> sim::Task {
            co_await grid->transfer(a, b, n, c);
          }(&g, src, dst, bytes, cls),
          "netsim-flow");
    });
  }
  const grid::LinkId wan = g.route(tb.utkNodes[0], tb.uiucNodes[0]).links[1];
  eng.schedule(10.0, [&g, wan] { g.link(wan).setBandwidthScale(0.25); });
  eng.schedule(20.0, [&g, wan] { g.link(wan).setBandwidthScale(1.0); });
  eng.run();
  eng.rethrowIfFailed();
  ds.put(g.flows().flowsCompleted());
  ds.put(g.flows().bytesCompleted());
  ds.put(g.flows().solves());
  ds.put(g.flows().peakConcurrentFlows());
  ds.put(static_cast<std::uint64_t>(eng.processedEvents()));
  return ds.digest();
}

// ---------------------------------------------------------------------------
// Catalog rows: each scenario fresh, as crash_sweep profiles it.
// ---------------------------------------------------------------------------

std::uint64_t probeScenario(const bench::Scenario& sc) {
  bench::World w;
  bench::build(w, sc.name, sc.seed, true);
  bench::PopObserver obs;
  obs.attach(w.eng);
  bench::spawnApps(w, false);
  w.eng.run();
  w.eng.rethrowIfFailed();
  bench::foldOutcome(obs.ds, w);
  return obs.ds.digest();
}

}  // namespace

int main(int argc, char**) {
  if (!bench::noArguments(argc, "determinism_probe")) return 2;

  std::cout << "replay-divergence oracle: each scenario runs twice with a "
               "fresh engine;\ndigests must match bit-for-bit.\n\n";
  std::cout << std::left << std::setw(18) << "scenario" << std::setw(20)
            << "digest(run1)" << std::setw(20) << "digest(run2)"
            << "verdict\n";

  int divergences = 0;
  std::ostringstream mismatches;
  const auto replay = [&divergences, &mismatches](const char* name,
                                                   const auto& run) {
    const std::uint64_t d1 = run();
    const std::uint64_t d2 = run();
    const bool ok = d1 == d2;
    if (!ok) ++divergences;
    std::cout << std::left << std::setw(18) << name << std::setw(20)
              << std::hex << d1 << std::setw(20) << d2 << std::dec
              << (ok ? "identical" : "DIVERGED") << "\n";
    const std::uint64_t pinned = pinnedDigest(name);
    if (d1 != pinned) {
      mismatches << name << ": expected digest " << std::hex << pinned
                 << ", got " << d1 << std::dec << "\n";
    }
  };
  replay("engine-churn", [] { return probeEngineChurn(1234); });
  replay("sched-dags", [] { return probeSchedDags(2024); });
  replay("netsim-contended", [] { return probeNetsim(61); });
  for (const bench::Scenario& sc : bench::kScenarios) {
    replay(sc.name, [&sc] { return probeScenario(sc); });
  }
  if (divergences > 0) {
    std::cout << "\n" << divergences
              << " scenario(s) diverged between identical runs — "
                 "nondeterminism reached the event stream.\n";
  }
  if (!mismatches.str().empty()) {
    std::cout << "\npinned digest mismatch:\n" << mismatches.str();
  }
  if (divergences > 0 || !mismatches.str().empty()) return 1;
  std::cout << "\nall probed scenarios replay bit-identically.\n";
  return 0;
}
