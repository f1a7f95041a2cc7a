// Congestion-aware network model campaign (BENCH_9) — what does flow-level
// max-min sharing change, and what does bulk pacing buy back?
//
// Three arms over each scenario, selecting the FlowRegistry configuration:
//   static — sharing disabled: every flow streams at its solo bottleneck
//            rate regardless of contention (the legacy "overlapping free
//            time" fiction, kept as the ablation baseline);
//   maxmin — weighted max-min fair shares, pacing off (every flow weighs
//            1.0): contention is real, but checkpoint/scrub movers compete
//            head-to-head with contract traffic;
//   paced  — max-min plus pacing: bulk movers weigh 0.25 against 1.0, so
//            interactive/contract transfers keep most of a contended pipe.
//
// Scenarios:
//   single-flow — one uncontended WAN transfer, run twice per arm with the
//                 engine pop-stream digest. Acceptance: the finish time is
//                 *bit-identical* to latency + bytes/bandwidth in every arm
//                 (the backward-compatibility invariant), and both runs
//                 replay to the same digest.
//   incast      — a migration fans N source nodes into one destination
//                 across the shared WAN pipe while a contract transfer
//                 arrives mid-burst. Static finishes the burst in ~1/N of
//                 the physical time (flows overlap for free); max-min pays
//                 the true serialized cost; pacing restores the contract
//                 transfer's latency without giving up burst throughput.
//   scrubber    — a long bulk re-replication stream owns the WAN while
//                 periodic interactive contract transfers cut through it.
//                 Pacing is the difference between contract traffic at ~2x
//                 its solo latency and ~1.25x.
//
// Usage: netsim_campaign
// Output: netsim_campaign.csv + BENCH_9.json under the bench output dir.

#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_cli.hpp"
#include "bench_paths.hpp"
#include "grid/grid.hpp"
#include "grid/testbeds.hpp"
#include "scenarios.hpp"
#include "sim/engine.hpp"
#include "util/table.hpp"

using namespace grads;

namespace {

constexpr double kMB = 1024.0 * 1024.0;
constexpr double kWanBw = 1.2 * kMB;  // utk-uiuc.wan: one shared pipe
constexpr int kIncastSources = 7;
constexpr double kIncastBytes = 2.4 * kMB;  // per source
constexpr int kContracts = 8;               // scrubber-scenario transfers

struct Arm {
  const char* name;
  grid::FlowRegistry::SharingMode mode;
  bool pacing;
};

constexpr Arm kArms[] = {
    {"static", grid::FlowRegistry::SharingMode::kStatic, false},
    {"maxmin", grid::FlowRegistry::SharingMode::kMaxMin, false},
    {"paced", grid::FlowRegistry::SharingMode::kMaxMin, true},
};

/// One fresh world per run: engine + QR testbed with the arm's sharing
/// configuration applied before any flow starts.
struct FlowWorld {
  sim::Engine eng;
  grid::Grid g{eng};
  grid::QrTestbed tb;

  explicit FlowWorld(const Arm& arm) {
    tb = grid::buildQrTestbed(g);
    g.flows().setSharingMode(arm.mode);
    g.flows().setPacingEnabled(arm.pacing);
  }
};

sim::Task timedTransfer(grid::Grid* g, grid::NodeId a, grid::NodeId b,
                        double bytes, grid::TransferClass cls,
                        double* doneAt) {
  co_await g->transfer(a, b, bytes, cls);
  *doneAt = g->engine().now();
}

// ---------------------------------------------------------------------------
// Scenario 1: single uncontended flow — determinism + bit-exactness.
// ---------------------------------------------------------------------------

struct SingleFlowResult {
  double seconds = -1.0;
  std::uint64_t digest = 0;
};

SingleFlowResult runSingleFlow(const Arm& arm) {
  FlowWorld w(arm);
  bench::PopObserver obs;
  obs.attach(w.eng);
  SingleFlowResult r;
  w.eng.spawn(timedTransfer(&w.g, w.tb.utkNodes[0], w.tb.uiucNodes[0],
                            2.4 * kMB, grid::TransferClass::kInteractive,
                            &r.seconds),
              "single-flow");
  w.eng.run();
  obs.ds.put(r.seconds);
  r.digest = obs.ds.digest();
  return r;
}

// ---------------------------------------------------------------------------
// Scenario 2: incast on migration — N sources, one sink, shared WAN pipe,
// with a contract transfer arriving mid-burst.
// ---------------------------------------------------------------------------

struct IncastResult {
  double makespan = -1.0;     ///< last migration flow finish time
  double contract = -1.0;     ///< contract transfer latency (issued at t=1)
  double throughput = 0.0;    ///< burst bytes / makespan
};

IncastResult runIncast(const Arm& arm) {
  FlowWorld w(arm);
  std::vector<double> done(kIncastSources, -1.0);
  for (int i = 0; i < kIncastSources; ++i) {
    // Migration data movement is a bulk-class background mover.
    w.eng.spawn(timedTransfer(&w.g, w.tb.uiucNodes[i % 8], w.tb.utkNodes[0],
                              kIncastBytes, grid::TransferClass::kBulk,
                              &done[static_cast<std::size_t>(i)]),
                "incast-src");
  }
  IncastResult r;
  double contractDone = -1.0;
  w.eng.schedule(1.0, [&] {
    w.eng.spawn(timedTransfer(&w.g, w.tb.utkNodes[1], w.tb.uiucNodes[7],
                              0.6 * kMB, grid::TransferClass::kInteractive,
                              &contractDone),
                "contract");
  });
  w.eng.run();
  for (const double d : done) r.makespan = std::max(r.makespan, d);
  r.contract = contractDone - 1.0;
  r.throughput = kIncastSources * kIncastBytes / r.makespan;
  return r;
}

// ---------------------------------------------------------------------------
// Scenario 3: scrubber steals bandwidth — one long bulk stream vs periodic
// interactive contract transfers.
// ---------------------------------------------------------------------------

struct ScrubResult {
  double scrubDone = -1.0;      ///< when the re-replication stream drains
  double contractMean = -1.0;   ///< mean contract transfer latency
};

ScrubResult runScrubber(const Arm& arm) {
  FlowWorld w(arm);
  ScrubResult r;
  // The scrubber re-replicates a large object across the WAN: one bulk flow
  // long enough to overlap every contract transfer below.
  const double scrubBytes = (kContracts * 10.0 + 20.0) * 1.2 * kMB;
  w.eng.spawn(timedTransfer(&w.g, w.tb.utkNodes[0], w.tb.uiucNodes[0],
                            scrubBytes, grid::TransferClass::kBulk,
                            &r.scrubDone),
              "scrub-stream");
  std::vector<double> lat(kContracts, -1.0);
  for (int i = 0; i < kContracts; ++i) {
    const double at = 5.0 + 10.0 * i;
    double* slot = &lat[static_cast<std::size_t>(i)];
    w.eng.schedule(at, [&w, slot, at] {
      w.eng.spawn(
          [](grid::Grid* g, grid::NodeId a, grid::NodeId b, double start,
             double* out) -> sim::Task {
            co_await g->transfer(a, b, 1.2 * kMB,
                                 grid::TransferClass::kInteractive);
            *out = g->engine().now() - start;
          }(&w.g, w.tb.utkNodes[1], w.tb.uiucNodes[1], at, slot),
          "contract");
    });
  }
  w.eng.run();
  double sum = 0.0;
  for (const double l : lat) sum += l;
  r.contractMean = sum / kContracts;
  return r;
}

}  // namespace

int main(int argc, char**) {
  if (!bench::noArguments(argc, "netsim_campaign")) return 2;
  std::ofstream csv =
      bench::openOutput(bench::outputPath("netsim_campaign.csv"));
  const std::string outPath = bench::outputPath("BENCH_9.json");
  std::ofstream json = bench::openOutput(outPath);

  // Closed forms the arms are judged against. The single-flow time must be
  // *exactly* this double; contended shapes get small float tolerances.
  sim::Engine probeEng;
  grid::Grid probeGrid(probeEng);
  const auto probeTb = grid::buildQrTestbed(probeGrid);
  const double wanLat =
      probeGrid.route(probeTb.utkNodes[0], probeTb.uiucNodes[0]).latencySec;
  const double soloSingle = wanLat + 2.4 * kMB / kWanBw;
  const double soloContract = wanLat + 1.2 * kMB / kWanBw;

  util::Table table({"scenario", "arm", "makespan_s", "contract_s",
                     "throughput_MBps", "note"});
  bool ok = true;

  struct JsonRow {
    std::string scenario;
    std::string arm;
    double makespan;
    double contract;
    double throughput;
  };
  std::vector<JsonRow> jrows;

  // --- single-flow: determinism + bit-exact backward compatibility. ---
  bool singleIdentical = true;
  bool digestsMatch = true;
  for (const Arm& arm : kArms) {
    const SingleFlowResult r1 = runSingleFlow(arm);
    const SingleFlowResult r2 = runSingleFlow(arm);
    if (r1.digest != r2.digest) {
      std::cout << "VIOLATION: single-flow/" << arm.name
                << " replayed to a different digest\n";
      digestsMatch = false;
      ok = false;
    }
    if (r1.seconds != soloSingle) {  // bit-for-bit, no tolerance
      std::cout << "VIOLATION: single-flow/" << arm.name << " took "
                << r1.seconds << " != closed-form " << soloSingle
                << " (single-flow compatibility broken)\n";
      singleIdentical = false;
      ok = false;
    }
    table.addRow({std::string("single-flow"), std::string(arm.name),
                  r1.seconds, 0.0, 2.4 * kMB / r1.seconds / kMB,
                  std::string("bit-exact solo time")});
    jrows.push_back({"single-flow", arm.name, r1.seconds, 0.0,
                     2.4 * kMB / r1.seconds / kMB});
  }

  // --- incast. ---
  double incastStatic = 0.0;
  double incastMaxmin = 0.0;
  double contractMaxmin = 0.0;
  double contractPaced = 0.0;
  for (const Arm& arm : kArms) {
    const IncastResult r = runIncast(arm);
    if (std::string(arm.name) == "static") incastStatic = r.makespan;
    if (std::string(arm.name) == "maxmin") {
      incastMaxmin = r.makespan;
      contractMaxmin = r.contract;
    }
    if (std::string(arm.name) == "paced") contractPaced = r.contract;
    table.addRow({std::string("incast"), std::string(arm.name), r.makespan,
                  r.contract, r.throughput / kMB,
                  std::string(arm.mode ==
                                      grid::FlowRegistry::SharingMode::kStatic
                                  ? "overlapping free time"
                                  : "true shared-pipe cost")});
    jrows.push_back(
        {"incast", arm.name, r.makespan, r.contract, r.throughput / kMB});
  }
  // The static fiction must be visibly cheaper than physics: N flows
  // through one pipe cannot finish in one flow's time.
  if (incastStatic * 1.5 > incastMaxmin) {
    std::cout << "VIOLATION: incast static makespan (" << incastStatic
              << ") is not clearly below the max-min cost (" << incastMaxmin
              << ") — the contention model changed nothing\n";
    ok = false;
  }
  if (contractPaced >= contractMaxmin) {
    std::cout << "VIOLATION: pacing did not improve the mid-incast contract "
              << "transfer (" << contractPaced << " >= " << contractMaxmin
              << ")\n";
    ok = false;
  }

  // --- scrubber. ---
  double scrubContractMaxmin = 0.0;
  double scrubContractPaced = 0.0;
  for (const Arm& arm : kArms) {
    const ScrubResult r = runScrubber(arm);
    if (std::string(arm.name) == "maxmin") scrubContractMaxmin =
        r.contractMean;
    if (std::string(arm.name) == "paced") scrubContractPaced = r.contractMean;
    table.addRow({std::string("scrubber"), std::string(arm.name), r.scrubDone,
                  r.contractMean, 0.0,
                  std::string("mean contract latency vs bulk stream")});
    jrows.push_back({"scrubber", arm.name, r.scrubDone, r.contractMean, 0.0});
  }
  if (scrubContractPaced >= scrubContractMaxmin) {
    std::cout << "VIOLATION: pacing did not restore contract latency under "
              << "the scrub stream (" << scrubContractPaced
              << " >= " << scrubContractMaxmin << ")\n";
    ok = false;
  }
  // Paced contract traffic runs at weight 1 vs 0.25: it keeps 1/1.25 of
  // the pipe, i.e. ~1.25x solo latency — call it restored below 1.5x.
  if (scrubContractPaced > soloContract * 1.5) {
    std::cout << "VIOLATION: paced contract latency (" << scrubContractPaced
              << ") is not within 1.5x of solo (" << soloContract << ")\n";
    ok = false;
  }

  table.print(std::cout,
              "Congestion-aware network model — static pipes vs max-min "
              "sharing vs max-min + bulk pacing");
  table.writeCsv(csv);

  json << "{\n  \"bench_id\": 9,\n  \"single_flow_bit_exact\": "
       << (singleIdentical ? "true" : "false")
       << ",\n  \"single_flow_digests_match\": "
       << (digestsMatch ? "true" : "false") << ",\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < jrows.size(); ++i) {
    const JsonRow& j = jrows[i];
    json << "    {\"scenario\": \"" << j.scenario << "\", \"arm\": \""
         << j.arm << "\", \"makespan_s\": " << j.makespan
         << ", \"contract_s\": " << j.contract
         << ", \"throughput_MBps\": " << j.throughput << "}"
         << (i + 1 == jrows.size() ? "" : ",") << "\n";
  }
  json << "  ]\n}\n";
  json.close();
  std::cout << "\nwrote " << outPath << "\n";

  std::cout << "\nExpected shape: every arm reproduces the uncontended "
               "single-flow time bit-for-bit; the static arm finishes the "
               "incast burst in 'overlapping free' time that max-min "
               "exposes as physically impossible; and pacing hands the "
               "contended pipe back to contract traffic (mean latency near "
               "solo) while the bulk movers absorb the delay.\n";
  return ok ? 0 : 1;
}
