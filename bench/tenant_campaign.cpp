// BENCH_7: overload robustness of the multi-tenant metascheduler.
//
// Two arms over the identical offered load — open-loop Poisson arrivals at
// >= 2x slot capacity, heavy-tailed (Pareto) job sizes, six tenants across
// three priority tiers — differing only in mitigation:
//
//   unmitigated: admission wide open, no brownout ladder, no preemption.
//     Every arrival is queued; the backlog grows without bound until the
//     hard deadline drops the queue on the floor ("timeout collapse").
//   mitigated: admission controller with backpressure (bounded queues,
//     backlog cap, retry-after hints honored by the generators), brownout
//     ladder (defer-low -> park -> shed) with hysteresis, and journaled
//     checkpoint-and-park preemption for starving high-tier work.
//
// The claim under test (ISSUE 7 acceptance): the unmitigated arm exhibits
// unbounded queue growth and drops admitted work at the deadline, while the
// mitigated arm keeps queue depth and p99 slowdown bounded and completes
// 100% of what it admitted — degradation shows up as explicit, accounted
// sheds at the door, not as silent losses.
//
// Usage: tenant_campaign
// Output: BENCH_7.json (both arms) and tenant_campaign_<arm>.csv
//         (control-loop time series), under the bench output dir.
// Exit:   0 = every structural assertion held in both arms.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench_cli.hpp"
#include "bench_paths.hpp"
#include "grid/testbeds.hpp"
#include "scenarios.hpp"
#include "util/stats.hpp"

using namespace grads;

namespace {

constexpr double kMB = 1024.0 * 1024.0;

constexpr int kClusters = 4;
constexpr int kNodesPerCluster = 8;
constexpr double kHorizonSec = 90000.0;
constexpr double kDeadlineSec = 110000.0;
constexpr double kOfferedFactor = 2.2;  ///< offered load / capacity
constexpr std::size_t kMaxQueuedPerTenant = 256;
constexpr std::size_t kMaxQueuedTotal = 1024;
constexpr double kMaxBacklogSec = 3600.0;
constexpr std::uint64_t kSeed = 7001;

metasched::FrontendOptions makeFrontend(const std::vector<grid::NodeId>& slots,
                                        double refFlopsPerSec,
                                        bool mitigated) {
  metasched::FrontendOptions fo;
  fo.slots = slots;
  fo.horizonSec = kHorizonSec;
  fo.hardDeadlineSec = kDeadlineSec;
  fo.controlPeriodSec = 60.0;
  fo.flopsPerPhase = refFlopsPerSec * 30.0;   ///< ~30 s preemption quantum
  fo.refFlopsPerSec = refFlopsPerSec;
  fo.seed = kSeed;

  // Pareto(xm = 150 s, alpha = 1.9) job sizes, truncated at 2 h: mean
  // ~317 s of reference compute, occasionally hours.
  const double xm = refFlopsPerSec * 150.0;
  const double alpha = 1.9;
  const double meanJobSec = (alpha / (alpha - 1.0)) * 150.0;
  const double totalRate =
      kOfferedFactor * static_cast<double>(slots.size()) / meanJobSec;

  // Six tenants, two per tier. Offered-load split: high 15%, normal 35%,
  // batch 50% — overload comes mostly from below, but tiers 1+2 alone
  // exceed capacity so the ladder and preemption both engage.
  struct TenantShape {
    const char* name;
    int tier;
    double weight;
    double share;
  };
  const TenantShape shapes[] = {
      {"hi-a", 2, 3.0, 0.075}, {"hi-b", 2, 1.0, 0.075},
      {"norm-a", 1, 2.0, 0.175}, {"norm-b", 1, 1.0, 0.175},
      {"batch-a", 0, 2.0, 0.25}, {"batch-b", 0, 1.0, 0.25},
  };
  int i = 0;
  for (const TenantShape& s : shapes) {
    metasched::TenantSpec t;
    t.name = s.name;
    t.tier = s.tier;
    t.weight = s.weight;
    t.baseRatePerSec = s.share * totalRate;
    t.diurnalAmplitude = 0.3;
    t.diurnalPeriodSec = 21600.0;
    t.diurnalPhaseSec = 3600.0 * i;
    t.paretoXmFlops = xm;
    t.paretoAlpha = alpha;
    t.maxJobFlops = refFlopsPerSec * 7200.0;
    t.resubmit.maxAttempts = 4;
    t.resubmit.baseDelaySec = 60.0;
    t.resubmit.backoffFactor = 2.0;
    t.resubmit.maxDelaySec = 1800.0;
    t.resubmit.jitterFrac = 0.2;
    t.seed = kSeed + 101 * static_cast<std::uint64_t>(i + 1);
    fo.tenants.push_back(t);
    ++i;
  }

  fo.admission.enabled = mitigated;
  fo.admission.maxQueuedPerTenant = kMaxQueuedPerTenant;
  fo.admission.maxQueuedTotal = kMaxQueuedTotal;
  fo.admission.maxBacklogSec = kMaxBacklogSec;
  fo.brownout.enabled = mitigated;
  fo.preempt.enabled = mitigated;
  fo.preempt.minRunSec = 60.0;
  fo.preempt.cooldownSec = 300.0;
  fo.preempt.maxConcurrent = 2;
  fo.preempt.highTierMaxWaitSec = 600.0;

  fo.jobOptions.resourceSelectionSec = 1.0;
  fo.jobOptions.perfModelingSec = 0.5;
  fo.jobOptions.appStartPerRankSec = 0.5;
  fo.jobOptions.monitorContract = false;
  fo.jobOptions.reserveNodes = false;
  return fo;
}

void buildWorld(bench::World& w, bool mitigated) {
  std::vector<grid::NodeId> slots;
  std::vector<grid::ClusterId> clusters;
  for (int c = 0; c < kClusters; ++c) {
    const std::string tag = "site" + std::to_string(c);
    clusters.push_back(w.g.addCluster(grid::ClusterSpec{
        tag, tag, grid::fastEthernetLan(tag + ".lan", kNodesPerCluster)}));
    for (int n = 0; n < kNodesPerCluster; ++n) {
      slots.push_back(w.g.addNode(clusters.back(), grid::utkQrNodeSpec(n)));
    }
  }
  for (std::size_t a = 0; a < clusters.size(); ++a) {
    for (std::size_t b = a + 1; b < clusters.size(); ++b) {
      w.g.connectClusters(clusters[a], clusters[b],
                          grid::internetWan("wan" + std::to_string(a) + "-" +
                                                std::to_string(b),
                                            0.01, 4.0 * kMB));
    }
  }

  w.gis.emplace(w.g);
  w.gis->installEverywhere(services::software::kLocalBinder);
  w.gis->installEverywhere(services::software::kSrsLibrary);
  w.nws.emplace(w.eng, w.g, 120.0, 0.0, 9);
  w.ibp.emplace(w.g);
  w.autopilot.emplace(w.eng);
  if (mitigated) w.journal.emplace(w.eng);
  w.mgr.emplace(w.g, *w.gis, &*w.nws, *w.ibp, *w.autopilot);

  const double refRate =
      w.g.node(slots.front()).spec().effectiveFlopsPerCpu();
  w.meta.emplace(*w.mgr, w.g, *w.gis, &*w.nws,
                 w.journal ? &*w.journal : nullptr,
                 makeFrontend(slots, refRate, mitigated));
}

struct ArmResult {
  std::string name;
  metasched::FrontendTotals totals;
  std::vector<double> slowdowns;
  double endTime = 0.0;
  double utilization = 0.0;
  bool drained = false;
  std::int64_t inSystemAtEnd = 0;
};

ArmResult runArm(bool mitigated, std::ofstream& csv) {
  bench::World w;
  buildWorld(w, mitigated);

  csv << "t_s,queued,running,parked,pressure,brownout_level\n";
  w.meta->setOnSample([&csv](double t, std::int64_t queued,
                             std::int64_t running, std::int64_t parked,
                             double pressure, metasched::BrownoutLevel lvl) {
    csv << t << ',' << queued << ',' << running << ',' << parked << ','
        << pressure << ',' << static_cast<int>(lvl) << '\n';
  });

  w.nws->start();
  w.meta->start();
  w.eng.run();
  w.eng.rethrowIfFailed();

  ArmResult res;
  res.name = mitigated ? "mitigated" : "unmitigated";
  res.totals = w.meta->totals();
  res.slowdowns = w.meta->allSlowdowns();
  std::sort(res.slowdowns.begin(), res.slowdowns.end());
  res.endTime = w.eng.now();
  const double slotSeconds =
      static_cast<double>(kClusters * kNodesPerCluster) * res.endTime;
  res.utilization =
      slotSeconds > 0.0 ? res.totals.busySlotSeconds / slotSeconds : 0.0;
  res.drained = w.meta->drained();
  res.inSystemAtEnd = w.meta->jobsInSystem();
  return res;
}

double pct(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  return stats::quantile(sorted, q);
}

void emitArmJson(std::ofstream& out, const ArmResult& r, bool last) {
  const metasched::FrontendTotals& t = r.totals;
  out << "    \"" << r.name << "\": {\n"
      << "      \"submitted\": " << t.submitted << ",\n"
      << "      \"admitted\": " << t.admitted << ",\n"
      << "      \"shed\": " << t.shed << ",\n"
      << "      \"resubmits\": " << t.resubmits << ",\n"
      << "      \"abandoned\": " << t.abandoned << ",\n"
      << "      \"dispatched\": " << t.dispatched << ",\n"
      << "      \"completed\": " << t.completed << ",\n"
      << "      \"failed\": " << t.failed << ",\n"
      << "      \"preempted\": " << t.preempted << ",\n"
      << "      \"parks\": " << t.parks << ",\n"
      << "      \"unparked\": " << t.unparked << ",\n"
      << "      \"deferrals\": " << t.deferrals << ",\n"
      << "      \"unserved\": " << t.unserved << ",\n"
      << "      \"brownout_escalations\": " << t.brownoutEscalations << ",\n"
      << "      \"brownout_deescalations\": " << t.brownoutDeescalations
      << ",\n"
      << "      \"peak_queue_depth\": " << t.peakQueueDepth << ",\n"
      << "      \"peak_in_system\": " << t.peakInSystem << ",\n"
      << "      \"mean_queue_depth\": " << t.meanQueueDepth << ",\n"
      << "      \"busy_slot_seconds\": " << t.busySlotSeconds << ",\n"
      << "      \"utilization\": " << r.utilization << ",\n"
      << "      \"end_time_s\": " << r.endTime << ",\n"
      << "      \"drained\": " << (r.drained ? "true" : "false") << ",\n"
      << "      \"slowdown_p50\": " << pct(r.slowdowns, 0.5) << ",\n"
      << "      \"slowdown_p90\": " << pct(r.slowdowns, 0.9) << ",\n"
      << "      \"slowdown_p99\": " << pct(r.slowdowns, 0.99) << "\n"
      << "    }" << (last ? "\n" : ",\n");
}

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cout << "  FAIL " << what << "\n";
  } else {
    std::cout << "  ok   " << what << "\n";
  }
}

}  // namespace

int main(int argc, char**) {
  if (!bench::noArguments(argc, "tenant_campaign")) return 2;
  std::ofstream unCsv =
      bench::openOutput(bench::outputPath("tenant_campaign_unmitigated.csv"));
  std::ofstream miCsv =
      bench::openOutput(bench::outputPath("tenant_campaign_mitigated.csv"));
  const std::string jsonPath = bench::outputPath("BENCH_7.json");
  std::ofstream json = bench::openOutput(jsonPath);
  const std::int64_t minPeakInSystem = 10000;

  std::cout << "tenant campaign: "
            << kClusters * kNodesPerCluster << " slots, "
            << kOfferedFactor << "x offered load, horizon "
            << kHorizonSec << " s, deadline " << kDeadlineSec
            << " s\n\n";

  const ArmResult un = runArm(false, unCsv);
  const ArmResult mi = runArm(true, miCsv);

  for (const ArmResult* r : {&un, &mi}) {
    const metasched::FrontendTotals& t = r->totals;
    std::cout << r->name << ":\n"
              << "  submitted " << t.submitted << ", admitted " << t.admitted
              << ", shed " << t.shed << ", completed " << t.completed
              << ", unserved " << t.unserved << ", abandoned " << t.abandoned
              << "\n  peak queue " << t.peakQueueDepth << ", peak in-system "
              << t.peakInSystem << ", preempted " << t.preempted
              << ", brownout escalations " << t.brownoutEscalations
              << "\n  p50/p99 slowdown " << pct(r->slowdowns, 0.5) << " / "
              << pct(r->slowdowns, 0.99) << ", utilization "
              << r->utilization << ", end t=" << r->endTime << "\n\n";
  }

  std::cout << "unmitigated arm (expected collapse):\n";
  check(un.totals.peakInSystem >= minPeakInSystem,
        "unbounded growth: peak in-system >= " +
            std::to_string(minPeakInSystem));
  check(un.totals.unserved > 0,
        "timeout collapse: queued jobs dropped at the deadline");
  check(un.totals.shed == 0 && un.totals.preempted == 0,
        "no mitigation acted");

  std::cout << "\nmitigated arm (expected graceful degradation):\n";
  check(mi.drained && mi.inSystemAtEnd == 0, "frontend drained completely");
  check(mi.totals.failed == 0, "no admitted job failed");
  check(mi.totals.unserved == 0, "no admitted job dropped at the deadline");
  check(mi.totals.completed == mi.totals.admitted,
        "100% of admitted jobs completed");
  check(mi.totals.peakQueueDepth <=
            static_cast<std::int64_t>(kMaxQueuedTotal),
        "queue depth bounded by the admission cap");
  check(mi.totals.shed > 0, "overload surfaced as explicit sheds");
  check(mi.totals.preempted > 0 && mi.totals.parks > 0,
        "preemption parked victims for high-tier work");
  check(mi.totals.unparked == mi.totals.parks,
        "every parked job was eventually unparked");
  check(mi.totals.brownoutEscalations > 0, "brownout ladder engaged");
  check(mi.totals.brownoutEscalations >= mi.totals.brownoutDeescalations,
        "ladder transitions consistent");
  check(mi.totals.peakQueueDepth * 2 < un.totals.peakQueueDepth,
        "bounded queue vs unmitigated unbounded growth");

  json << std::setprecision(10);
  json << "{\n  \"bench\": \"tenant_campaign\",\n"
       << "  \"slots\": " << kClusters * kNodesPerCluster << ",\n"
       << "  \"offered_factor\": " << kOfferedFactor << ",\n"
       << "  \"horizon_s\": " << kHorizonSec << ",\n"
       << "  \"deadline_s\": " << kDeadlineSec << ",\n"
       << "  \"failures\": " << failures << ",\n"
       << "  \"arms\": {\n";
  emitArmJson(json, un, false);
  emitArmJson(json, mi, true);
  json << "  }\n}\n";
  json.close();

  std::cout << "\nresults in " << jsonPath << "\n";
  if (failures > 0) {
    std::cout << failures << " assertion(s) failed.\n";
    return 1;
  }
  std::cout << "both arms behaved as claimed: overload degrades into "
               "accounted sheds, not silent losses.\n";
  return 0;
}
