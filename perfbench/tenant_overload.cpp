// tenant-overload: one phase is the mitigated arm of the tenant campaign at
// full size — 32 single-rank slots on four clusters, 2.2x offered load from
// six tenants in three priority tiers, a 90,000 s arrival horizon. One op is
// one completed job. The engine, the metascheduler's admission, brownout
// and preemption paths, and the action journal are busy; snapshot and
// workflow are never called.

#include <algorithm>
#include <string>
#include <vector>

#include "grid/testbeds.hpp"
#include "util/hash.hpp"
#include "util/stats.hpp"
#include "workload.hpp"
#include "worlds.hpp"

namespace perfbench {
namespace {

namespace grid = grads::grid;
namespace metasched = grads::metasched;

constexpr int kClusters = 4;
constexpr int kNodesPerCluster = 8;
constexpr double kHorizonSec = 90000.0;
constexpr double kDeadlineSec = 110000.0;
constexpr double kOfferedFactor = 2.2;
constexpr double kMB = 1024.0 * 1024.0;

metasched::FrontendOptions makeFrontend(const std::vector<grid::NodeId>& slots,
                                        double refFlopsPerSec,
                                        std::uint64_t seed) {
  metasched::FrontendOptions fo;
  fo.slots = slots;
  fo.horizonSec = kHorizonSec;
  fo.hardDeadlineSec = kDeadlineSec;
  fo.controlPeriodSec = 60.0;
  fo.flopsPerPhase = refFlopsPerSec * 30.0;
  fo.refFlopsPerSec = refFlopsPerSec;
  fo.seed = seed;

  // Pareto(xm = 150 s, alpha = 1.9) job sizes truncated at 2 h.
  const double alpha = 1.9;
  const double meanJobSec = (alpha / (alpha - 1.0)) * 150.0;
  const double totalRate =
      kOfferedFactor * static_cast<double>(slots.size()) / meanJobSec;
  const struct {
    const char* name;
    int tier;
    double weight;
    double share;
  } shapes[] = {
      {"hi-a", 2, 3.0, 0.075},   {"hi-b", 2, 1.0, 0.075},
      {"norm-a", 1, 2.0, 0.175}, {"norm-b", 1, 1.0, 0.175},
      {"batch-a", 0, 2.0, 0.25}, {"batch-b", 0, 1.0, 0.25},
  };
  int i = 0;
  for (const auto& s : shapes) {
    metasched::TenantSpec t;
    t.name = s.name;
    t.tier = s.tier;
    t.weight = s.weight;
    t.baseRatePerSec = s.share * totalRate;
    t.diurnalAmplitude = 0.3;
    t.diurnalPeriodSec = 21600.0;
    t.diurnalPhaseSec = 3600.0 * i;
    t.paretoXmFlops = refFlopsPerSec * 150.0;
    t.paretoAlpha = alpha;
    t.maxJobFlops = refFlopsPerSec * 7200.0;
    t.resubmit.maxAttempts = 4;
    t.resubmit.baseDelaySec = 60.0;
    t.resubmit.backoffFactor = 2.0;
    t.resubmit.maxDelaySec = 1800.0;
    t.resubmit.jitterFrac = 0.2;
    t.seed = seed + 101 * static_cast<std::uint64_t>(i + 1);
    fo.tenants.push_back(t);
    ++i;
  }
  fo.admission.maxQueuedPerTenant = 256;
  fo.admission.maxQueuedTotal = 1024;
  fo.admission.maxBacklogSec = 3600.0;
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

void buildWorld(World& w, std::uint64_t seed) {
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
      w.g.connectClusters(
          clusters[a], clusters[b],
          grid::internetWan("wan" + std::to_string(a) + "-" + std::to_string(b),
                            0.01, 4.0 * kMB));
    }
  }
  w.gis.emplace(w.g);
  w.gis->installEverywhere(grads::services::software::kLocalBinder);
  w.gis->installEverywhere(grads::services::software::kSrsLibrary);
  w.nws.emplace(w.eng, w.g, 120.0, 0.0, 9);
  w.ibp.emplace(w.g);
  w.autopilot.emplace(w.eng);
  w.journal.emplace(w.eng);
  w.mgr.emplace(w.g, *w.gis, &*w.nws, *w.ibp, *w.autopilot);
  const double refRate = w.g.node(slots.front()).spec().effectiveFlopsPerCpu();
  w.meta.emplace(*w.mgr, w.g, *w.gis, &*w.nws, &*w.journal,
                 makeFrontend(slots, refRate, seed));
}

class TenantOverload final : public Workload {
 public:
  /// A set-up is one world build, some 20 us, so many are timed.
  Sampling sampling() const override { return {0.75, 201}; }

  /// Builds the world the next phase runs.
  void setup(std::uint64_t seed, Probe&) override {
    seed_ = 1 + deriveSeed(seed, 0) % 1000000;
    world_ = std::make_unique<World>();
    buildWorld(*world_, seed_);
  }

  void warmUp(Probe& probe) override { runPhase(probe); }

  /// Runs the world set-up built. The timed window covers start-up, the run
  /// to drain, and the check; the world for the next phase is built after
  /// it, outside the window.
  PhaseResult runPhase(Probe& probe) override {
    Counters& c = probe.count();
    const std::unique_ptr<World> built = std::move(world_);
    World& w = *built;
    w.journal->setOnTransition(
        [&c](const grads::reschedule::ActionRecord&) { ++c.journalTransitions; });
    w.meta->setOnTransition([&c](const char*) { ++c.metaTransitions; });
    w.meta->setOnSample([&c](double, std::int64_t, std::int64_t, std::int64_t,
                             double, metasched::BrownoutLevel) {
      ++c.metaTicks;
    });
    // Per-op host latency: host time since the previous job completion.
    // The arm is deterministic, so completion k is the same work in every
    // phase.
    PhaseResult res;
    Clock::time_point last = Clock::now();
    w.meta->setOnJobComplete([&res, &last](const metasched::JobStats&) {
      const Clock::time_point now = Clock::now();
      res.opMs.push_back(std::chrono::duration<double, std::milli>(now - last)
                             .count());
      last = now;
    });

    const Clock::time_point start = Clock::now();
    last = start;
    {
      probe.setOp(0);
      Scope opSpan(probe, Layer::kOp);
      Scope simSpan(probe, Layer::kSimRun);
      w.nws->start();
      w.meta->start();
      w.eng.run();
    }
    w.eng.rethrowIfFailed();

    const metasched::FrontendTotals t = w.meta->totals();
    std::vector<double> slow = w.meta->allSlowdowns();
    std::sort(slow.begin(), slow.end());
    grads::util::DigestStream ds;
    for (const std::int64_t v :
         {t.submitted, t.admitted, t.shed, t.resubmits, t.abandoned,
          t.dispatched, t.completed, t.failed, t.preempted, t.parks,
          t.unparked, t.deferrals, t.unserved, t.brownoutEscalations,
          t.brownoutDeescalations, t.peakQueueDepth, t.peakInSystem}) {
      ds.put(static_cast<std::uint64_t>(v));
    }
    ds.put(t.busySlotSeconds);
    ds.put(t.meanQueueDepth);
    ds.put(slow.empty() ? 0.0 : grads::stats::quantile(slow, 0.5));
    ds.put(slow.empty() ? 0.0 : grads::stats::quantile(slow, 0.99));
    ds.put(w.eng.now());
    Outcome out;
    out.digest = ds.digest();
    out.ops = static_cast<std::uint64_t>(t.admitted);
    out.failedOps = static_cast<std::uint64_t>(t.admitted - t.completed);
    if (!w.meta->drained()) out.failedOps = out.ops;
    res.outcomes.push_back(out);
    res.wallSec = secondsSince(start);

    noteWorld(c, w);
    noteFinished(c, w);
    world_ = std::make_unique<World>();
    buildWorld(*world_, seed_);
    return res;
  }

 private:
  std::uint64_t seed_ = 0;
  std::unique_ptr<World> world_;
};

}  // namespace

std::unique_ptr<Workload> makeTenantOverload() {
  return std::make_unique<TenantOverload>();
}

}  // namespace perfbench
