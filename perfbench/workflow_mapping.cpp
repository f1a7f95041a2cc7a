// workflow-mapping: one op is one WorkflowScheduler::schedule() call, with
// min-min, max-min, sufferage and best-of-three over seeded DAGs — the EMAN
// refinement DAG (24-way) on the EMAN testbed, LIGO-like and
// parameter-sweep DAGs on the MacroGrid. Ranking uses an NWS-informed
// GridEstimator warmed by 600 simulated seconds of sampling during set-up.
// Each phase runs four rounds, each over its own DAGs; before each round
// the NWS sensors sample for another 60 simulated seconds, so the round
// schedules against fresh forecasts, as a scheduler invoked periodically on
// a live grid would.
//
// The sensor noise seeds are testbed constants, not drawn from the workload
// seed: the estimator's cost per call depends on which forecaster wins each
// series, which the noise decides, and a drawn noise seed moved a phase's
// cost by up to a fifth between workload seeds with identical work.

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "apps/eman.hpp"
#include "grid/testbeds.hpp"
#include "services/gis.hpp"
#include "services/nws.hpp"
#include "sim/engine.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "workflow/builders.hpp"
#include "workflow/scheduler.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

namespace workflow = grads::workflow;

constexpr double kWarmUpSec = 600.0;
constexpr double kRoundSec = 60.0;
constexpr int kRounds = 4;
constexpr std::uint64_t kEmanNwsSeed = 9;
constexpr std::uint64_t kMacroNwsSeed = 10;
/// DAGs per round (each round gets its own): one EMAN, then LIGO-like and
/// parameter sweeps. The counts keep the p50 and p90 ranks inside an
/// op-cost group (sweep < LIGO < EMAN single heuristic < EMAN
/// best-of-three) rather than on a boundary between two.
constexpr int kLigoDags = 5;
constexpr int kSweepDags = 2;
constexpr std::size_t kLigoTemplates = 32;
constexpr std::size_t kSweepTasks = 48;

constexpr workflow::Heuristic kHeuristics[] = {
    workflow::Heuristic::kMinMin, workflow::Heuristic::kMaxMin,
    workflow::Heuristic::kSufferage, workflow::Heuristic::kBestOfThree};

/// Estimator wrapper that counts and times every call into the estimator
/// (and through it the NWS forecasters). Installed only in traced phases.
class TimingEstimator final : public workflow::Estimator {
 public:
  TimingEstimator(const workflow::Estimator& inner, Counters& c)
      : inner_(&inner), c_(&c) {}

  double ecost(const workflow::Component& comp,
               grads::grid::NodeId node) const override {
    const Clock::time_point t0 = Clock::now();
    const double v = inner_->ecost(comp, node);
    c_->estimatorSec += secondsSince(t0);
    ++c_->ecostCalls;
    return v;
  }
  double transferCost(grads::grid::NodeId from, grads::grid::NodeId to,
                      double bytes) const override {
    const Clock::time_point t0 = Clock::now();
    const double v = inner_->transferCost(from, to, bytes);
    c_->estimatorSec += secondsSince(t0);
    ++c_->transferCalls;
    return v;
  }

 private:
  const workflow::Estimator* inner_;
  Counters* c_;
};

/// One testbed with its NWS sensors and the NWS-informed estimator.
struct Site {
  grads::sim::Engine eng;
  grads::grid::Grid g{eng};
  std::optional<grads::services::Gis> gis;
  std::optional<grads::services::Nws> nws;
  std::optional<workflow::GridEstimator> estimator;
  std::size_t warmEvents = 0;
  std::size_t warmSamples = 0;

  void finish(std::uint64_t nwsSeed) {
    gis.emplace(g);
    gis->installEverywhere("eman");
    nws.emplace(eng, g, 10.0, 0.03, nwsSeed);
    estimator.emplace(*gis, &*nws);
    nws->start();
    eng.runUntil(kWarmUpSec);
    warmEvents = eng.processedEvents();
    warmSamples = nws->samplesTaken();
  }
};

class WorkflowMapping final : public Workload {
 public:
  Sampling sampling() const override { return {2.0, 21}; }

  void setup(std::uint64_t seed, Probe&) override {
    grads::Rng rng(deriveSeed(seed, 0));
    for (std::vector<workflow::Dag>& dags : dags_) {
      dags.clear();
      grads::apps::EmanConfig cfg;
      cfg.particles =
          190000 + static_cast<std::size_t>(rng.uniformInt(0, 20000));
      cfg.parallelism = 24;
      dags.push_back(grads::apps::buildEmanRefinementDag(cfg));
      for (int i = 0; i < kLigoDags; ++i) {
        dags.push_back(workflow::makeLigoLike(kLigoTemplates, rng));
      }
      for (int i = 0; i < kSweepDags; ++i) {
        dags.push_back(workflow::makeParameterSweep(kSweepTasks, rng));
      }
    }
    buildSites();
  }

  void warmUp(Probe&) override {
    const workflow::WorkflowScheduler ws(*eman_->estimator,
                                        eman_->g.allNodes());
    (void)ws.schedule(dags_[0].front(),
                      workflow::Heuristic::kBestOfThree);
  }

  /// The testbeds are rebuilt and re-warmed after each phase, outside the
  /// timed window, so every phase starts from the identical NWS state.
  PhaseResult runPhase(Probe& probe) override {
    Counters& c = probe.count();
    PhaseResult res;
    const Clock::time_point start = Clock::now();
    std::uint32_t op = 0;
    std::optional<TimingEstimator> emanTimed;
    std::optional<TimingEstimator> macroTimed;
    const workflow::Estimator* emanEst = &*eman_->estimator;
    const workflow::Estimator* macroEst = &*macro_->estimator;
    if (probe.tracing()) {
      emanEst = &emanTimed.emplace(*emanEst, c);
      macroEst = &macroTimed.emplace(*macroEst, c);
    }
    const workflow::WorkflowScheduler emanSched(*emanEst, eman_->g.allNodes());
    const workflow::WorkflowScheduler macroSched(*macroEst,
                                                 macro_->g.allNodes());
    for (int round = 0; round < kRounds; ++round) {
      {
        Scope span(probe, Layer::kSimRun);
        const double until = kWarmUpSec + kRoundSec * (round + 1);
        eman_->eng.runUntil(until);
        macro_->eng.runUntil(until);
      }
      for (std::size_t d = 0; d < dags_[round].size(); ++d) {
        const workflow::Dag& dag = dags_[round][d];
        const workflow::WorkflowScheduler& ws = d == 0 ? emanSched : macroSched;
        double bestSingle = workflow::kInfeasible;
        for (const workflow::Heuristic h : kHeuristics) {
          probe.setOp(op++);
          const Clock::time_point t0 = Clock::now();
          workflow::Schedule s;
          {
            Scope opSpan(probe, Layer::kOp);
            Scope span(probe, Layer::kScheduler);
            s = ws.schedule(dag, h);
          }
          res.opMs.push_back(secondsSince(t0) * 1e3);
          ++c.schedulerCalls;
          c.schedulerComponents += dag.size();
          res.outcomes.push_back(check(dag, h, s, bestSingle));
        }
      }
    }
    res.wallSec = secondsSince(start);

    for (const Site* site : {eman_.get(), macro_.get()}) {
      c.noteEngine(site->eng);
      c.events -= site->warmEvents;  // warm-up events belong to set-up
      c.nwsSamples += site->nws->samplesTaken() - site->warmSamples;
      c.noteFlows(site->g);
    }
    buildSites();
    return res;
  }

 private:
  /// Folds makespan and assignment list; a schedule that misses a
  /// component, or a best-of-three that is not the best of its three
  /// heuristics, is a failed op.
  static Outcome check(const workflow::Dag& dag, workflow::Heuristic h,
                       const workflow::Schedule& s, double& bestSingle) {
    Outcome out;
    out.failedOps = s.assignments.size() == dag.size() ? 0 : 1;
    if (h == workflow::Heuristic::kBestOfThree) {
      if (s.makespan != bestSingle) out.failedOps = 1;
    } else {
      bestSingle = std::min(bestSingle, s.makespan);
    }
    grads::util::DigestStream ds;
    ds.put(s.makespan);
    for (const workflow::Assignment& a : s.assignments) {
      ds.put(static_cast<std::uint64_t>(a.component));
      ds.put(static_cast<std::uint64_t>(a.node));
      ds.put(a.start);
      ds.put(a.finish);
    }
    out.digest = ds.digest();
    return out;
  }

  void buildSites() {
    eman_ = std::make_unique<Site>();
    grads::grid::buildEmanTestbed(eman_->g);
    eman_->finish(kEmanNwsSeed);
    macro_ = std::make_unique<Site>();
    grads::grid::buildMacroGrid(macro_->g);
    macro_->finish(kMacroNwsSeed);
  }

  /// Each round's DAGs, the EMAN one first.
  std::vector<workflow::Dag> dags_[kRounds];
  std::unique_ptr<Site> eman_;
  std::unique_ptr<Site> macro_;
};

}  // namespace

std::unique_ptr<Workload> makeWorkflowMapping() {
  return std::make_unique<WorkflowMapping>();
}

}  // namespace perfbench
