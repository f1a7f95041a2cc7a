#include "workflow/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <utility>

#include "util/error.hpp"

namespace grads::workflow {

const char* heuristicName(Heuristic h) {
  switch (h) {
    case Heuristic::kMinMin: return "min-min";
    case Heuristic::kMaxMin: return "max-min";
    case Heuristic::kSufferage: return "sufferage";
    case Heuristic::kBestOfThree: return "best-of-3";
  }
  return "?";
}

const Assignment& Schedule::of(ComponentId c) const {
  for (const auto& a : assignments) {
    if (a.component == c) return a;
  }
  throw InvalidArgument("Schedule::of: component not scheduled");
}

WorkflowScheduler::WorkflowScheduler(const Estimator& estimator,
                                     std::vector<grid::NodeId> resources,
                                     RankWeights weights)
    : estimator_(&estimator),
      resources_(std::move(resources)),
      weights_(weights) {
  GRADS_REQUIRE(!resources_.empty(), "WorkflowScheduler: no resources");
  GRADS_REQUIRE(weights_.w1 >= 0.0 && weights_.w2 >= 0.0,
                "WorkflowScheduler: negative weights");
}

double WorkflowScheduler::rank(
    const Dag& dag, ComponentId c, grid::NodeId node,
    const std::map<ComponentId, grid::NodeId>& placed) const {
  const double e = estimator_->ecost(dag.component(c), node);
  if (e == kInfeasible) return kInfeasible;
  double d = 0.0;
  for (const auto& edge : dag.inEdges(c)) {
    const auto it = placed.find(edge.from);
    GRADS_ASSERT(it != placed.end(), "rank: predecessor not yet placed");
    d += estimator_->transferCost(it->second, node, edge.bytes);
  }
  return weights_.w1 * e + weights_.w2 * d;
}

namespace {
constexpr std::size_t kNoResource = static_cast<std::size_t>(-1);

struct Candidate {
  ComponentId c = 0;
  std::size_t bestR = kNoResource;    // index into resources
  std::size_t secondR = kNoResource;  // where secondCt is attained
  double bestCt = kInfeasible;
  double secondCt = kInfeasible;
  double readyAt = 0.0;
  std::size_t row = 0;  // offset of this candidate's rank row (incremental)
};

double sufferageOf(const Candidate& x) {
  return x.secondCt == kInfeasible ? kInfeasible : x.secondCt - x.bestCt;
}

/// Strict total order over candidates for one heuristic pick: every
/// comparison chain ends at ComponentId, so the winner never depends on the
/// order candidates are visited in. Sufferage ties (including several
/// candidates stuck at sufferage = ∞ because each has a single feasible
/// resource) fall back to (bestCt, ComponentId).
bool betterPick(Heuristic h, const Candidate& a, const Candidate& b) {
  switch (h) {
    case Heuristic::kMinMin:
      if (a.bestCt != b.bestCt) return a.bestCt < b.bestCt;
      return a.c < b.c;
    case Heuristic::kMaxMin:
      if (a.bestCt != b.bestCt) return a.bestCt > b.bestCt;
      return a.c < b.c;
    case Heuristic::kSufferage: {
      const double sa = sufferageOf(a);
      const double sb = sufferageOf(b);
      if (sa != sb) return sa > sb;
      if (a.bestCt != b.bestCt) return a.bestCt < b.bestCt;
      return a.c < b.c;
    }
    case Heuristic::kBestOfThree: break;
  }
  GRADS_ASSERT(false, "betterPick: kBestOfThree is not a row heuristic");
  return false;
}

/// Rescans a candidate's completion times from its (fixed) rank row and the
/// current avail[] vector. First index wins value ties, exactly like the
/// reference scan, so best/second identities match a from-scratch rebuild.
void recomputeBestSecond(Candidate& cand, const double* row,
                         const std::vector<double>& avail) {
  cand.bestR = kNoResource;
  cand.secondR = kNoResource;
  cand.bestCt = kInfeasible;
  cand.secondCt = kInfeasible;
  for (std::size_t r = 0; r < avail.size(); ++r) {
    if (row[r] == kInfeasible) continue;
    const double ct = std::max(avail[r], cand.readyAt) + row[r];
    if (ct < cand.bestCt) {
      cand.secondCt = cand.bestCt;
      cand.secondR = cand.bestR;
      cand.bestCt = ct;
      cand.bestR = r;
    } else if (ct < cand.secondCt) {
      cand.secondCt = ct;
      cand.secondR = r;
    }
  }
}

void requireIdentical(const Schedule& got, const Schedule& ref) {
  GRADS_REQUIRE(got.assignments.size() == ref.assignments.size(),
                "scheduler cross-check: assignment counts differ");
  for (std::size_t i = 0; i < got.assignments.size(); ++i) {
    const Assignment& a = got.assignments[i];
    const Assignment& b = ref.assignments[i];
    GRADS_REQUIRE(a.component == b.component && a.node == b.node &&
                      a.start == b.start && a.finish == b.finish,
                  "scheduler cross-check: incremental loop diverged from the "
                  "reference loop at pick " +
                      std::to_string(i));
  }
  GRADS_REQUIRE(got.makespan == ref.makespan,
                "scheduler cross-check: makespan differs");
}
}  // namespace

/// Per-schedule()-call scratch: ecost rows cached per (component, node) —
/// ecost is placement-independent — and transfer rows cached per (source
/// node, bytes), so each (source, destination, bytes) triple is priced once.
/// Both caches serve every candidate, every pick and all three heuristic runs
/// of kBestOfThree, as the Estimator contract allows.
struct WorkflowScheduler::Workspace {
  // Transfer rows keyed on (source node, bit pattern of bytes), so equal keys
  // mean equal arguments; a row holds one entry per resource.
  using TransferRows =
      std::map<std::pair<grid::NodeId, std::uint64_t>,
               std::vector<std::optional<double>>>;
  using TransferRow = TransferRows::value_type;

  Workspace(std::size_t components, std::size_t resources)
      : ecost(components * resources, 0.0), ecostReady(components, 0) {}

  std::vector<double> ecost;     // [c * R + r], filled row-at-a-time
  std::vector<char> ecostReady;  // [c]
  TransferRows transfers;        // filled entry-at-a-time

  const double* ecostRow(const Estimator& est, const Dag& dag, ComponentId c,
                         const std::vector<grid::NodeId>& resources) {
    double* row = &ecost[c * resources.size()];
    if (!ecostReady[c]) {
      for (std::size_t r = 0; r < resources.size(); ++r) {
        row[r] = est.ecost(dag.component(c), resources[r]);
      }
      ecostReady[c] = 1;
    }
    return row;
  }

  /// The transfer row for `bytes` leaving node `from`, added unpriced on
  /// first use.
  TransferRow& transferRow(grid::NodeId from, double bytes,
                           const std::vector<grid::NodeId>& resources) {
    return *transfers
                .try_emplace({from, std::bit_cast<std::uint64_t>(bytes)},
                             resources.size())
                .first;
  }

  /// Cost of `row` to resources[r], priced on first use: only entries the
  /// loop asks for are priced, never an infeasible resource.
  double transferCost(const Estimator& est, TransferRow& row, std::size_t r,
                      const std::vector<grid::NodeId>& resources) {
    std::optional<double>& cost = row.second[r];
    if (!cost) {
      cost = est.transferCost(row.first.first, resources[r],
                              std::bit_cast<double>(row.first.second));
    }
    return *cost;
  }
};

Schedule WorkflowScheduler::scheduleOne(const Dag& dag, Heuristic h,
                                        Workspace& ws) const {
  Schedule sched;
  sched.heuristic = h;
  const std::size_t nr = resources_.size();

  std::vector<std::size_t> remaining(dag.size(), 0);
  std::vector<ComponentId> ready;
  for (ComponentId c = 0; c < dag.size(); ++c) {
    remaining[c] = dag.inEdges(c).size();
    if (remaining[c] == 0) ready.push_back(c);
  }

  std::vector<double> avail(nr, 0.0);
  std::vector<grid::NodeId> placedNode(dag.size(), 0);
  std::vector<double> finish(dag.size(), 0.0);
  std::size_t scheduled = 0;
  std::vector<Candidate> cands;
  std::vector<double> rankMatrix;  // batch-local rows of length nr
  std::vector<Workspace::TransferRow*> edgeRows;  // one per in-edge

  while (scheduled < dag.size()) {
    GRADS_REQUIRE(!ready.empty(), "WorkflowScheduler: cyclic dependences");

    // Build the performance-matrix rows once per batch. A row is constant
    // while the batch drains — every predecessor was placed in an earlier
    // batch — so the only part of a completion time that can change is the
    // avail[] term, and a placement changes avail[] of exactly one resource.
    cands.clear();
    cands.reserve(ready.size());
    rankMatrix.assign(ready.size() * nr, kInfeasible);
    for (std::size_t i = 0; i < ready.size(); ++i) {
      const ComponentId c = ready[i];
      Candidate cand;
      cand.c = c;
      cand.row = i * nr;
      const double* ecostRow = ws.ecostRow(*estimator_, dag, c, resources_);
      edgeRows.clear();
      for (const Edge& edge : dag.inEdges(c)) {
        cand.readyAt = std::max(cand.readyAt, finish[edge.from]);
        edgeRows.push_back(
            &ws.transferRow(placedNode[edge.from], edge.bytes, resources_));
      }
      double* row = &rankMatrix[cand.row];
      for (std::size_t r = 0; r < nr; ++r) {
        const double e = ecostRow[r];
        if (e == kInfeasible) continue;  // row entry stays kInfeasible
        double d = 0.0;
        for (Workspace::TransferRow* t : edgeRows) {
          d += ws.transferCost(*estimator_, *t, r, resources_);
        }
        row[r] = weights_.w1 * e + weights_.w2 * d;
      }
      recomputeBestSecond(cand, row, avail);
      GRADS_REQUIRE(cand.bestCt != kInfeasible,
                    "WorkflowScheduler: no feasible resource for " +
                        dag.component(c).name);
      cands.push_back(cand);
    }
    ready.clear();

    while (!cands.empty()) {
      // betterPick is a strict total order, so a linear scan finds the same
      // winner no matter how the candidate list is arranged.
      std::size_t pick = 0;
      for (std::size_t i = 1; i < cands.size(); ++i) {
        if (betterPick(h, cands[i], cands[pick])) pick = i;
      }
      const Candidate chosen = cands[pick];
      const ComponentId c = chosen.c;
      const std::size_t rStar = chosen.bestR;
      const grid::NodeId node = resources_[rStar];

      // Record with unweighted cost estimates (ranks steer, costs account).
      // Transfer costs are re-accumulated in edge order so the floating-
      // point association matches the reference loop exactly.
      double cost = ws.ecostRow(*estimator_, dag, c, resources_)[rStar];
      for (const Edge& edge : dag.inEdges(c)) {
        cost += ws.transferCost(
            *estimator_,
            ws.transferRow(placedNode[edge.from], edge.bytes, resources_),
            rStar, resources_);
      }
      Assignment a;
      a.component = c;
      a.node = node;
      a.start = std::max(avail[rStar], chosen.readyAt);
      a.finish = a.start + cost;
      avail[rStar] = a.finish;
      finish[c] = a.finish;
      placedNode[c] = node;
      sched.assignments.push_back(a);
      sched.makespan = std::max(sched.makespan, a.finish);
      ++scheduled;

      cands[pick] = std::move(cands.back());
      cands.pop_back();

      // Incremental maintenance: only avail[rStar] changed (and only
      // upward), so for any candidate with rStar ∉ {bestR, secondR} the
      // completion time on rStar was already >= secondCt >= bestCt and only
      // grew — neither the best/second values nor their first-index-wins
      // identities can have changed. Everyone else gets a full O(R) rescan
      // of their cached row.
      for (Candidate& cand : cands) {
        if (cand.bestR == rStar || cand.secondR == rStar) {
          recomputeBestSecond(cand, &rankMatrix[cand.row], avail);
        }
      }

      // Unlock successors; sorted below so the next batch is built in
      // ascending ComponentId order like the reference loop's rescan.
      for (const ComponentId s : dag.successors(c)) {
        if (--remaining[s] == 0) ready.push_back(s);
      }
    }
    std::sort(ready.begin(), ready.end());
  }
  return sched;
}

Schedule WorkflowScheduler::scheduleOneReference(const Dag& dag,
                                                 Heuristic h) const {
  Schedule sched;
  sched.heuristic = h;

  std::vector<ComponentId> ready;
  for (ComponentId c = 0; c < dag.size(); ++c) {
    if (dag.inEdges(c).empty()) ready.push_back(c);
  }

  std::vector<double> avail(resources_.size(), 0.0);
  std::map<ComponentId, grid::NodeId> placed;
  std::vector<double> finish(dag.size(), 0.0);
  std::size_t scheduled = 0;

  while (scheduled < dag.size()) {
    GRADS_REQUIRE(!ready.empty(), "WorkflowScheduler: cyclic dependences");
    std::vector<ComponentId> batch = std::move(ready);
    ready.clear();

    while (!batch.empty()) {
      // Build the performance-matrix row (rank-based completion times) for
      // every unscheduled component in the batch, from scratch each pick.
      std::vector<Candidate> cands;
      cands.reserve(batch.size());
      for (const ComponentId c : batch) {
        Candidate cand;
        cand.c = c;
        for (const auto& edge : dag.inEdges(c)) {
          cand.readyAt = std::max(cand.readyAt, finish[edge.from]);
        }
        for (std::size_t r = 0; r < resources_.size(); ++r) {
          const double rk = rank(dag, c, resources_[r], placed);
          if (rk == kInfeasible) continue;
          const double ct = std::max(avail[r], cand.readyAt) + rk;
          if (ct < cand.bestCt) {
            cand.secondCt = cand.bestCt;
            cand.secondR = cand.bestR;
            cand.bestCt = ct;
            cand.bestR = r;
          } else if (ct < cand.secondCt) {
            cand.secondCt = ct;
            cand.secondR = r;
          }
        }
        GRADS_REQUIRE(cand.bestCt != kInfeasible,
                      "WorkflowScheduler: no feasible resource for " +
                          dag.component(c).name);
        cands.push_back(cand);
      }

      // Select per heuristic (same strict total order as the incremental
      // loop).
      std::size_t pick = 0;
      for (std::size_t i = 1; i < cands.size(); ++i) {
        if (betterPick(h, cands[i], cands[pick])) pick = i;
      }

      const Candidate& chosen = cands[pick];
      const ComponentId c = chosen.c;
      const grid::NodeId node = resources_[chosen.bestR];

      // Record with unweighted cost estimates (ranks steer, costs account).
      double cost = estimator_->ecost(dag.component(c), node);
      for (const auto& edge : dag.inEdges(c)) {
        cost += estimator_->transferCost(placed.at(edge.from), node, edge.bytes);
      }
      Assignment a;
      a.component = c;
      a.node = node;
      a.start = std::max(avail[chosen.bestR], chosen.readyAt);
      a.finish = a.start + cost;
      avail[chosen.bestR] = a.finish;
      finish[c] = a.finish;
      placed[c] = node;
      sched.assignments.push_back(a);
      sched.makespan = std::max(sched.makespan, a.finish);
      ++scheduled;
      batch.erase(batch.begin() + static_cast<std::ptrdiff_t>(pick));
    }

    // Unlock successors whose predecessors are all scheduled.
    for (ComponentId c = 0; c < dag.size(); ++c) {
      if (placed.count(c) > 0) continue;
      bool allDone = true;
      for (const auto& edge : dag.inEdges(c)) {
        if (placed.count(edge.from) == 0) {
          allDone = false;
          break;
        }
      }
      if (allDone && std::find(ready.begin(), ready.end(), c) == ready.end()) {
        ready.push_back(c);
      }
    }
  }
  return sched;
}

Schedule WorkflowScheduler::schedule(const Dag& dag, Heuristic h) const {
  GRADS_REQUIRE(dag.size() > 0, "WorkflowScheduler: empty DAG");
  Workspace ws(dag.size(), resources_.size());
  const auto runOne = [&](Heuristic hh) {
    Schedule s = scheduleOne(dag, hh, ws);
    if (crossCheck_) requireIdentical(s, scheduleOneReference(dag, hh));
    return s;
  };
  if (h != Heuristic::kBestOfThree) return runOne(h);
  // Paper §3.1: run all three, keep the minimum-makespan schedule.
  Schedule best;
  bool first = true;
  for (const auto hh :
       {Heuristic::kMinMin, Heuristic::kMaxMin, Heuristic::kSufferage}) {
    Schedule s = runOne(hh);
    if (first || s.makespan < best.makespan) {
      best = std::move(s);
      first = false;
    }
  }
  return best;
}

Schedule WorkflowScheduler::scheduleReference(const Dag& dag,
                                              Heuristic h) const {
  GRADS_REQUIRE(dag.size() > 0, "WorkflowScheduler: empty DAG");
  if (h != Heuristic::kBestOfThree) return scheduleOneReference(dag, h);
  Schedule best;
  bool first = true;
  for (const auto hh :
       {Heuristic::kMinMin, Heuristic::kMaxMin, Heuristic::kSufferage}) {
    Schedule s = scheduleOneReference(dag, hh);
    if (first || s.makespan < best.makespan) {
      best = std::move(s);
      first = false;
    }
  }
  return best;
}

namespace {
/// Shared skeleton for the baseline schedulers: walk in topological order,
/// pick a node via `choose(eligible)`, account costs with the estimator.
template <typename Chooser>
Schedule scheduleBaseline(const Dag& dag, const Estimator& estimator,
                          const std::vector<grid::NodeId>& resources,
                          Chooser choose) {
  GRADS_REQUIRE(!resources.empty(), "baseline scheduler: no resources");
  Schedule sched;
  std::vector<double> avail(resources.size(), 0.0);
  std::map<ComponentId, grid::NodeId> placed;
  std::vector<double> finish(dag.size(), 0.0);

  for (const ComponentId c : dag.topologicalOrder()) {
    std::vector<std::size_t> eligible;
    for (std::size_t r = 0; r < resources.size(); ++r) {
      if (estimator.ecost(dag.component(c), resources[r]) != kInfeasible) {
        eligible.push_back(r);
      }
    }
    GRADS_REQUIRE(!eligible.empty(),
                  "baseline scheduler: no feasible resource for " +
                      dag.component(c).name);
    const std::size_t r = choose(eligible, avail);
    const grid::NodeId node = resources[r];

    double readyAt = 0.0;
    double cost = estimator.ecost(dag.component(c), node);
    for (const auto& edge : dag.inEdges(c)) {
      readyAt = std::max(readyAt, finish[edge.from]);
      cost += estimator.transferCost(placed.at(edge.from), node, edge.bytes);
    }
    Assignment a;
    a.component = c;
    a.node = node;
    a.start = std::max(avail[r], readyAt);
    a.finish = a.start + cost;
    avail[r] = a.finish;
    finish[c] = a.finish;
    placed[c] = node;
    sched.assignments.push_back(a);
    sched.makespan = std::max(sched.makespan, a.finish);
  }
  return sched;
}
}  // namespace

Schedule scheduleDagmanStyle(const Dag& dag, const Estimator& estimator,
                             const std::vector<grid::NodeId>& resources) {
  return scheduleBaseline(
      dag, estimator, resources,
      [](const std::vector<std::size_t>& eligible,
         const std::vector<double>& avail) {
        // First idle eligible machine, no performance model.
        std::size_t best = eligible[0];
        for (const auto r : eligible) {
          if (avail[r] < avail[best]) best = r;
        }
        return best;
      });
}

Schedule scheduleRandom(const Dag& dag, const Estimator& estimator,
                        const std::vector<grid::NodeId>& resources, Rng& rng) {
  return scheduleBaseline(
      dag, estimator, resources,
      [&rng](const std::vector<std::size_t>& eligible,
             const std::vector<double>&) {
        return eligible[static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(eligible.size()) - 1))];
      });
}

Schedule scheduleRoundRobin(const Dag& dag, const Estimator& estimator,
                            const std::vector<grid::NodeId>& resources) {
  std::size_t next = 0;
  return scheduleBaseline(
      dag, estimator, resources,
      [&next](const std::vector<std::size_t>& eligible,
              const std::vector<double>&) {
        return eligible[next++ % eligible.size()];
      });
}

Schedule evaluateMapping(const Dag& dag, const Estimator& truth,
                         const std::vector<Assignment>& mapping) {
  GRADS_REQUIRE(mapping.size() == dag.size(),
                "evaluateMapping: mapping does not cover the DAG");
  Schedule out;
  std::vector<grid::NodeId> nodeOf(dag.size(), grid::kNoId);
  std::map<grid::NodeId, double> avail;
  std::vector<double> finish(dag.size(), 0.0);
  for (Assignment a : mapping) {
    const ComponentId c = a.component;
    GRADS_REQUIRE(c < dag.size() && nodeOf[c] == grid::kNoId,
                  "evaluateMapping: mapping does not cover the DAG");
    double readyAt = 0.0;
    double cost = truth.ecost(dag.component(c), a.node);
    GRADS_REQUIRE(cost != kInfeasible,
                  "evaluateMapping: infeasible placement for " +
                      dag.component(c).name);
    for (const auto& edge : dag.inEdges(c)) {
      GRADS_REQUIRE(nodeOf[edge.from] != grid::kNoId,
                    "evaluateMapping: " + dag.component(c).name +
                        " is mapped before its input " +
                        dag.component(edge.from).name);
      readyAt = std::max(readyAt, finish[edge.from]);
      cost += truth.transferCost(nodeOf[edge.from], a.node, edge.bytes);
    }
    nodeOf[c] = a.node;
    a.start = std::max(avail[a.node], readyAt);
    a.finish = a.start + cost;
    avail[a.node] = a.finish;
    finish[c] = a.finish;
    out.assignments.push_back(a);
    out.makespan = std::max(out.makespan, a.finish);
  }
  return out;
}

}  // namespace grads::workflow
