#pragma once

#include <map>
#include <vector>

#include "util/rng.hpp"
#include "workflow/estimator.hpp"

namespace grads::workflow {

/// Batch-mode mapping heuristics from the scheduling literature the paper
/// applies ([3], [19]): min-min, max-min, sufferage — plus the paper's
/// actual strategy, best-of-three ("We apply three heuristics to obtain
/// three mappings and then select the schedule with the minimum makespan").
enum class Heuristic { kMinMin, kMaxMin, kSufferage, kBestOfThree };

const char* heuristicName(Heuristic h);

struct Assignment {
  ComponentId component = 0;
  grid::NodeId node = 0;
  double start = 0.0;   ///< includes data arrival and resource availability
  double finish = 0.0;
};

struct Schedule {
  std::vector<Assignment> assignments;  ///< in scheduling order
  double makespan = 0.0;
  Heuristic heuristic = Heuristic::kMinMin;

  const Assignment& of(ComponentId c) const;
};

/// Rank weights: rank = w1·ecost + w2·dcost ("the weights w1 and w2 can be
/// customized to vary the relative importance of the two costs").
struct RankWeights {
  double w1 = 1.0;
  double w2 = 1.0;
};

/// The GrADS workflow scheduler (paper §3.1): resolves DAG dependences,
/// ranks eligible resources per component via the performance-matrix, and
/// maps ready batches with the selected heuristic.
///
/// The batch loop is incremental: a candidate's rank row is constant while
/// its batch drains (all predecessors were placed in earlier batches), so
/// after a placement on resource r only candidates whose best or second-best
/// completion time sat on r are rescanned. Within a schedule() call the
/// Estimator is asked once per (component, node) for ecost and once per
/// (source node, destination, bytes) for a transfer; every candidate, pick
/// and best-of-three run reuses those answers. Ties are broken
/// deterministically — see scheduleReference() / setCrossCheck() for the
/// executable specification this is held to.
class WorkflowScheduler {
 public:
  WorkflowScheduler(const Estimator& estimator,
                    std::vector<grid::NodeId> resources,
                    RankWeights weights = {});

  Schedule schedule(const Dag& dag, Heuristic h) const;

  /// The naive O(B²·R) batch loop, kept as the executable specification of
  /// schedule(): it recomputes every rank from the Estimator at every pick
  /// and rescans every candidate. Identical selection rules, so the
  /// incremental loop must reproduce it bit-for-bit.
  Schedule scheduleReference(const Dag& dag, Heuristic h) const;

  /// When enabled, every schedule() additionally runs scheduleReference()
  /// and requires the two schedules to be identical field-by-field
  /// (component, node, and exact `==` on start/finish/makespan doubles).
  /// Defaults to enabled in debug builds, disabled under NDEBUG.
  void setCrossCheck(bool on) { crossCheck_ = on; }
  bool crossCheckEnabled() const { return crossCheck_; }

  /// The rank/performance matrix entry p_ij for a component on a node given
  /// already-placed predecessors (exposed for tests and the paper's matrix
  /// description).
  double rank(const Dag& dag, ComponentId c, grid::NodeId node,
              const std::map<ComponentId, grid::NodeId>& placed) const;

 private:
  struct Workspace;

  Schedule scheduleOne(const Dag& dag, Heuristic h, Workspace& ws) const;
  Schedule scheduleOneReference(const Dag& dag, Heuristic h) const;

#ifdef NDEBUG
  static constexpr bool kCrossCheckDefault = false;
#else
  static constexpr bool kCrossCheckDefault = true;
#endif

  const Estimator* estimator_;
  std::vector<grid::NodeId> resources_;
  RankWeights weights_;
  bool crossCheck_ = kCrossCheckDefault;
};

/// Baselines for the evaluation:
/// Condor-DAGMan-style dependency-order greedy matchmaking — no performance
/// models, first component to the first idle eligible machine ("existing
/// approaches to workflow scheduling ... are not able to effectively exploit
/// the performance modeling available within GrADS").
Schedule scheduleDagmanStyle(const Dag& dag, const Estimator& estimator,
                             const std::vector<grid::NodeId>& resources);
/// Random eligible placement.
Schedule scheduleRandom(const Dag& dag, const Estimator& estimator,
                        const std::vector<grid::NodeId>& resources, Rng& rng);
/// Round-robin over eligible resources.
Schedule scheduleRoundRobin(const Dag& dag, const Estimator& estimator,
                            const std::vector<grid::NodeId>& resources);

/// Recomputes start/finish/makespan of a fixed mapping under a (possibly
/// different, e.g. ground-truth) estimator, respecting dependences and
/// resource serialization. Used to score NWS-informed schedules honestly.
/// Walks `mapping` in its given order, so components that share a node run
/// in that order, and returns the assignments in it; every input of a
/// component must be mapped before it (InvalidArgument otherwise). Re-scoring
/// a schedule under the estimator that made it reproduces it exactly.
Schedule evaluateMapping(const Dag& dag, const Estimator& truth,
                         const std::vector<Assignment>& mapping);

}  // namespace grads::workflow
