#pragma once

#include <optional>
#include <string>
#include <vector>

#include "grid/node.hpp"

namespace grads::workflow {

using ComponentId = std::size_t;

/// One workflow component (a node of the application DAG, paper §3.1:
/// "the set C = {c1, c2, ... cm} of available application components").
struct Component {
  std::string name;
  /// Sequential floating-point work.
  double flops = 0.0;
  /// Bytes of output this component produces (consumed via edges).
  double outputBytes = 0.0;
  /// Resource requirements ("the scheduler ensures that resources meet
  /// certain minimum requirements"); unmet → rank = infinity.
  std::vector<std::string> requiredSoftware;
  std::optional<grid::Arch> requiredArch;
  double minMemBytes = 0.0;
};

/// Data dependence with transfer volume.
struct Edge {
  ComponentId from = 0;
  ComponentId to = 0;
  double bytes = 0.0;
};

/// Workflow application DAG. It keeps each component's in-edges and
/// successors as add() and addEdge() build it, so every walk reads its
/// adjacency without scanning the whole graph. Both lists are in the order
/// addEdge() added the edges; an edge may run from a later id to an
/// earlier one, so ids are not a dependency order in general.
class Dag {
 public:
  ComponentId add(Component c);
  void addEdge(ComponentId from, ComponentId to, double bytes);

  std::size_t size() const { return components_.size(); }
  /// Every accessor taking an id throws InvalidArgument for an unknown one.
  const Component& component(ComponentId id) const;
  Component& component(ComponentId id);

  /// Edges arriving at `id` (for dcost computation), in add order: the
  /// order every scheduler sums transfer costs in.
  const std::vector<Edge>& inEdges(ComponentId id) const;
  /// Components `id` feeds, in add order of the edges.
  const std::vector<ComponentId>& successors(ComponentId id) const;

  /// Kahn order (sources in id order, then successors as each is popped);
  /// throws if the graph has a cycle.
  std::vector<ComponentId> topologicalOrder() const;

  /// Expands a data-parallel stage: `count` copies of the prototype, each
  /// depending on every component in `preds` (volume split evenly), each
  /// with 1/count of the work. Returns the created ids. This models the
  /// paper's "linear graph in which some components can be parallelized"
  /// (EMAN, Fig. 2).
  std::vector<ComponentId> addParallelStage(const Component& prototype,
                                            int count,
                                            const std::vector<ComponentId>& preds,
                                            double bytesFromEachPred);

 private:
  std::vector<Component> components_;
  std::vector<std::vector<Edge>> inEdges_;            // [to]
  std::vector<std::vector<ComponentId>> successors_;  // [from]
};

}  // namespace grads::workflow
