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

/// Workflow application DAG.
class Dag {
 public:
  ComponentId add(Component c);
  void addEdge(ComponentId from, ComponentId to, double bytes);

  std::size_t size() const { return components_.size(); }
  const Component& component(ComponentId id) const;
  Component& component(ComponentId id);
  const std::vector<Edge>& edges() const { return edges_; }

  std::vector<ComponentId> predecessors(ComponentId id) const;
  std::vector<ComponentId> successors(ComponentId id) const;
  /// Edges arriving at `id` (for dcost computation).
  std::vector<Edge> inEdges(ComponentId id) const;

  /// Topological order; throws if the graph has a cycle.
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
  std::vector<Edge> edges_;
};

}  // namespace grads::workflow
