#include "workflow/dag.hpp"

#include <deque>

#include "util/error.hpp"

namespace grads::workflow {

ComponentId Dag::add(Component c) {
  GRADS_REQUIRE(c.flops >= 0.0, "Dag::add: negative work");
  components_.push_back(std::move(c));
  inEdges_.emplace_back();
  successors_.emplace_back();
  return components_.size() - 1;
}

void Dag::addEdge(ComponentId from, ComponentId to, double bytes) {
  GRADS_REQUIRE(from < components_.size() && to < components_.size(),
                "Dag::addEdge: unknown component");
  GRADS_REQUIRE(from != to, "Dag::addEdge: self edge");
  GRADS_REQUIRE(bytes >= 0.0, "Dag::addEdge: negative volume");
  inEdges_[to].push_back(Edge{from, to, bytes});
  successors_[from].push_back(to);
}

const Component& Dag::component(ComponentId id) const {
  GRADS_REQUIRE(id < components_.size(), "Dag: unknown component");
  return components_[id];
}

Component& Dag::component(ComponentId id) {
  GRADS_REQUIRE(id < components_.size(), "Dag: unknown component");
  return components_[id];
}

const std::vector<Edge>& Dag::inEdges(ComponentId id) const {
  GRADS_REQUIRE(id < components_.size(), "Dag: unknown component");
  return inEdges_[id];
}

const std::vector<ComponentId>& Dag::successors(ComponentId id) const {
  GRADS_REQUIRE(id < components_.size(), "Dag: unknown component");
  return successors_[id];
}

std::vector<ComponentId> Dag::topologicalOrder() const {
  std::vector<std::size_t> indegree(components_.size(), 0);
  std::deque<ComponentId> ready;
  for (ComponentId c = 0; c < components_.size(); ++c) {
    indegree[c] = inEdges_[c].size();
    if (indegree[c] == 0) ready.push_back(c);
  }
  std::vector<ComponentId> order;
  while (!ready.empty()) {
    const ComponentId c = ready.front();
    ready.pop_front();
    order.push_back(c);
    for (const ComponentId s : successors_[c]) {
      if (--indegree[s] == 0) ready.push_back(s);
    }
  }
  GRADS_REQUIRE(order.size() == components_.size(),
                "Dag::topologicalOrder: graph has a cycle");
  return order;
}

std::vector<ComponentId> Dag::addParallelStage(
    const Component& prototype, int count,
    const std::vector<ComponentId>& preds, double bytesFromEachPred) {
  GRADS_REQUIRE(count >= 1, "Dag::addParallelStage: count must be >= 1");
  std::vector<ComponentId> ids;
  for (int i = 0; i < count; ++i) {
    Component c = prototype;
    c.name = prototype.name + "." + std::to_string(i);
    c.flops = prototype.flops / count;
    c.outputBytes = prototype.outputBytes / count;
    const ComponentId id = add(std::move(c));
    inEdges_[id].reserve(preds.size());
    for (const auto p : preds) addEdge(p, id, bytesFromEachPred / count);
    ids.push_back(id);
  }
  return ids;
}

}  // namespace grads::workflow
