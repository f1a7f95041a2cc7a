#include "workflow/dag.hpp"

#include <deque>

#include "util/error.hpp"

namespace grads::workflow {

ComponentId Dag::add(Component c) {
  GRADS_REQUIRE(c.flops >= 0.0, "Dag::add: negative work");
  components_.push_back(std::move(c));
  return components_.size() - 1;
}

void Dag::addEdge(ComponentId from, ComponentId to, double bytes) {
  GRADS_REQUIRE(from < components_.size() && to < components_.size(),
                "Dag::addEdge: unknown component");
  GRADS_REQUIRE(from != to, "Dag::addEdge: self edge");
  GRADS_REQUIRE(bytes >= 0.0, "Dag::addEdge: negative volume");
  edges_.push_back(Edge{from, to, bytes});
}

const Component& Dag::component(ComponentId id) const {
  GRADS_REQUIRE(id < components_.size(), "Dag: unknown component");
  return components_[id];
}

Component& Dag::component(ComponentId id) {
  GRADS_REQUIRE(id < components_.size(), "Dag: unknown component");
  return components_[id];
}

std::vector<ComponentId> Dag::predecessors(ComponentId id) const {
  std::vector<ComponentId> out;
  for (const auto& e : edges_) {
    if (e.to == id) out.push_back(e.from);
  }
  return out;
}

std::vector<ComponentId> Dag::successors(ComponentId id) const {
  std::vector<ComponentId> out;
  for (const auto& e : edges_) {
    if (e.from == id) out.push_back(e.to);
  }
  return out;
}

std::vector<Edge> Dag::inEdges(ComponentId id) const {
  std::vector<Edge> out;
  for (const auto& e : edges_) {
    if (e.to == id) out.push_back(e);
  }
  return out;
}

std::vector<ComponentId> Dag::topologicalOrder() const {
  std::vector<std::size_t> indegree(components_.size(), 0);
  for (const auto& e : edges_) ++indegree[e.to];
  std::deque<ComponentId> ready;
  for (ComponentId c = 0; c < components_.size(); ++c) {
    if (indegree[c] == 0) ready.push_back(c);
  }
  std::vector<ComponentId> order;
  while (!ready.empty()) {
    const ComponentId c = ready.front();
    ready.pop_front();
    order.push_back(c);
    for (const auto& e : edges_) {
      if (e.from == c && --indegree[e.to] == 0) ready.push_back(e.to);
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
    for (const auto p : preds) addEdge(p, id, bytesFromEachPred / count);
    ids.push_back(id);
  }
  return ids;
}

}  // namespace grads::workflow
