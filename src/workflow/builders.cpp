#include "workflow/builders.hpp"

namespace grads::workflow {

namespace {
constexpr double kMB = 1024.0 * 1024.0;

Component comp(std::string name, double flops, double outBytes = 0.0) {
  Component c;
  c.name = std::move(name);
  c.flops = flops;
  c.outputBytes = outBytes;
  return c;
}
}  // namespace

Dag makeChain(std::size_t length, double flopsEach, double bytesBetween) {
  Dag dag;
  ComponentId prev = 0;
  for (std::size_t i = 0; i < length; ++i) {
    const auto id = dag.add(comp("stage" + std::to_string(i), flopsEach,
                                 bytesBetween));
    if (i > 0) dag.addEdge(prev, id, bytesBetween);
    prev = id;
  }
  return dag;
}

Dag makeFanOutIn(std::size_t width, double flopsEach, double bytes) {
  Dag dag;
  const auto src = dag.add(comp("source", flopsEach, bytes));
  std::vector<ComponentId> mids;
  for (std::size_t i = 0; i < width; ++i) {
    const auto id = dag.add(comp("work" + std::to_string(i), flopsEach, bytes));
    dag.addEdge(src, id, bytes);
    mids.push_back(id);
  }
  const auto sink = dag.add(comp("sink", flopsEach, 0.0));
  for (const auto m : mids) dag.addEdge(m, sink, bytes);
  return dag;
}

Dag makeLigoLike(std::size_t templates, Rng& rng) {
  Dag dag;
  const auto prep = dag.add(comp("data-conditioning", 5e10, 64.0 * kMB));
  std::vector<ComponentId> searches;
  for (std::size_t i = 0; i < templates; ++i) {
    // Template banks are heterogeneous: heavy-tailed work distribution.
    const double flops = 2e10 * rng.pareto(1.0, 1.6);
    const auto id =
        dag.add(comp("template-search" + std::to_string(i), flops, 4.0 * kMB));
    dag.addEdge(prep, id, 64.0 * kMB / static_cast<double>(templates));
    searches.push_back(id);
  }
  const auto coincidence = dag.add(comp("coincidence", 1e10, 1.0 * kMB));
  for (const auto s : searches) dag.addEdge(s, coincidence, 4.0 * kMB);
  return dag;
}

Dag makeParameterSweep(std::size_t tasks, Rng& rng) {
  Dag dag;
  for (std::size_t i = 0; i < tasks; ++i) {
    dag.add(comp("task" + std::to_string(i), rng.uniform(1e9, 5e10), 0.0));
  }
  return dag;
}

Dag makeRandomLayered(std::size_t layers, std::size_t width, Rng& rng) {
  Dag dag;
  std::vector<ComponentId> prev;
  for (std::size_t l = 0; l < layers; ++l) {
    std::vector<ComponentId> cur;
    for (std::size_t w = 0; w < width; ++w) {
      // append, not operator+: gcc 12 at -O3 flags operator+(const char*,
      // std::string&&) with a false -Wrestrict.
      const auto id = dag.add(comp(std::string("c")
                                       .append(std::to_string(l))
                                       .append(".")
                                       .append(std::to_string(w)),
                                   rng.uniform(5e9, 5e10),
                                   rng.uniform(1.0, 16.0) * kMB));
      // Connect to a random non-empty subset of the previous layer.
      for (const auto p : prev) {
        if (rng.uniform() < 0.4) {
          dag.addEdge(p, id, rng.uniform(0.5, 8.0) * kMB);
        }
      }
      if (!prev.empty() && dag.inEdges(id).empty()) {
        dag.addEdge(prev[static_cast<std::size_t>(rng.uniformInt(
                        0, static_cast<std::int64_t>(prev.size()) - 1))],
                    id, 1.0 * kMB);
      }
      cur.push_back(id);
    }
    prev = std::move(cur);
  }
  return dag;
}

}  // namespace grads::workflow
