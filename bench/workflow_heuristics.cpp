// Supporting table for the paper's §3.1 scheduling strategy: makespans of
// min-min / max-min / sufferage / best-of-three against model-free
// baselines across several DAG shapes, plus the w1/w2 rank-weight ablation
// ("the weights w1 and w2 can be customized to vary the relative importance
// of the two costs"). The expected shape is checked: each broken claim
// prints a VIOLATION line and the bench exits 1.

#include <fstream>
#include <iostream>
#include <sstream>

#include "bench_paths.hpp"
#include "grid/testbeds.hpp"
#include "services/gis.hpp"
#include "util/table.hpp"
#include "workflow/annealing.hpp"
#include "workflow/builders.hpp"
#include "workflow/scheduler.hpp"

using namespace grads;

namespace {

struct Shape {
  std::string name;
  workflow::Dag dag;
};

std::vector<Shape> makeShapes(Rng& rng) {
  constexpr double kMB = 1024.0 * 1024.0;
  std::vector<Shape> shapes;
  shapes.push_back({"chain-12", workflow::makeChain(12, 4e10, 8 * kMB)});
  shapes.push_back({"fan-16", workflow::makeFanOutIn(16, 3e10, 4 * kMB)});
  shapes.push_back({"ligo-32", workflow::makeLigoLike(32, rng)});
  shapes.push_back({"sweep-48", workflow::makeParameterSweep(48, rng)});
  shapes.push_back({"layered-4x6", workflow::makeRandomLayered(4, 6, rng)});
  return shapes;
}

}  // namespace

int main() {
  std::ofstream csv =
      bench::openOutput(bench::outputPath("workflow_heuristics.csv"));
  std::ofstream weightsCsv =
      bench::openOutput(bench::outputPath("workflow_weights.csv"));
  sim::Engine eng;
  grid::Grid g(eng);
  grid::buildMacroGrid(g);
  services::Gis gis(g);
  workflow::GridEstimator truth(gis, nullptr);
  Rng rng(2024);

  const std::vector<std::string> columns{
      "dag",       "min-min", "max-min", "sufferage",  "best-of-3",
      "annealing", "dagman",  "random",  "round-robin"};
  // Column indices: 1-5 are model-guided, 6-8 the model-free baselines.
  constexpr std::size_t kMinMinCol = 1, kBestCol = 4, kAnnealingCol = 5,
                        kFirstBaselineCol = 6;
  util::Table table(columns);
  std::ostringstream violations;
  for (auto& shape : makeShapes(rng)) {
    workflow::WorkflowScheduler ws(truth, g.allNodes());
    std::vector<double> m{0.0};  // m[i] is column i's makespan
    for (const auto h :
         {workflow::Heuristic::kMinMin, workflow::Heuristic::kMaxMin,
          workflow::Heuristic::kSufferage, workflow::Heuristic::kBestOfThree}) {
      m.push_back(ws.schedule(shape.dag, h).makespan);
    }
    workflow::AnnealingOptions aopts;
    aopts.iterations = 2500;
    m.push_back(workflow::scheduleSimulatedAnnealing(shape.dag, truth,
                                                     g.allNodes(), aopts)
                    .makespan);
    m.push_back(
        workflow::scheduleDagmanStyle(shape.dag, truth, g.allNodes()).makespan);
    Rng r2(7);
    m.push_back(
        workflow::scheduleRandom(shape.dag, truth, g.allNodes(), r2).makespan);
    m.push_back(
        workflow::scheduleRoundRobin(shape.dag, truth, g.allNodes()).makespan);

    const auto violate = [&](std::size_t a, const char* rel, std::size_t b) {
      violations << "VIOLATION: " << shape.name << ": " << columns[a] << " "
                 << m[a] << " is not " << rel << " " << columns[b] << " "
                 << m[b] << "\n";
    };
    for (std::size_t h = kMinMinCol; h < kBestCol; ++h) {
      if (!(m[kBestCol] <= m[h])) violate(kBestCol, "<=", h);
    }
    if (!(m[kAnnealingCol] <= m[kMinMinCol])) {
      violate(kAnnealingCol, "<=", kMinMinCol);
    }
    for (std::size_t guided = kMinMinCol; guided < kFirstBaselineCol;
         ++guided) {
      for (std::size_t base = kFirstBaselineCol; base < m.size(); ++base) {
        if (!(m[guided] < m[base])) violate(guided, "<", base);
      }
    }
    std::vector<util::Table::Cell> row{shape.name};
    row.insert(row.end(), m.begin() + 1, m.end());
    table.addRow(std::move(row));
  }
  table.print(std::cout,
              "Workflow heuristic comparison — makespan (s) on the MacroGrid");
  table.writeCsv(csv);

  // w1/w2 ablation: a data source pinned (by software constraint) to a
  // slow UIUC node feeds 8 data-heavy consumers. With compute-only ranking
  // (w2 = 0) the consumers chase the fastest CPUs across the WAN; as w2
  // grows they collapse next to the data.
  constexpr double kMB = 1024.0 * 1024.0;
  const auto uiucA = *g.findCluster("uiuc-a");
  const auto pinNode = g.clusterNodes(uiucA)[0];
  gis.installSoftware(pinNode, "data-archive");
  workflow::Dag heavy;
  workflow::Component src;
  src.name = "source";
  src.flops = 1e9;
  src.requiredSoftware = {"data-archive"};
  const auto srcId = heavy.add(src);
  std::vector<workflow::ComponentId> consumers;
  for (int i = 0; i < 8; ++i) {
    workflow::Component c;
    c.name = "consumer" + std::to_string(i);
    c.flops = 1e10;
    const auto id = heavy.add(c);
    heavy.addEdge(srcId, id, 300.0 * kMB);
    consumers.push_back(id);
  }
  util::Table weights(
      {"w1", "w2", "makespan_s", "consumers_near_data", "distinct_nodes"});
  // Each row weighs data movement more than the row above it.
  int prevNear = 0;
  std::size_t prevDistinct = heavy.size();  // no row can use more nodes
  for (const auto& [w1, w2] : std::vector<std::pair<double, double>>{
           {1.0, 0.0}, {1.0, 0.5}, {1.0, 1.0}, {1.0, 2.0}, {0.0, 1.0}}) {
    workflow::WorkflowScheduler ws(truth, g.allNodes(),
                                   workflow::RankWeights{w1, w2});
    const auto s = ws.schedule(heavy, workflow::Heuristic::kMinMin);
    std::set<grid::NodeId> nodes;
    int near = 0;
    for (const auto c : consumers) {
      if (g.node(s.of(c).node).cluster() == uiucA) ++near;
    }
    for (const auto& a : s.assignments) nodes.insert(a.node);
    weights.addRow({w1, w2, s.makespan, static_cast<std::int64_t>(near),
                    static_cast<std::int64_t>(nodes.size())});
    if (near < prevNear) {
      violations << "VIOLATION: w1=" << w1 << " w2=" << w2
                 << ": consumers_near_data falls from " << prevNear << " to "
                 << near << "\n";
    }
    if (nodes.size() > prevDistinct) {
      violations << "VIOLATION: w1=" << w1 << " w2=" << w2
                 << ": distinct_nodes rises from " << prevDistinct << " to "
                 << nodes.size() << "\n";
    }
    prevNear = near;
    prevDistinct = nodes.size();
  }
  weights.print(std::cout, "Rank-weight (w1·ecost + w2·dcost) ablation — "
                           "pinned data source with data-heavy consumers");
  weights.writeCsv(weightsCsv);

  std::cout << "\nExpected shape: best-of-three <= each single heuristic;"
               " annealing <= its min-min seed; all model-guided heuristics"
               " beat the model-free baselines; as w2 rises the schedule"
               " collapses onto fewer nodes to avoid data movement.\n";
  std::cout << violations.str();
  return violations.str().empty() ? 0 : 1;
}
