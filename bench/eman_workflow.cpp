// Reproduces the paper's §3.3 workflow-scheduling demonstration: the EMAN
// refinement workflow scheduled onto a heterogeneous (IA-32 + IA-64) Grid
// with the GrADS workflow scheduler, using performance models to rank
// resources. The paper reports this qualitatively (the SC2003 live demo);
// we report makespans for the three heuristics, the best-of-three strategy
// the paper actually used, and DAGMan-style / random / round-robin
// baselines that lack performance models.

#include <fstream>
#include <iostream>

#include "bench_paths.hpp"
#include "apps/eman.hpp"
#include "grid/testbeds.hpp"
#include "services/gis.hpp"
#include "util/table.hpp"
#include "workflow/scheduler.hpp"

using namespace grads;

int main() {
  std::ofstream csv = bench::openOutput(bench::outputPath("eman_workflow.csv"));
  sim::Engine eng;
  grid::Grid g(eng);
  const auto tb = grid::buildEmanTestbed(g);
  services::Gis gis(g);
  gis.installEverywhere("eman");
  workflow::GridEstimator truth(gis, nullptr);

  apps::EmanConfig cfg;
  cfg.particles = 200000;
  cfg.parallelism = 24;
  const auto dag = apps::buildEmanRefinementDag(cfg);

  workflow::WorkflowScheduler ws(truth, g.allNodes());

  util::Table table({"scheduler", "makespan_s", "ia64_components",
                     "ia32_components", "vs_best_of_3"});
  double bestOf3 = 0.0;

  auto archSplit = [&](const workflow::Schedule& s) {
    int ia64 = 0;
    int ia32 = 0;
    for (const auto& a : s.assignments) {
      (g.node(a.node).spec().arch == grid::Arch::kIA64 ? ia64 : ia32)++;
    }
    return std::pair{ia64, ia32};
  };

  std::vector<std::pair<std::string, workflow::Schedule>> rows;
  for (const auto h :
       {workflow::Heuristic::kBestOfThree, workflow::Heuristic::kMinMin,
        workflow::Heuristic::kMaxMin, workflow::Heuristic::kSufferage}) {
    rows.emplace_back(workflow::heuristicName(h), ws.schedule(dag, h));
  }
  bestOf3 = rows[0].second.makespan;
  rows.emplace_back("dagman-greedy",
                    workflow::scheduleDagmanStyle(dag, truth, g.allNodes()));
  Rng rng(11);
  rows.emplace_back("random",
                    workflow::scheduleRandom(dag, truth, g.allNodes(), rng));
  rows.emplace_back("round-robin",
                    workflow::scheduleRoundRobin(dag, truth, g.allNodes()));

  for (const auto& [name, s] : rows) {
    const auto [ia64, ia32] = archSplit(s);
    table.addRow({name, s.makespan, static_cast<std::int64_t>(ia64),
                  static_cast<std::int64_t>(ia32), s.makespan / bestOf3});
  }
  table.print(std::cout,
              "§3.3 — EMAN refinement workflow on the heterogeneous "
              "(IA-32 + IA-64) testbed");
  table.writeCsv(csv);

  std::cout << "\nPaper's qualitative result: the GrADS workflow scheduler "
               "(best-of-three over min-min/max-min/sufferage, guided by "
               "performance models) schedules the refinement across both "
               "IA-32 and IA-64 resources and beats model-free baselines.\n";
  (void)tb;
  return 0;
}
