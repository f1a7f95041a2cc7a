// What-if forked rescheduling campaign (BENCH_8) — does validating
// candidate actions in sandboxed futures before committing actually commit
// fewer harmful actions than the model-only control plane?
//
// Three arms over the shared whatif world (two-cluster antiphase flapping
// load with a deliberately weak governor cooldown, optionally chaos-
// perturbed with WAN link degrades or depot outages):
//   model   — the rescheduler commits its cost-model decision directly;
//   forked  — every governed violation is first replayed in sandboxed
//             futures (nominal + pessimistic chaos ensemble, minimax) and
//             only the winning arm commits, as a pinned journal action;
//   shadow  — the driver speculates and records verdicts but always commits
//             the model decision. Its parent replay digest must be
//             bit-identical to the model arm's: speculation must not leak
//             one event into the live trajectory.
//
// A committed action is *harmful* when the app needed another action within
// the speculation horizon afterwards (the violation recurred), or when the
// follow-up committed straight back to the mapping it left (migrate-back).
// The acceptance bar: the forked arm commits strictly fewer harmful actions
// than the model arm in the chaos-perturbed scenarios, and never more.
//
// Usage: whatif_campaign
// Output: whatif_campaign.csv + BENCH_8.json under the bench output dir.

#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_cli.hpp"
#include "bench_paths.hpp"
#include "util/table.hpp"
#include "whatif_world.hpp"

using namespace grads;

namespace {

struct ArmResult {
  bench::WhatifRunResult run;
  int harmful = 0;
  int commits = 0;
};

ArmResult runArm(const bench::WhatifConfig& cfg) {
  ArmResult a;
  a.run = bench::runWhatifScenario(cfg);
  a.harmful = bench::countHarmfulCommits(
      a.run.journal, reschedule::whatif::ForkDriver::kHorizonSec);
  for (const auto& r : a.run.journal) {
    if (r.state == reschedule::ActionState::kCommitted) ++a.commits;
  }
  return a;
}

}  // namespace

int main(int argc, char**) {
  if (!bench::noArguments(argc, "whatif_campaign")) return 2;
  std::ofstream csv =
      bench::openOutput(bench::outputPath("whatif_campaign.csv"));
  const std::string outPath = bench::outputPath("BENCH_8.json");
  std::ofstream json = bench::openOutput(outPath);

  struct Scen {
    const char* name;
    int linkDegrades;
    int depotOutages;
    bool perturbed;
  };
  const Scen scens[] = {{"flap", 0, 0, false},
                        {"flap+degrade", 2, 0, true},
                        {"flap+depot", 0, 2, true}};

  bench::WhatifConfig base;
  base.seed = 31;

  util::Table table({"scenario", "arm", "completed", "incarnations",
                     "commits", "harmful", "oscillations", "suppressed",
                     "decisions", "forks", "overrides", "divergences",
                     "total_s"});
  bool ok = true;
  int strictWins = 0;
  int digestMatches = 0;

  struct JsonRow {
    std::string scenario;
    bool perturbed;
    int harmfulModel, harmfulForked, commitsModel, commitsForked;
    int oscModel, oscForked;
    bool shadowMatch;
  };
  std::vector<JsonRow> jrows;

  for (const Scen& sc : scens) {
    bench::WhatifConfig cfg = base;
    cfg.linkDegrades = sc.linkDegrades;
    cfg.depotOutages = sc.depotOutages;

    cfg.withDriver = false;
    const ArmResult model = runArm(cfg);

    cfg.withDriver = true;
    cfg.driver.shadowOnly = false;
    const ArmResult forked = runArm(cfg);

    // Shadow arm: the zero-live-state-divergence oracle.
    cfg.driver.shadowOnly = true;
    const ArmResult shadow = runArm(cfg);

    const struct { const char* arm; const ArmResult* r; } arms[] = {
        {"model", &model}, {"forked", &forked}, {"shadow", &shadow}};
    for (const auto& [armName, r] : arms) {
      table.addRow({sc.name, armName,
                    std::string(r->run.completed ? "yes" : "NO"),
                    static_cast<std::int64_t>(r->run.bd.incarnations),
                    static_cast<std::int64_t>(r->commits),
                    static_cast<std::int64_t>(r->harmful),
                    static_cast<std::int64_t>(r->run.oscillations),
                    static_cast<std::int64_t>(r->run.governor.suppressed()),
                    static_cast<std::int64_t>(r->run.driver.decisions),
                    static_cast<std::int64_t>(r->run.driver.forksRun),
                    static_cast<std::int64_t>(r->run.driver.overrides),
                    static_cast<std::int64_t>(r->run.driver.divergences),
                    r->run.bd.totalSeconds});
      if (!r->run.completed) {
        std::cout << "VIOLATION: " << sc.name << "/" << armName
                  << " did not complete\n";
        ok = false;
      }
    }

    if (shadow.run.digest == model.run.digest) {
      ++digestMatches;
    } else {
      std::cout << "VIOLATION: " << sc.name
                << " shadow digest diverged from model-only (" << std::hex
                << shadow.run.digest << " != " << model.run.digest << std::dec
                << "): speculation leaked into the live trajectory\n";
      ok = false;
    }
    if (forked.harmful > model.harmful) {
      std::cout << "VIOLATION: " << sc.name << " forked arm committed MORE "
                << "harmful actions (" << forked.harmful << " > "
                << model.harmful << ")\n";
      ok = false;
    }
    if (sc.perturbed && forked.harmful < model.harmful) ++strictWins;
    if (forked.run.driver.decisions == 0) {
      std::cout << "VIOLATION: " << sc.name << " forked arm never ran a "
                << "fork-validated decision (scenario too tame)\n";
      ok = false;
    }

    jrows.push_back({sc.name, sc.perturbed, model.harmful, forked.harmful,
                     model.commits, forked.commits, model.run.oscillations,
                     forked.run.oscillations,
                     shadow.run.digest == model.run.digest});
  }

  // The headline: fork validation must beat model-only where it matters.
  const int requiredWins = 2;
  if (strictWins < requiredWins) {
    std::cout << "VIOLATION: forked arm strictly beat model-only in only "
              << strictWins << " chaos-perturbed scenario(s); need "
              << requiredWins << "\n";
    ok = false;
  }

  table.print(std::cout,
              "What-if campaign — model-only vs fork-validated vs shadow "
              "(harmful = committed action whose violation recurred, or a "
              "migrate-back, within the speculation horizon)");
  table.writeCsv(csv);

  json << "{\n  \"bench_id\": 8,\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < jrows.size(); ++i) {
    const JsonRow& j = jrows[i];
    json << "    {\"name\": \"" << j.scenario << "\", \"perturbed\": "
         << (j.perturbed ? "true" : "false")
         << ", \"harmful_model\": " << j.harmfulModel
         << ", \"harmful_forked\": " << j.harmfulForked
         << ", \"commits_model\": " << j.commitsModel
         << ", \"commits_forked\": " << j.commitsForked
         << ", \"oscillations_model\": " << j.oscModel
         << ", \"oscillations_forked\": " << j.oscForked
         << ", \"shadow_digest_match\": "
         << (j.shadowMatch ? "true" : "false")
         << "}" << (i + 1 == jrows.size() ? "" : ",") << "\n";
  }
  json << "  ],\n  \"strict_wins\": " << strictWins
       << ",\n  \"shadow_digest_matches\": " << digestMatches << " ,\n"
       << "  \"shadow_arms\": " << std::size(scens) << "\n}\n";
  json.close();
  std::cout << "\nwrote " << outPath << "\n";

  std::cout << "\nExpected shape: the model-only arm chases the flapping "
               "load and re-commits actions whose violations recur; the "
               "fork-validated arm vetoes those in sandboxed futures "
               "(strictly fewer harmful commits in the chaos-perturbed "
               "scenarios, never more anywhere), and the shadow arm's "
               "replay digest is bit-identical to model-only — speculation "
               "touches no live state.\n";
  return ok ? 0 : 1;
}
