// Scenario catalog (bench/scenarios.hpp): the outcome fold that
// crash_sweep, determinism_probe and the what-if oracles all digest.

#include <gtest/gtest.h>

#include <cstdint>

#include "core/app_manager.hpp"
#include "scenarios.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace grads {
namespace {

using Counter = int core::RunBreakdown::*;

std::uint64_t digestOf(const core::RunBreakdown& bd) {
  util::DigestStream ds;
  bench::foldBreakdown(ds, bd);
  return ds.digest();
}

TEST(ScenarioFold, EveryOutcomeCounterChangesTheDigest) {
  const std::uint64_t base = digestOf(core::RunBreakdown{});

  core::RunBreakdown total;
  total.totalSeconds += 1.0;
  EXPECT_NE(digestOf(total), base) << "totalSeconds";

  core::RunBreakdown mapped;
  mapped.mappings.push_back({3, 4});
  EXPECT_NE(digestOf(mapped), base) << "mappings";

  const struct {
    const char* name;
    Counter field;
  } counters[] = {
      {"incarnations", &core::RunBreakdown::incarnations},
      {"launchFailures", &core::RunBreakdown::launchFailures},
      {"restoreFailures", &core::RunBreakdown::restoreFailures},
      {"integrityRejects", &core::RunBreakdown::integrityRejects},
      {"scrubRepairs", &core::RunBreakdown::scrubRepairs},
      {"actionsCommitted", &core::RunBreakdown::actionsCommitted},
      {"actionsRolledBack", &core::RunBreakdown::actionsRolledBack},
      {"violationsSuppressed", &core::RunBreakdown::violationsSuppressed},
      {"daemonRearms", &core::RunBreakdown::daemonRearms},
      {"admissionRetries", &core::RunBreakdown::admissionRetries},
      {"admissionSheds", &core::RunBreakdown::admissionSheds},
      {"preemptParks", &core::RunBreakdown::preemptParks},
      {"brownoutDeferrals", &core::RunBreakdown::brownoutDeferrals},
  };
  for (const auto& c : counters) {
    core::RunBreakdown bd;
    ++(bd.*c.field);
    EXPECT_NE(digestOf(bd), base) << c.name;
  }
}

// The what-if campaign's shadow oracle compares a speculating run against a
// driver-less one; only the driver's own gauges differ between them.
TEST(ScenarioFold, WhatifGaugesStayOutOfTheDigest) {
  const std::uint64_t base = digestOf(core::RunBreakdown{});
  for (const Counter gauge :
       {&core::RunBreakdown::whatifDecisions, &core::RunBreakdown::whatifForks,
        &core::RunBreakdown::whatifFallbacks,
        &core::RunBreakdown::whatifOverrides,
        &core::RunBreakdown::whatifDivergences}) {
    core::RunBreakdown bd;
    bd.*gauge += 5;
    EXPECT_EQ(digestOf(bd), base);
  }
}

TEST(ScenarioCatalog, UnknownNameIsRejected) {
  bench::World w;
  EXPECT_THROW(bench::build(w, "no-such-scenario", 1, false),
               InvalidArgument);
}

}  // namespace
}  // namespace grads
