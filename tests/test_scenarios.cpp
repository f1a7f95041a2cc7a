// Scenario catalog (bench/scenarios.hpp): the outcome fold that
// crash_sweep, determinism_probe and the what-if oracles all digest, and
// the snapshot wire format pinned on the catalog's own images.

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>
#include <vector>

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

// Every image the catalog records (bench::record), digested and compared
// with recorded values (last re-recorded when services.nws began to store
// each sliding mean's running sum). A field reordered in both halves of a
// codec round-trips, so only a pin on the bytes themselves catches it. Each
// image is then decoded onto a freshly built world (bench::decode alone: no
// journal recovery or re-arming, since both legitimately rewrite their
// sections) and must re-encode to the same bytes.
TEST(SnapshotWireFormat, CatalogImagesArePinnedAndReencodeIdentically) {
  const struct {
    std::string_view name;
    std::size_t images;
    std::size_t bytes;
    std::uint64_t digest;
  } kPinned[] = {
      {"chaos-qr", 8, 330392, 0x8ae319c12f69345eULL},
      {"integrity-qr", 7, 294184, 0xe386a8f0ec7ef780ULL},
      {"thrash-governed", 7, 217336, 0x9937eadb875c1b4dULL},
      {"tenant-overload", 27, 597568, 0x3f87ed80b8686083ULL},
      {"whatif-forked", 16, 794816, 0xe6b1b1264e3ae165ULL},
  };
  ASSERT_EQ(std::size(kPinned), std::size(bench::kScenarios));
  for (std::size_t s = 0; s < std::size(kPinned); ++s) {
    const bench::Scenario& sc = bench::kScenarios[s];
    SCOPED_TRACE(sc.name);
    ASSERT_EQ(kPinned[s].name, sc.name);
    const std::vector<bench::Recording::Image> images =
        bench::record(sc).images;

    util::DigestStream ds;
    std::size_t bytes = 0;
    for (const auto& img : images) {
      ds.put(util::fnv1a64(img.bytes.data(), img.bytes.size()));
      bytes += img.bytes.size();
    }
    EXPECT_EQ(images.size(), kPinned[s].images);
    EXPECT_EQ(bytes, kPinned[s].bytes);
    EXPECT_EQ(ds.digest(), kPinned[s].digest)
        << std::hex << "digest 0x" << ds.digest();

    for (std::size_t i = 0; i < images.size(); ++i) {
      bench::World w;
      bench::build(w, sc.name, sc.seed, false);
      const double t = bench::decode(w, images[i].bytes);
      EXPECT_TRUE(w.mgr->snapshotNow().serialize() == images[i].bytes)
          << "image " << i << " (t=" << t << ") re-encodes to different bytes";
    }
  }
}

}  // namespace
}  // namespace grads
