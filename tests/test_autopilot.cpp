#include <gtest/gtest.h>

#include <sstream>

#include "autopilot/contract.hpp"
#include "autopilot/sensor.hpp"
#include "autopilot/viewer.hpp"

namespace grads::autopilot {
namespace {

TEST(Autopilot, ReportReachesListeners) {
  sim::Engine eng;
  AutopilotManager mgr(eng);
  std::vector<double> seen;
  mgr.attach("ch", [&](const Reading& r) { seen.push_back(r.value); });
  mgr.report("ch", 1.0);
  mgr.report("other", 2.0);
  mgr.report("ch", 3.0);
  EXPECT_EQ(seen, (std::vector<double>{1.0, 3.0}));
  EXPECT_EQ(mgr.totalReadings(), 3u);
}

TEST(Autopilot, DetachStopsDelivery) {
  sim::Engine eng;
  AutopilotManager mgr(eng);
  int count = 0;
  const auto token = mgr.attach("ch", [&](const Reading&) { ++count; });
  mgr.report("ch", 1.0);
  mgr.detach(token);
  mgr.report("ch", 2.0);
  EXPECT_EQ(count, 1);
}

TEST(Autopilot, HistoryStampsVirtualTime) {
  sim::Engine eng;
  AutopilotManager mgr(eng);
  eng.schedule(42.0, [&] { mgr.report("ch", 7.0); });
  eng.run();
  const auto& h = mgr.history("ch");
  ASSERT_EQ(h.size(), 1u);
  EXPECT_DOUBLE_EQ(h[0].time, 42.0);
  EXPECT_TRUE(mgr.history("unknown").empty());
}

ContractMonitor makeMonitor(sim::Engine& eng, double predicted = 10.0) {
  return ContractMonitor(
      eng, PerformanceContract("qr", [predicted](std::size_t) {
        return predicted;
      }));
}

TEST(ContractMonitor, NoViolationWithinTolerance) {
  sim::Engine eng;
  auto mon = makeMonitor(eng);
  int requests = 0;
  mon.setRescheduleRequest([&](const ViolationReport&) {
    ++requests;
    return RescheduleOutcome::kMigrated;
  });
  for (int i = 0; i < 20; ++i) mon.onPhaseTime(11.0);  // ratio 1.1 < 1.5
  EXPECT_EQ(requests, 0);
  EXPECT_EQ(mon.violationsRaised(), 0u);
  EXPECT_EQ(mon.phasesSeen(), 20u);
}

TEST(ContractMonitor, SingleSpikeForgivenByAveraging) {
  sim::Engine eng;
  auto mon = makeMonitor(eng);
  int requests = 0;
  mon.setRescheduleRequest([&](const ViolationReport&) {
    ++requests;
    return RescheduleOutcome::kMigrated;
  });
  for (int i = 0; i < 4; ++i) mon.onPhaseTime(10.0);
  mon.onPhaseTime(30.0);  // ratio 3.0 but window avg = (4·1 + 3)/5 = 1.4 < 1.5
  EXPECT_EQ(requests, 0);
}

TEST(ContractMonitor, SustainedSlowdownRaisesViolation) {
  sim::Engine eng;
  auto mon = makeMonitor(eng);
  ViolationReport last;
  mon.setRescheduleRequest([&](const ViolationReport& r) {
    last = r;
    return RescheduleOutcome::kMigrated;
  });
  for (int i = 0; i < 5; ++i) mon.onPhaseTime(25.0);  // ratio 2.5 sustained
  EXPECT_GE(mon.violationsRaised(), 1u);
  EXPECT_EQ(last.app, "qr");
  EXPECT_NEAR(last.ratio, 2.5, 1e-9);
  EXPECT_GT(last.avgRatio, 1.5);
}

TEST(ContractMonitor, DeclineWidensUpperTolerance) {
  sim::Engine eng;
  auto mon = makeMonitor(eng);
  int requests = 0;
  mon.setRescheduleRequest([&](const ViolationReport&) {
    ++requests;
    return RescheduleOutcome::kDeclined;
  });
  for (int i = 0; i < 10; ++i) mon.onPhaseTime(25.0);
  EXPECT_GE(requests, 1);
  // After declines the tolerance must have widened enough to stop nagging.
  EXPECT_GT(mon.upperTolerance(), 2.5);
  const int before = requests;
  mon.onPhaseTime(25.0);
  EXPECT_EQ(requests, before);
}

TEST(ContractMonitor, FastPhasesTightenTolerances) {
  sim::Engine eng;
  auto mon = makeMonitor(eng);
  const double upBefore = mon.upperTolerance();
  const double loBefore = mon.lowerTolerance();
  for (int i = 0; i < 10; ++i) mon.onPhaseTime(3.0);  // ratio 0.3 < 0.6
  EXPECT_LT(mon.lowerTolerance(), loBefore);
  EXPECT_LT(mon.upperTolerance(), upBefore);
}

TEST(ContractMonitor, DisabledMonitorIgnoresReports) {
  sim::Engine eng;
  auto mon = makeMonitor(eng);
  mon.setEnabled(false);
  for (int i = 0; i < 10; ++i) mon.onPhaseTime(100.0);
  EXPECT_EQ(mon.violationsRaised(), 0u);
  EXPECT_EQ(mon.phasesSeen(), 0u);
}

TEST(ContractMonitor, AttachToManagerEndToEnd) {
  sim::Engine eng;
  AutopilotManager mgr(eng);
  auto mon = makeMonitor(eng);
  mon.attachTo(mgr, phaseTimeChannel("qr"));
  int requests = 0;
  mon.setRescheduleRequest([&](const ViolationReport&) {
    ++requests;
    return RescheduleOutcome::kMigrated;
  });
  for (int i = 0; i < 6; ++i) mgr.report(phaseTimeChannel("qr"), 30.0);
  EXPECT_GE(requests, 1);
}

TEST(ContractMonitor, UpdateTermsResetsExpectations) {
  sim::Engine eng;
  auto mon = makeMonitor(eng, 10.0);
  int requests = 0;
  mon.setRescheduleRequest([&](const ViolationReport&) {
    ++requests;
    return RescheduleOutcome::kMigrated;
  });
  // New terms say phases take 25 s — the same reports are now nominal.
  mon.contract().updateTerms([](std::size_t) { return 25.0; });
  for (int i = 0; i < 10; ++i) mon.onPhaseTime(25.0);
  EXPECT_EQ(requests, 0);
}

TEST(ContractViewer, RecordsPhasesAndViolations) {
  sim::Engine eng;
  ContractViewer viewer(eng);
  auto mon = makeMonitor(eng);
  mon.setViewer(&viewer);
  mon.setRescheduleRequest([](const ViolationReport&) {
    return RescheduleOutcome::kMigrated;
  });
  for (int i = 0; i < 3; ++i) mon.onPhaseTime(10.0);   // nominal
  for (int i = 0; i < 6; ++i) mon.onPhaseTime(30.0);   // sustained slowdown
  EXPECT_EQ(viewer.phases("qr").size(), 9u);
  EXPECT_GE(viewer.violations("qr").size(), 1u);
  EXPECT_TRUE(viewer.violations("qr")[0].migrated);
  EXPECT_NEAR(viewer.phases("qr")[0].ratio, 1.0, 1e-9);
  EXPECT_NEAR(viewer.phases("qr")[5].ratio, 3.0, 1e-9);
  EXPECT_EQ(viewer.apps(), std::vector<std::string>{"qr"});
}

TEST(ContractViewer, TimelineRendersBarsAndViolationMarks) {
  sim::Engine eng;
  ContractViewer viewer(eng);
  auto mon = makeMonitor(eng);
  mon.setViewer(&viewer);
  for (int i = 0; i < 4; ++i) mon.onPhaseTime(10.0);
  for (int i = 0; i < 6; ++i) mon.onPhaseTime(28.0);
  std::ostringstream os;
  viewer.renderTimeline(os, "qr");
  const auto text = os.str();
  EXPECT_NE(text.find("contract activity for qr"), std::string::npos);
  EXPECT_NE(text.find('#'), std::string::npos);   // ratio bars
  EXPECT_NE(text.find('|'), std::string::npos);   // tolerance marker
  EXPECT_NE(text.find('!'), std::string::npos);   // violation flag
}

TEST(ContractViewer, CsvExportHasHeaderAndRows) {
  sim::Engine eng;
  ContractViewer viewer(eng);
  auto mon = makeMonitor(eng);
  mon.setViewer(&viewer);
  mon.onPhaseTime(12.0);
  std::ostringstream os;
  viewer.writeCsv(os, "qr");
  const auto text = os.str();
  EXPECT_NE(text.find("time,phase,predicted,actual,ratio,upper,lower"),
            std::string::npos);
  EXPECT_NE(text.find("1.2"), std::string::npos);  // the 12/10 ratio
}

TEST(ContractViewer, EmptyAppRendersPlaceholder) {
  sim::Engine eng;
  ContractViewer viewer(eng);
  std::ostringstream os;
  viewer.renderTimeline(os, "nothing");
  EXPECT_NE(os.str().find("no contract activity"), std::string::npos);
}

}  // namespace
}  // namespace grads::autopilot
