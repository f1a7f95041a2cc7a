#include "grid/testbeds.hpp"

namespace grads::grid {

namespace {
constexpr double kMB = 1024.0 * 1024.0;

NodeSpec baseSpec(std::string name, double mhz, int cpus, double flopsPerCycle,
                  double efficiency, Arch arch = Arch::kIA32) {
  NodeSpec s;
  s.name = std::move(name);
  s.mhz = mhz;
  s.cpus = cpus;
  s.flopsPerCycle = flopsPerCycle;
  s.efficiency = efficiency;
  s.arch = arch;
  return s;
}
}  // namespace

NodeSpec utkQrNodeSpec(int index) {
  // 933 MHz dual P-III. Sustained ScaLAPACK efficiency on 100 Mb switched
  // Ethernet in the 2003 testbed era was low (~12% of peak) — calibrated so
  // Figure 3's run times land in the paper's range.
  auto s = baseSpec("utk" + std::to_string(index), 933.0, 2, 1.0, 0.12);
  s.memBytes = 1024.0 * kMB;
  s.cache = CacheGeometry{256 * 1024, 32, 8};  // P-III Coppermine L2
  return s;
}

NodeSpec uiucQrNodeSpec(int index) {
  // 450 MHz P-II on Myrinet: slower CPU but much better network lets the
  // library sustain a larger fraction of peak (~22%).
  auto s = baseSpec("uiuc" + std::to_string(index), 450.0, 1, 1.0, 0.22);
  s.memBytes = 512.0 * kMB;
  s.cache = CacheGeometry{512 * 1024, 32, 4};  // P-II Deschutes L2
  return s;
}

NodeSpec ucsdAthlonSpec(int index) {
  auto s = baseSpec("ucsd" + std::to_string(index), 1700.0, 1, 2.0, 0.40);
  s.cache = CacheGeometry{256 * 1024, 64, 16};
  return s;
}

NodeSpec ia64NodeSpec(int index) {
  // Itanium 2 class: 900 MHz, 4 flops/cycle FMA pipes, large L3.
  auto s = baseSpec("ia64-" + std::to_string(index), 900.0, 1, 4.0, 0.55,
                    Arch::kIA64);
  s.memBytes = 2048.0 * kMB;
  s.cache = CacheGeometry{3 * 1024 * 1024, 128, 12};
  return s;
}

LinkSpec fastEthernetLan(const std::string& name, int nodes) {
  LinkSpec l;
  l.name = name;
  l.latencySec = 100e-6;
  l.perFlowCapBytesPerSec = 12.5 * kMB;                    // 100 Mb/s
  l.bandwidthBytesPerSec = 12.5 * kMB * std::max(1, nodes / 2);
  return l;
}

LinkSpec myrinetLan(const std::string& name, int nodes) {
  LinkSpec l;
  l.name = name;
  l.latencySec = 10e-6;
  l.perFlowCapBytesPerSec = 160.0 * kMB;                   // 1.28 Gb/s
  l.bandwidthBytesPerSec = 160.0 * kMB * std::max(1, nodes / 2);
  return l;
}

LinkSpec gigabitLan(const std::string& name, int nodes) {
  LinkSpec l;
  l.name = name;
  l.latencySec = 50e-6;
  l.perFlowCapBytesPerSec = 125.0 * kMB;                   // 1 Gb/s
  l.bandwidthBytesPerSec = 125.0 * kMB * std::max(1, nodes / 2);
  return l;
}

LinkSpec internetWan(const std::string& name, double latencySec,
                     double bandwidthBytesPerSec) {
  LinkSpec l;
  l.name = name;
  l.latencySec = latencySec;
  l.bandwidthBytesPerSec = bandwidthBytesPerSec;
  l.perFlowCapBytesPerSec = bandwidthBytesPerSec;  // one shared pipe
  return l;
}

QrTestbed buildQrTestbed(Grid& grid) {
  QrTestbed tb;
  tb.utk = grid.addCluster(
      ClusterSpec{"utk", "UTK", fastEthernetLan("utk.lan", 4)});
  tb.uiuc =
      grid.addCluster(ClusterSpec{"uiuc", "UIUC", myrinetLan("uiuc.lan", 8)});
  for (int i = 0; i < 4; ++i) {
    tb.utkNodes.push_back(grid.addNode(tb.utk, utkQrNodeSpec(i)));
  }
  for (int i = 0; i < 8; ++i) {
    tb.uiucNodes.push_back(grid.addNode(tb.uiuc, uiucQrNodeSpec(i)));
  }
  // Abilene-era campus-to-campus Internet path: ~11 ms, ~1.2 MB/s sustained
  // (calibrated so the N=8000 actual rescheduling cost lands near the
  // paper's ~420 s).
  grid.connectClusters(tb.utk, tb.uiuc,
                       internetWan("utk-uiuc.wan", 0.011, 1.2 * kMB));
  return tb;
}

MacroGrid buildMacroGrid(Grid& grid) {
  MacroGrid mg;
  const ClusterId ucsd = grid.addCluster(
      ClusterSpec{"ucsd", "UCSD", fastEthernetLan("ucsd.lan", 10)});
  for (int i = 0; i < 10; ++i) grid.addNode(ucsd, ucsdAthlonSpec(i));

  const ClusterId utkA = grid.addCluster(
      ClusterSpec{"utk-a", "UTK", fastEthernetLan("utk-a.lan", 12)});
  const ClusterId utkB = grid.addCluster(
      ClusterSpec{"utk-b", "UTK", fastEthernetLan("utk-b.lan", 12)});
  for (int i = 0; i < 12; ++i) {
    grid.addNode(utkA, utkQrNodeSpec(i));
    grid.addNode(utkB, utkQrNodeSpec(12 + i));
  }

  const ClusterId uiucA = grid.addCluster(
      ClusterSpec{"uiuc-a", "UIUC", myrinetLan("uiuc-a.lan", 12)});
  const ClusterId uiucB = grid.addCluster(
      ClusterSpec{"uiuc-b", "UIUC", myrinetLan("uiuc-b.lan", 12)});
  for (int i = 0; i < 12; ++i) {
    grid.addNode(uiucA, uiucQrNodeSpec(i));
    grid.addNode(uiucB, uiucQrNodeSpec(12 + i));
  }

  const ClusterId uh = grid.addCluster(
      ClusterSpec{"uh", "UH", fastEthernetLan("uh.lan", 24)});
  for (int i = 0; i < 24; ++i) {
    auto s = baseSpec("uh" + std::to_string(i), 700.0, 1, 1.0, 0.45);
    grid.addNode(uh, s);
  }

  mg.clusters = {ucsd, utkA, utkB, uiucA, uiucB, uh};
  // Campus mesh over the Internet; latencies from the paper where given
  // (UTK↔UIUC 11 ms, UCSD↔others 30 ms), typical values elsewhere.
  auto wan = [&](ClusterId a, ClusterId b, const std::string& n, double lat,
                 double bw) { grid.connectClusters(a, b, internetWan(n, lat, bw)); };
  const double kBw = 1.8 * kMB;
  wan(ucsd, utkA, "ucsd-utk.wan", 0.030, kBw);
  wan(ucsd, uiucA, "ucsd-uiuc.wan", 0.030, kBw);
  wan(ucsd, uh, "ucsd-uh.wan", 0.025, kBw);
  wan(utkA, utkB, "utk-ab.wan", 0.001, 12.0 * kMB);  // same campus
  wan(utkA, uiucA, "utk-uiuc.wan", 0.011, kBw);
  wan(utkA, uh, "utk-uh.wan", 0.018, kBw);
  wan(uiucA, uiucB, "uiuc-ab.wan", 0.001, 12.0 * kMB);
  wan(uiucA, uh, "uiuc-uh.wan", 0.020, kBw);
  return mg;
}

EmanTestbed buildEmanTestbed(Grid& grid) {
  EmanTestbed tb;
  tb.macro = buildMacroGrid(grid);
  tb.ia64 = grid.addCluster(
      ClusterSpec{"ia64", "UH", gigabitLan("ia64.lan", 8)});
  for (int i = 0; i < 8; ++i) grid.addNode(tb.ia64, ia64NodeSpec(i));
  grid.connectClusters(tb.ia64, tb.macro.clusters[5],
                       internetWan("ia64-uh.wan", 0.001, 12.0 * kMB));
  return tb;
}

}  // namespace grads::grid
