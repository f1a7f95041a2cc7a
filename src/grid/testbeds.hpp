#pragma once

#include <vector>

#include "grid/grid.hpp"

namespace grads::grid {

/// Node archetypes matching the hardware the paper reports.
NodeSpec utkQrNodeSpec(int index);    ///< 933 MHz dual-processor Pentium III
NodeSpec uiucQrNodeSpec(int index);   ///< 450 MHz single-processor Pentium II
NodeSpec ucsdAthlonSpec(int index);   ///< 1.7 GHz Athlon (UCSD)
NodeSpec ia64NodeSpec(int index);     ///< IA-64 node for the EMAN testbed

/// LAN archetypes.
LinkSpec fastEthernetLan(const std::string& name, int nodes);  ///< 100 Mb switched
LinkSpec myrinetLan(const std::string& name, int nodes);       ///< 1.28 Gb/s full duplex
LinkSpec gigabitLan(const std::string& name, int nodes);       ///< Gigabit Ethernet
/// Shared Internet path between campuses.
LinkSpec internetWan(const std::string& name, double latencySec,
                     double bandwidthBytesPerSec);

/// §4.1.2 testbed: 4 UTK machines (dual 933 MHz P-III, 100 Mb switched
/// Ethernet) + 8 UIUC machines (450 MHz P-II, Myrinet), clusters connected
/// via the Internet.
struct QrTestbed {
  ClusterId utk = kNoId;
  ClusterId uiuc = kNoId;
  std::vector<NodeId> utkNodes;
  std::vector<NodeId> uiucNodes;
};
QrTestbed buildQrTestbed(Grid& grid);

/// §1 MacroGrid: UCSD (10 machines), UTK (two clusters, 24 machines total),
/// UIUC (two clusters, 24), UH (24).
struct MacroGrid {
  std::vector<ClusterId> clusters;  ///< ucsd, utk-a, utk-b, uiuc-a, uiuc-b, uh
};
MacroGrid buildMacroGrid(Grid& grid);

/// §3.3 heterogeneous testbed: MacroGrid IA-32 clusters plus an IA-64
/// cluster, used to schedule the EMAN refinement workflow.
struct EmanTestbed {
  MacroGrid macro;
  ClusterId ia64 = kNoId;
};
EmanTestbed buildEmanTestbed(Grid& grid);

}  // namespace grads::grid
