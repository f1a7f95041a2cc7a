#pragma once

#include <string>
#include <vector>

#include "grid/grid.hpp"
#include "grid/load.hpp"

namespace grads::microgrid {

/// A virtual-grid description in a small DML-inspired configuration
/// language ("These configurations are described for MicroGrid in standard
/// Domain Modeling Language (DML) and a simple resource description for the
/// processor nodes", paper §4.2.2).
///
/// Line-oriented grammar ('#' starts a comment):
///
///   cluster <name> <site> <lan>        lan ∈ {ethernet100, myrinet, gigabit}
///     node <mhz> <cpus> <flopsPerCycle> <efficiency> x<count>
///   end
///   wan <clusterA> <clusterB> <latency-seconds> <bandwidth-bytes/s>
///   load <node-name> step <at-seconds> <weight>
///   load <node-name> pulse <from> <until> <weight>
struct DmlNodeGroup {
  double mhz = 0.0;
  int cpus = 1;
  double flopsPerCycle = 1.0;
  double efficiency = 0.4;
  int count = 1;
};

struct DmlCluster {
  std::string name;
  std::string site;
  std::string lanKind;
  std::vector<DmlNodeGroup> nodes;
};

struct DmlWan {
  std::string a;
  std::string b;
  double latencySec = 0.0;
  double bandwidthBytesPerSec = 0.0;
};

struct DmlLoad {
  std::string node;
  grid::LoadTrace trace;
};

struct VirtualGridSpec {
  std::vector<DmlCluster> clusters;
  std::vector<DmlWan> wans;
  std::vector<DmlLoad> loads;

  std::size_t totalNodes() const;
};

/// Parses a DML document; throws InvalidArgument with line information on
/// malformed input.
VirtualGridSpec parseDml(const std::string& text);

/// Builds the virtual grid into `grid` and schedules any declared
/// background-load traces on its engine. With `emulated` set, applies
/// MicroGrid virtualization overheads to every resource (the emulated grid):
/// emulated resources run slightly slower than the hardware they model.
/// Unset, resources match the hardware description exactly (the
/// "MacroGrid" reference for fidelity comparisons).
void instantiate(grid::Grid& grid, const VirtualGridSpec& spec,
                 bool emulated = false);

/// The §4.2.2 virtual grid (UTK 3×550 MHz, UIUC 3×450 MHz, UCSD Athlon) as a
/// DML document — the MicroGrid configuration used for Figure 4.
std::string swapExperimentDml();

}  // namespace grads::microgrid
