#pragma once

#include <string>
#include <utility>
#include <vector>

#include "autopilot/sensor.hpp"
#include "reschedule/swap.hpp"
#include "vmpi/world.hpp"

namespace grads::apps {

/// Iterative O(N²) N-body simulation — the application used for the
/// process-swapping experiments (paper §4.2.2 and [14], [15]).
struct NBodyConfig {
  std::size_t particles = 12000;
  std::size_t iterations = 60;
};

/// Progress trace: (virtual time, completed iteration) samples — the series
/// Figure 4 plots.
struct NBodyProgress {
  std::vector<std::pair<double, int>> samples;
};

/// Per-iteration flops one rank performs.
double nbodyIterationFlopsPerRank(const NBodyConfig& cfg, int worldSize);

/// One rank of the N-body computation. Iterations: exchange positions
/// (allgather modeled as a bytes-weighted collective), compute forces,
/// synchronize — and at the iteration boundary give the swap runtime its
/// hijacked communication point. `swap` may be null (no rescheduling).
sim::Task nbodyRank(vmpi::World& world, reschedule::SwapManager* swap,
                    NBodyConfig cfg, int rank,
                    autopilot::AutopilotManager* autopilot,
                    std::string appName, NBodyProgress* progress);

}  // namespace grads::apps
