#include "apps/nbody.hpp"

namespace grads::apps {

namespace {
constexpr double kFlopsPerPair = 20.0;
constexpr double kBytesPerParticle = 24.0;  ///< 3 doubles of position
}  // namespace

double nbodyIterationFlopsPerRank(const NBodyConfig& cfg, int worldSize) {
  const double n = static_cast<double>(cfg.particles);
  return kFlopsPerPair * n * (n - 1.0) / static_cast<double>(worldSize);
}

sim::Task nbodyRank(vmpi::World& world, reschedule::SwapManager* swap,
                    NBodyConfig cfg, int rank,
                    autopilot::AutopilotManager* autopilot,
                    std::string appName, NBodyProgress* progress) {
  const int p = world.size();
  const double exchangeBytes =
      static_cast<double>(cfg.particles) * kBytesPerParticle /
      static_cast<double>(p);

  co_await world.barrier(rank);
  for (std::size_t iter = 0; iter < cfg.iterations; ++iter) {
    const double t0 = world.engine().now();

    // Position exchange: ring allgather of everyone's particle slice.
    co_await world.allgather(rank, exchangeBytes);
    // Force computation on this rank's slice.
    co_await world.compute(rank, nbodyIterationFlopsPerRank(cfg, p));
    // Iteration-closing reduction (energy check).
    co_await world.allreduce(rank, 64.0);

    if (rank == 0) {
      if (autopilot != nullptr) {
        autopilot->report(autopilot::phaseTimeChannel(appName),
                          world.engine().now() - t0);
        autopilot->report(autopilot::iterationChannel(appName),
                          static_cast<double>(iter + 1));
      }
      if (progress != nullptr) {
        progress->samples.emplace_back(world.engine().now(),
                                       static_cast<int>(iter + 1));
      }
    }

    // The hijacked communication point where pending swaps are applied.
    if (swap != nullptr) co_await swap->atIterationBoundary(rank);
  }
}

}  // namespace grads::apps
