// The benchmark's workload interface. A workload builds all its inputs from
// the seed in setup(), and then runs its measured phase as often as the
// run's time allows; each phase reports the checked outcomes of its ops.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "probe.hpp"

namespace perfbench {

/// One checked simulated outcome, covering `ops` workload operations. The
/// digest is compared with the recorded expectation; `failedOps` are ops the
/// workload itself found failed (incomplete restore, failed or unserved
/// job, broken schedule invariant).
struct Outcome {
  std::uint64_t digest = 0;
  std::uint64_t ops = 1;
  std::uint64_t failedOps = 0;
};

struct PhaseResult {
  /// Host seconds of the measured work (excludes any per-phase world
  /// build the workload does not count as an op).
  double wallSec = 0.0;
  std::vector<Outcome> outcomes;
  /// Host latency of each op in milliseconds, in op order. Every phase
  /// runs the same ops in the same order, so op i's times compare across
  /// phases.
  std::vector<double> opMs;
};

/// How a run samples a workload. Both are constants of the workload, so
/// the number of samples a run takes never follows the speed of the code
/// under test.
struct Sampling {
  /// Host seconds of one phase on the reference host; a run of S seconds
  /// makes S / phaseSec phases (at least 3).
  double phaseSec = 1.0;
  /// Set-up repetitions; setup_s is their median.
  int setups = 1;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual Sampling sampling() const = 0;

  /// Builds every input from the seed (testbeds, worlds, DAGs, NWS
  /// warm-up, profiling runs). Timed as setup_s; may be called repeatedly,
  /// each call starting from scratch.
  virtual void setup(std::uint64_t seed, Probe& probe) = 0;
  /// One untimed operation, run once before the timed phases.
  virtual void warmUp(Probe& probe) = 0;
  /// One run of the measured phase. Must be repeatable: every run of the
  /// same setup yields the same outcomes.
  virtual PhaseResult runPhase(Probe& probe) = 0;
};

std::unique_ptr<Workload> makeCrashRestart();
std::unique_ptr<Workload> makeTenantOverload();
std::unique_ptr<Workload> makeWorkflowMapping();

/// SplitMix64 step: derives independent sub-seeds from the workload seed.
inline std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
