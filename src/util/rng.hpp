#pragma once

#include <cstdint>

namespace grads {

/// Complete position of an Rng stream: the xoshiro256** words plus the
/// Box–Muller spare. Capturing and re-applying it resumes the stream
/// mid-flight — the snapshot/restore layer persists exactly this.
struct RngState {
  std::uint64_t s[4] = {0, 0, 0, 0};
  bool haveSpare = false;
  double spare = 0.0;
};

/// Deterministic pseudo-random source (xoshiro256**). All stochastic behaviour
/// in the library flows through an explicitly seeded Rng so experiments are
/// exactly repeatable — a requirement the paper motivates for the MicroGrid.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Stream position accessors (see RngState). setState fully overwrites the
  /// generator; the next draw after setState(state()) repeats exactly.
  RngState state() const;
  void setState(const RngState& st);

  std::uint64_t next();

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);
  /// Standard normal via Box–Muller.
  double normal();
  /// Normal with given mean / stddev.
  double normal(double mean, double stddev);
  /// Exponential with given rate (1/mean).
  double exponential(double rate);
  /// Pareto-distributed heavy-tail sample with scale xm and shape alpha.
  double pareto(double xm, double alpha);

 private:
  std::uint64_t s_[4];
  bool haveSpare_ = false;
  double spare_ = 0.0;
};

}  // namespace grads
