#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "grid/node.hpp"
#include "mem/reuse.hpp"
#include "mem/trace.hpp"
#include "util/stats.hpp"

namespace grads::perfmodel {

/// Reference cache-block size the models are trained at (8 doubles = 64 B).
inline constexpr std::size_t kModelBlockBytes = 64;
inline constexpr std::size_t kModelElementsPerBlock = kModelBlockBytes / 8;

/// Training inputs for one kernel: a trace generator and a flop counter
/// evaluated at several *small* problem sizes — standing in for the paper's
/// instrumented runs with hardware performance counters (§3.2).
struct TrainingSet {
  std::vector<std::size_t> sizes;
  std::function<void(std::size_t size, mem::TraceSink)> tracer;
  std::function<double(std::size_t size)> flopCounter;
  int flopFitDegree = 3;
};

/// Scaling model of one reference site's reuse-distance distribution:
/// access/cold counts fitted polynomially in n, and each distance quantile
/// fitted as a power law in n.
struct SiteModel {
  stats::PolyFit accesses;
  stats::PolyFit coldMisses;
  std::vector<stats::PowerFit> quantileDistance;  // at kQuantilePoints
  std::vector<bool> quantileIsZero;               // distance identically 0
};

/// Architecture-independent model of a single kernel/component, built from
/// small-size instrumented executions (paper §3.2):
///  - floating-point operation count: least-squares polynomial in n;
///  - memory behaviour: per-site memory-reuse-distance scaling models that
///    predict cache misses for an arbitrary problem size and cache geometry.
class KernelModel {
 public:
  static constexpr int kQuantilePoints = 20;

  static KernelModel train(const TrainingSet& ts);

  double predictFlops(double n) const;

  /// Predicted misses in a cache of the given geometry (fully-associative
  /// LRU approximation; capacity counted in 64 B model blocks).
  double predictMisses(double n, const grid::CacheGeometry& cache) const;

  double predictAccesses(double n) const;

  /// ecost: predicted execution time of the kernel at size n on one node —
  /// compute time at the node's effective rate plus cache-miss stall time.
  /// This is the "rough time estimate based on architectural parameters"
  /// of §3.2.
  double predictSeconds(double n, const grid::NodeSpec& node) const;

 private:
  stats::PolyFit flops_;
  std::map<std::uint32_t, SiteModel> sites_;
};

/// Pre-built models for the repository's kernels.
KernelModel trainMatmulModel(std::vector<std::size_t> sizes = {24, 32, 40, 48,
                                                               56, 64});
KernelModel trainQrModel(std::vector<std::size_t> sizes = {24, 32, 48, 64, 80,
                                                           96});
KernelModel trainNBodyModel(std::vector<std::size_t> sizes = {64, 96, 128, 192,
                                                              256});
KernelModel trainStencilModel(std::vector<std::size_t> sizes = {256, 512, 1024,
                                                                2048, 4096});

}  // namespace grads::perfmodel
