// Validates the §3.2 component performance-modeling technique: flop models
// fitted by least squares on *small* instrumented runs, and cache-miss
// predictions from memory-reuse-distance scaling models, evaluated against
// exact counts / direct cache simulation at larger, unseen problem sizes.
// The flop claim is checked: a prediction off by more than 1e-10 relative
// error prints a VIOLATION line and the bench exits 1.

#include <fstream>
#include <iostream>
#include <sstream>

#include "bench_paths.hpp"
#include "grid/node.hpp"
#include "mem/cache.hpp"
#include "mem/reuse.hpp"
#include "perfmodel/kernel_model.hpp"
#include "util/table.hpp"

using namespace grads;

namespace {

struct Kernel {
  std::string name;
  perfmodel::KernelModel model;
  std::function<void(std::size_t, mem::TraceSink)> tracer;
  std::function<double(std::size_t)> flops;
  std::vector<std::size_t> evalSizes;
};

}  // namespace

int main() {
  std::ofstream flopsCsv =
      bench::openOutput(bench::outputPath("perfmodel_flops.csv"));
  std::ofstream missCsv =
      bench::openOutput(bench::outputPath("perfmodel_misses.csv"));
  std::vector<Kernel> kernels;
  kernels.push_back({"matmul",
                     perfmodel::trainMatmulModel({16, 24, 32, 40, 48}),
                     [](std::size_t n, mem::TraceSink s) {
                       mem::traceMatmul(n, perfmodel::kModelElementsPerBlock,
                                        std::move(s));
                     },
                     [](std::size_t n) { return mem::matmulFlopCount(n); },
                     {64, 96, 128}});
  kernels.push_back({"qr",
                     perfmodel::trainQrModel({24, 32, 48, 64, 80}),
                     [](std::size_t n, mem::TraceSink s) {
                       mem::traceQr(n, perfmodel::kModelElementsPerBlock,
                                    std::move(s));
                     },
                     [](std::size_t n) { return mem::qrFlopCount(n); },
                     {128, 192, 256}});
  kernels.push_back({"nbody",
                     perfmodel::trainNBodyModel({64, 96, 128, 192}),
                     [](std::size_t n, mem::TraceSink s) {
                       mem::traceNBody(n, perfmodel::kModelElementsPerBlock,
                                       std::move(s));
                     },
                     [](std::size_t n) { return mem::nbodyFlopCount(n); },
                     {512, 1024}});
  kernels.push_back({"stencil",
                     perfmodel::trainStencilModel({256, 512, 1024, 2048}),
                     [](std::size_t n, mem::TraceSink s) {
                       mem::traceStencil(n, 4,
                                         perfmodel::kModelElementsPerBlock,
                                         std::move(s));
                     },
                     [](std::size_t n) { return mem::stencilFlopCount(n, 4); },
                     {8192, 16384}});

  util::Table flopsTable(
      {"kernel", "size", "flops_exact", "flops_predicted", "rel_err_pct"});
  util::Table missTable({"kernel", "size", "cache_kb", "misses_simulated",
                         "misses_predicted", "ratio"});

  // The flop counts are polynomial in n, so least squares recovers them
  // exactly: only rounding separates prediction from count (the worst row
  // is 5.0e-13, qr at n = 256).
  constexpr double kMaxFlopRelErr = 1e-10;
  std::ostringstream violations;
  for (auto& k : kernels) {
    for (const auto n : k.evalSizes) {
      const double exact = k.flops(n);
      const double pred = k.model.predictFlops(static_cast<double>(n));
      const double err = std::abs(pred - exact);
      flopsTable.addRow({k.name, static_cast<std::int64_t>(n), exact, pred,
                         100.0 * err / exact});
      if (!(err / exact <= kMaxFlopRelErr)) {
        violations << "VIOLATION: " << k.name << " n=" << n
                   << " flop prediction has relative error " << err / exact
                   << ", above " << kMaxFlopRelErr << "\n";
      }

      // One histogram answers every capacity: trace once, then query each.
      mem::ReuseDistanceAnalyzer rd;
      k.tracer(n, rd.sink());
      for (const std::size_t cacheKb : {16, 64, 256}) {
        grid::CacheGeometry cache{cacheKb * 1024,
                                  perfmodel::kModelBlockBytes, 8};
        const auto sim = static_cast<double>(rd.global().missesForCapacity(
            cache.sizeBytes / cache.lineBytes));
        const double pred2 =
            k.model.predictMisses(static_cast<double>(n), cache);
        missTable.addRow({k.name, static_cast<std::int64_t>(n),
                          static_cast<std::int64_t>(cacheKb), sim, pred2,
                          sim > 0.0 ? pred2 / sim : 0.0});
      }
    }
  }

  flopsTable.print(std::cout,
                   "§3.2 — flop models: least-squares fits trained on small "
                   "sizes, evaluated at unseen larger sizes");
  missTable.print(std::cout,
                  "§3.2 — MRD cache-miss models vs direct LRU simulation");
  flopsTable.writeCsv(flopsCsv);
  missTable.writeCsv(missCsv);

  std::cout << "\nExpected shape: flop predictions within a fraction of a "
               "percent (polynomial counts are fit exactly); miss-count "
               "ratios near 1 in miss-heavy regimes, drifting where the "
               "bucketed quantile model coarsens.\n";
  std::cout << violations.str();
  return violations.str().empty() ? 0 : 1;
}
