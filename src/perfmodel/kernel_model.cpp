#include "perfmodel/kernel_model.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace grads::perfmodel {

namespace {
/// Stall time of one modelled cache miss, the same on every node.
constexpr double kCacheMissPenaltySec = 120e-9;

double quantilePoint(int k) {
  // Midpoints of kQuantilePoints equal-mass strata: (k + 0.5) / K.
  return (static_cast<double>(k) + 0.5) /
         static_cast<double>(KernelModel::kQuantilePoints);
}
}  // namespace

KernelModel KernelModel::train(const TrainingSet& ts) {
  GRADS_REQUIRE(ts.sizes.size() >=
                    static_cast<std::size_t>(ts.flopFitDegree) + 1,
                "KernelModel::train: need more sizes than fit degree");
  GRADS_REQUIRE(ts.tracer && ts.flopCounter,
                "KernelModel::train: tracer and flopCounter required");

  KernelModel m;

  // Flop model: least-squares polynomial over the instrumented sizes.
  std::vector<double> xs;
  std::vector<double> flops;
  for (const auto n : ts.sizes) {
    xs.push_back(static_cast<double>(n));
    flops.push_back(ts.flopCounter(n));
  }
  m.flops_ = stats::polyFit(xs, flops, ts.flopFitDegree);

  // Memory model: per-site reuse-distance histograms at every size.
  std::vector<std::map<std::uint32_t, mem::ReuseHistogram>> hists;
  hists.reserve(ts.sizes.size());
  for (const auto n : ts.sizes) {
    mem::ReuseDistanceAnalyzer rd;
    ts.tracer(n, rd.sink());
    hists.push_back(rd.perSite());
  }

  // Union of sites seen at any size (all sizes should produce the same set).
  std::map<std::uint32_t, SiteModel> sites;
  for (const auto& h : hists) {
    for (const auto& [site, hist] : h) {
      (void)hist;
      sites.emplace(site, SiteModel{});
    }
  }

  const int accessDegree = std::min<int>(
      ts.flopFitDegree, static_cast<int>(ts.sizes.size()) - 1);
  for (auto& [site, sm] : sites) {
    std::vector<double> acc;
    std::vector<double> cold;
    std::vector<std::vector<double>> qd(kQuantilePoints);
    for (std::size_t i = 0; i < ts.sizes.size(); ++i) {
      const auto it = hists[i].find(site);
      const mem::ReuseHistogram empty;
      const mem::ReuseHistogram& h =
          it != hists[i].end() ? it->second : empty;
      acc.push_back(static_cast<double>(h.total()));
      cold.push_back(static_cast<double>(h.coldMisses()));
      for (int k = 0; k < kQuantilePoints; ++k) {
        qd[static_cast<std::size_t>(k)].push_back(
            static_cast<double>(h.quantile(quantilePoint(k))));
      }
    }
    sm.accesses = stats::polyFit(xs, acc, accessDegree);
    sm.coldMisses = stats::polyFit(xs, cold, accessDegree);
    sm.quantileDistance.resize(kQuantilePoints);
    sm.quantileIsZero.resize(kQuantilePoints, false);
    for (int k = 0; k < kQuantilePoints; ++k) {
      auto& ds = qd[static_cast<std::size_t>(k)];
      const bool allZero =
          std::all_of(ds.begin(), ds.end(), [](double d) { return d == 0.0; });
      sm.quantileIsZero[static_cast<std::size_t>(k)] = allZero;
      if (allZero) continue;
      // Power-law fit needs positive values; clamp zeros to half a block.
      std::vector<double> clamped(ds.size());
      std::transform(ds.begin(), ds.end(), clamped.begin(),
                     [](double d) { return std::max(d, 0.5); });
      sm.quantileDistance[static_cast<std::size_t>(k)] =
          stats::powerFit(xs, clamped);
    }
  }
  m.sites_ = std::move(sites);
  return m;
}

double KernelModel::predictFlops(double n) const {
  return std::max(0.0, flops_.eval(n));
}

double KernelModel::predictAccesses(double n) const {
  double total = 0.0;
  for (const auto& [site, sm] : sites_) {
    (void)site;
    total += std::max(0.0, sm.accesses.eval(n));
  }
  return total;
}

double KernelModel::predictMisses(double n,
                                  const grid::CacheGeometry& cache) const {
  // Capacity measured in the 64 B model blocks the traces were collected at,
  // independent of the target's actual line size (documented approximation).
  const double capacityBlocks =
      static_cast<double>(cache.sizeBytes) /
      static_cast<double>(kModelBlockBytes);
  double misses = 0.0;
  for (const auto& [site, sm] : sites_) {
    (void)site;
    const double acc = std::max(0.0, sm.accesses.eval(n));
    const double cold = std::clamp(sm.coldMisses.eval(n), 0.0, acc);
    int missQ = 0;
    for (int k = 0; k < kQuantilePoints; ++k) {
      if (sm.quantileIsZero[static_cast<std::size_t>(k)]) continue;
      const double d =
          sm.quantileDistance[static_cast<std::size_t>(k)].eval(n);
      if (d >= capacityBlocks) ++missQ;
    }
    const double missFrac =
        static_cast<double>(missQ) / static_cast<double>(kQuantilePoints);
    misses += cold + (acc - cold) * missFrac;
  }
  return misses;
}

double KernelModel::predictSeconds(double n, const grid::NodeSpec& node) const {
  const double compute = predictFlops(n) / node.effectiveFlopsPerCpu();
  const double stall = predictMisses(n, node.cache) * kCacheMissPenaltySec;
  return compute + stall;
}

KernelModel trainMatmulModel(std::vector<std::size_t> sizes) {
  TrainingSet ts;
  ts.sizes = std::move(sizes);
  ts.tracer = [](std::size_t n, mem::TraceSink sink) {
    mem::traceMatmul(n, kModelElementsPerBlock, std::move(sink));
  };
  ts.flopCounter = [](std::size_t n) { return mem::matmulFlopCount(n); };
  return KernelModel::train(ts);
}

KernelModel trainQrModel(std::vector<std::size_t> sizes) {
  TrainingSet ts;
  ts.sizes = std::move(sizes);
  ts.tracer = [](std::size_t n, mem::TraceSink sink) {
    mem::traceQr(n, kModelElementsPerBlock, std::move(sink));
  };
  ts.flopCounter = [](std::size_t n) { return mem::qrFlopCount(n); };
  return KernelModel::train(ts);
}

KernelModel trainNBodyModel(std::vector<std::size_t> sizes) {
  TrainingSet ts;
  ts.sizes = std::move(sizes);
  ts.flopFitDegree = 2;
  ts.tracer = [](std::size_t n, mem::TraceSink sink) {
    mem::traceNBody(n, kModelElementsPerBlock, std::move(sink));
  };
  ts.flopCounter = [](std::size_t n) { return mem::nbodyFlopCount(n); };
  return KernelModel::train(ts);
}

KernelModel trainStencilModel(std::vector<std::size_t> sizes) {
  TrainingSet ts;
  ts.sizes = std::move(sizes);
  ts.flopFitDegree = 1;
  ts.tracer = [](std::size_t n, mem::TraceSink sink) {
    mem::traceStencil(n, 4, kModelElementsPerBlock, std::move(sink));
  };
  ts.flopCounter = [](std::size_t n) { return mem::stencilFlopCount(n, 4); };
  return KernelModel::train(ts);
}

}  // namespace grads::perfmodel
