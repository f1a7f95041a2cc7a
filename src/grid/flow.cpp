#include "grid/flow.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace grads::grid {

namespace {
// A flow is complete once its residual drops below this fraction of its
// original size (floating-point residue guard, same constant PsResource
// uses for finite jobs).
constexpr double kRelativeEps = 1e-9;
}  // namespace

FlowRegistry::FlowRegistry(sim::Engine& engine)
    : engine_(&engine), lastUpdate_(engine.now()) {}

FlowRegistry::~FlowRegistry() { pendingFinish_.cancel(); }

LinkId FlowRegistry::addLink(double capacityBytesPerSec,
                             double perFlowCapBytesPerSec) {
  GRADS_REQUIRE(capacityBytesPerSec > 0.0,
                "FlowRegistry::addLink: capacity must be > 0");
  GRADS_REQUIRE(perFlowCapBytesPerSec > 0.0,
                "FlowRegistry::addLink: per-flow cap must be > 0");
  const LinkId id = links_.size();
  links_.push_back(LinkState{capacityBytesPerSec, perFlowCapBytesPerSec});
  return id;
}

void FlowRegistry::setLinkCapacity(LinkId link, double capacityBytesPerSec) {
  GRADS_REQUIRE(link < links_.size(),
                "FlowRegistry::setLinkCapacity: unknown link");
  GRADS_REQUIRE(capacityBytesPerSec > 0.0,
                "FlowRegistry::setLinkCapacity: capacity must be > 0");
  advance();
  links_[link].capacity = capacityBytesPerSec;
  solve();
  replan();
}

double FlowRegistry::effectiveWeight(TransferClass cls) const {
  return (pacing_ && cls == TransferClass::kBulk) ? kBulkWeight : 1.0;
}

double FlowRegistry::soloRate(const std::vector<LinkId>& links) const {
  double rate = sim::kInfTime;
  for (const LinkId l : links) {
    rate = std::min(rate, std::min(links_[l].perFlowCap, links_[l].capacity));
  }
  return rate;
}

void FlowRegistry::computeShares(std::vector<Demand>& demands) const {
  if (demands.empty()) return;
  if (mode_ == SharingMode::kStatic) {
    // Ablation baseline: every flow streams at its uncontended solo rate,
    // links carry unbounded aggregate load ("overlapping free time").
    for (auto& d : demands) d.rate = std::min(d.soloCap, soloRate(*d.links));
    return;
  }
  // Progressive water-filling. The water level (rate per unit weight) rises
  // until a link saturates or a flow hits its per-flow cap; the flows that
  // bind there freeze at their share and their weight leaves the pool, so
  // capacity a capped flow cannot use flows on to the rest. Iteration is in
  // flow submission order everywhere — no address-dependent tie-breaks.
  std::vector<double> residual(links_.size());
  std::vector<double> weight(links_.size(), 0.0);
  for (std::size_t l = 0; l < links_.size(); ++l) {
    residual[l] = links_[l].capacity;
  }
  for (const auto& d : demands) {
    for (const LinkId l : *d.links) weight[l] += d.weight;
  }
  std::size_t unfrozen = demands.size();
  while (unfrozen > 0) {
    double level = sim::kInfTime;
    for (const auto& d : demands) {
      if (d.frozen) continue;
      level = std::min(level, d.soloCap / d.weight);
      for (const LinkId l : *d.links) {
        if (weight[l] > 0.0) level = std::min(level, residual[l] / weight[l]);
      }
    }
    bool froze = false;
    for (auto& d : demands) {
      if (d.frozen) continue;
      const bool capHit = d.soloCap / d.weight <= level;
      bool linkHit = false;
      if (!capHit) {
        for (const LinkId l : *d.links) {
          if (weight[l] > 0.0 && residual[l] / weight[l] <= level) {
            linkHit = true;
            break;
          }
        }
      }
      if (!capHit && !linkHit) continue;
      // A lone flow takes min(soloCap, capacity) *exactly*: capHit yields
      // soloCap verbatim, and linkHit yields w·(capacity/w), exact because
      // pacing weights are powers of two. This is the single-flow
      // backward-compat guarantee.
      d.rate = capHit ? d.soloCap : d.weight * level;
      d.frozen = true;
      froze = true;
      --unfrozen;
      for (const LinkId l : *d.links) {
        residual[l] = std::max(0.0, residual[l] - d.rate);
        weight[l] = std::max(0.0, weight[l] - d.weight);
      }
    }
    GRADS_REQUIRE(froze, "FlowRegistry: water-fill did not converge");
  }
}

void FlowRegistry::advance() {
  const sim::Time now = engine_->now();
  const double dt = now - lastUpdate_;
  lastUpdate_ = now;
  if (dt <= 0.0 || flows_.empty()) return;
  for (auto& f : flows_) f.remaining -= f.rate * dt;
}

void FlowRegistry::solve() {
  ++solves_;
  std::vector<Demand> demands;
  demands.reserve(flows_.size());
  for (const auto& f : flows_) {
    Demand d;
    d.links = &f.links;
    d.weight = effectiveWeight(f.cls);
    double cap = sim::kInfTime;
    for (const LinkId l : f.links) cap = std::min(cap, links_[l].perFlowCap);
    d.soloCap = cap;
    demands.push_back(d);
  }
  computeShares(demands);
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    flows_[i].rate = demands[i].rate;
  }
}

void FlowRegistry::replan() {
  pendingFinish_.cancel();
  sim::Time dt = sim::kInfTime;
  for (const auto& f : flows_) {
    if (f.rate <= 0.0) continue;
    dt = std::min(dt, std::max(0.0, f.remaining) / f.rate);
  }
  if (dt == sim::kInfTime) return;
  pendingFinish_ = engine_->schedule(dt, [this] {
    advance();
    const sim::Time now = engine_->now();
    const sim::Time timeQuantum = std::nextafter(now, sim::kInfTime) - now;
    // Stable in-place compaction; finishers are signalled in submission
    // order (Event::set only queues resumes, so nothing reenters flows_
    // mid-sweep).
    std::size_t keep = 0;
    for (std::size_t i = 0; i < flows_.size(); ++i) {
      Flow& f = flows_[i];
      const bool relDone = f.remaining <= kRelativeEps * f.bytes;
      const bool quantumDone =
          f.rate > 0.0 && f.remaining <= f.rate * timeQuantum;
      if (relDone || quantumDone) {
        ++flowsCompleted_;
        bytesCompleted_ += f.bytes;
        f.done->set();
      } else {
        if (keep != i) flows_[keep] = std::move(f);
        ++keep;
      }
    }
    flows_.resize(keep);
    solve();
    replan();
  });
}

sim::Task FlowRegistry::transfer(std::vector<LinkId> links, double bytes,
                                 TransferClass cls) {
  GRADS_REQUIRE(bytes >= 0.0, "FlowRegistry::transfer: negative size");
  for (const LinkId l : links) {
    GRADS_REQUIRE(l < links_.size(), "FlowRegistry::transfer: unknown link");
  }
  if (links.empty() || bytes == 0.0) co_return;
  advance();
  flows_.push_back(Flow{std::move(links), bytes, bytes, cls, 0.0,
                        std::make_unique<sim::Event>(*engine_)});
  ++flowsOpened_;
  peakConcurrent_ =
      std::max(peakConcurrent_, static_cast<std::uint64_t>(flows_.size()));
  sim::Event& done = *flows_.back().done;
  solve();
  replan();
  co_await done.wait();
}

double FlowRegistry::probeShare(LinkId link) const {
  GRADS_REQUIRE(link < links_.size(), "FlowRegistry::probeShare: unknown link");
  const std::vector<LinkId> route{link};
  if (mode_ == SharingMode::kStatic || flows_.empty()) {
    return soloRate(route);
  }
  std::vector<Demand> demands;
  demands.reserve(flows_.size() + 1);
  for (const auto& f : flows_) {
    Demand d;
    d.links = &f.links;
    d.weight = effectiveWeight(f.cls);
    double cap = sim::kInfTime;
    for (const LinkId l : f.links) cap = std::min(cap, links_[l].perFlowCap);
    d.soloCap = cap;
    demands.push_back(d);
  }
  Demand phantom;
  phantom.links = &route;
  phantom.weight = 1.0;
  phantom.soloCap = links_[link].perFlowCap;
  demands.push_back(phantom);
  computeShares(demands);
  return demands.back().rate;
}

double FlowRegistry::linkUtilization(LinkId link) const {
  GRADS_REQUIRE(link < links_.size(),
                "FlowRegistry::linkUtilization: unknown link");
  const double cap = links_[link].capacity;
  if (cap <= 0.0) return 0.0;
  double allocated = 0.0;
  for (const auto& f : flows_) {
    if (std::find(f.links.begin(), f.links.end(), link) != f.links.end()) {
      allocated += f.rate;
    }
  }
  return std::clamp(allocated / cap, 0.0, 1.0);
}

void FlowRegistry::setSharingMode(SharingMode mode) {
  if (mode == mode_) return;
  advance();
  mode_ = mode;
  solve();
  replan();
}

void FlowRegistry::setPacingEnabled(bool enabled) {
  if (enabled == pacing_) return;
  advance();
  pacing_ = enabled;
  solve();
  replan();
}

}  // namespace grads::grid
