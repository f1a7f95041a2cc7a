#include "sim/ps_resource.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/log.hpp"

namespace grads::sim {

namespace {
// A finite job is complete once its residual drops below this fraction of
// its original work (guards against floating-point residue at the exactly
// scheduled finish instant).
constexpr double kRelativeEps = 1e-9;
}  // namespace

PsResource::PsResource(Engine& engine, double capacity, double maxRatePerUnit,
                       std::string name)
    : engine_(&engine),
      capacity_(capacity),
      maxRatePerUnit_(maxRatePerUnit),
      name_(std::move(name)),
      lastUpdate_(engine.now()) {
  GRADS_REQUIRE(capacity >= 0.0, "PsResource: negative capacity");
  GRADS_REQUIRE(maxRatePerUnit > 0.0, "PsResource: maxRatePerUnit must be > 0");
}

PsResource::~PsResource() { pendingFinish_.cancel(); }

double PsResource::ratePerUnitLocked() const {
  double totalW = 0.0;
  for (const auto& j : jobs_) totalW += j.weight;
  if (totalW <= 0.0) return std::min(maxRatePerUnit_, capacity_);
  return std::min(maxRatePerUnit_, capacity_ / totalW);
}

double PsResource::ratePerUnit() const { return ratePerUnitLocked(); }

double PsResource::totalWeight() const {
  double w = 0.0;
  for (const auto& j : jobs_) w += j.weight;
  return w;
}

double PsResource::backgroundWeight() const {
  double w = 0.0;
  for (const auto& j : jobs_) {
    if (j.infinite) w += j.weight;
  }
  return w;
}

void PsResource::advance() {
  const Time now = engine_->now();
  const double dt = now - lastUpdate_;
  lastUpdate_ = now;
  if (dt <= 0.0 || jobs_.empty()) return;
  const double rate = ratePerUnitLocked();
  if (rate <= 0.0) return;
  for (auto& j : jobs_) {
    if (!j.infinite) j.remaining -= rate * j.weight * dt;
  }
}

void PsResource::replan() {
  pendingFinish_.cancel();
  const double rate = ratePerUnitLocked();
  if (rate <= 0.0) return;
  Time dt = kInfTime;
  for (const auto& j : jobs_) {
    if (j.infinite) continue;
    dt = std::min(dt, std::max(0.0, j.remaining) / (rate * j.weight));
  }
  if (dt == kInfTime) return;
  pendingFinish_ = engine_->schedule(dt, [this] {
    advance();
    // A job is complete when its residual is numerical noise — either
    // relative to its total work, or smaller than what one representable
    // time step can drain (event times are quantized to doubles, so such a
    // residual could otherwise never reach zero and would spin the engine).
    const double rate = ratePerUnitLocked();
    const Time now = engine_->now();
    const Time timeQuantum = std::nextafter(now, kInfTime) - now;
    // Stable in-place compaction (order of survivors preserved, finishers
    // signalled in submission order — Event::set only queues resumes, so no
    // reentrancy can touch jobs_ mid-sweep).
    std::size_t keep = 0;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      Job& j = jobs_[i];
      const bool relDone = j.remaining <= kRelativeEps * j.work;
      const bool quantumDone =
          rate > 0.0 && j.remaining <= rate * j.weight * timeQuantum;
      if (!j.infinite && (relDone || quantumDone)) {
        completedWork_ += j.work;
        j.done->set();
      } else {
        if (keep != i) jobs_[keep] = std::move(j);
        ++keep;
      }
    }
    jobs_.resize(keep);
    replan();
  });
}

PsResource::LoadId PsResource::addLoad(double weight) {
  GRADS_REQUIRE(weight > 0.0, "PsResource::addLoad: weight must be > 0");
  advance();
  const LoadId id = nextId_++;
  jobs_.push_back(Job{0.0, 0.0, weight, true, id, nullptr});
  replan();
  return id;
}

void PsResource::removeLoad(LoadId id) {
  advance();
  const auto before = jobs_.size();
  std::erase_if(jobs_, [id](const Job& j) { return j.infinite && j.id == id; });
  GRADS_REQUIRE(jobs_.size() + 1 == before,
                "PsResource::removeLoad: unknown load id");
  replan();
}

Task PsResource::consume(double work, double weight) {
  GRADS_REQUIRE(work >= 0.0, "PsResource::consume: negative work");
  GRADS_REQUIRE(weight > 0.0, "PsResource::consume: weight must be > 0");
  if (work == 0.0) co_return;
  advance();
  const LoadId id = nextId_++;
  jobs_.push_back(
      Job{work, work, weight, false, id, std::make_unique<Event>(*engine_)});
  Event& done = *jobs_.back().done;
  replan();
  co_await done.wait();
}

}  // namespace grads::sim
