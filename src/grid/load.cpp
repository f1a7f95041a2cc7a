#include "grid/load.hpp"

#include <memory>
#include <optional>

#include "util/error.hpp"

namespace grads::grid {

LoadTrace::LoadTrace(std::vector<LoadPhase> phases)
    : phases_(std::move(phases)) {
  for (std::size_t i = 1; i < phases_.size(); ++i) {
    GRADS_REQUIRE(phases_[i].start > phases_[i - 1].start,
                  "LoadTrace: phases must be strictly increasing in time");
  }
  for (const auto& p : phases_) {
    GRADS_REQUIRE(p.weight >= 0.0, "LoadTrace: negative weight");
    GRADS_REQUIRE(p.start >= 0.0, "LoadTrace: negative start time");
  }
}

double LoadTrace::weightAt(sim::Time t) const {
  double w = 0.0;
  for (const auto& p : phases_) {
    if (p.start <= t) {
      w = p.weight;
    } else {
      break;
    }
  }
  return w;
}

LoadTrace LoadTrace::stepAt(sim::Time at, double weight) {
  return LoadTrace({LoadPhase{at, weight}});
}

LoadTrace LoadTrace::pulse(sim::Time from, sim::Time until, double weight) {
  GRADS_REQUIRE(until > from, "LoadTrace::pulse: empty interval");
  return LoadTrace({LoadPhase{from, weight}, LoadPhase{until, 0.0}});
}

LoadTrace LoadTrace::randomOnOff(Rng& rng, double meanOffSec, double meanOnSec,
                                 double weight, sim::Time horizon) {
  GRADS_REQUIRE(meanOffSec > 0.0 && meanOnSec > 0.0,
                "LoadTrace::randomOnOff: means must be positive");
  std::vector<LoadPhase> phases;
  sim::Time t = rng.exponential(1.0 / meanOffSec);
  while (t < horizon) {
    phases.push_back(LoadPhase{t, weight});
    t += rng.exponential(1.0 / meanOnSec);
    if (t >= horizon) break;
    phases.push_back(LoadPhase{t, 0.0});
    t += rng.exponential(1.0 / meanOffSec);
  }
  return LoadTrace(std::move(phases));
}

namespace {

using CurrentLoad = std::shared_ptr<std::optional<sim::PsResource::LoadId>>;

void armPhase(sim::Engine& engine, Node& node, const CurrentLoad& current,
              sim::Time at, double weight) {
  // Daemon events: background load must not keep the simulation alive
  // after the foreground work completes. The node outlives every armed
  // phase (it is grid-owned), so capture an explicit handle rather than a
  // reference bound to this frame's parameter (lint rule R10).
  sim::PsResource* cpu = &node.cpu();
  engine.scheduleDaemonAt(at, [cpu, current, weight] {
    if (current->has_value()) {
      cpu->removeLoad(current->value());
      current->reset();
    }
    if (weight > 0.0) *current = cpu->addLoad(weight);
  });
}

}  // namespace

void applyLoadTrace(sim::Engine& engine, Node& node, const LoadTrace& trace) {
  // Shared slot holding the currently injected load id (if any).
  auto current = std::make_shared<std::optional<sim::PsResource::LoadId>>();
  for (const auto& phase : trace.phases()) {
    armPhase(engine, node, current, phase.start, phase.weight);
  }
}

void applyLoadTraceFrom(sim::Engine& engine, Node& node, const LoadTrace& trace,
                        sim::Time fromTime) {
  auto current = std::make_shared<std::optional<sim::PsResource::LoadId>>();
  // The phase active at fromTime is injected directly — the snapshot never
  // serializes PsResource job lists, so the restored node starts bare.
  const double now = trace.weightAt(fromTime);
  if (now > 0.0) *current = node.injectLoad(now);
  for (const auto& phase : trace.phases()) {
    if (phase.start > fromTime) {
      armPhase(engine, node, current, phase.start, phase.weight);
    }
  }
}

}  // namespace grads::grid
