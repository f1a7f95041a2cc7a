#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "sim/engine.hpp"
#include "sim/ps_resource.hpp"
#include "sim/task.hpp"

namespace grads::grid {

using NodeId = std::size_t;
using ClusterId = std::size_t;
using LinkId = std::size_t;

inline constexpr std::size_t kNoId = static_cast<std::size_t>(-1);

/// Processor architecture tag; the binder uses this to pick per-architecture
/// compilation packages (the paper's IA-32 / IA-64 heterogeneity story).
enum class Arch { kIA32, kIA64, kOther };

const char* archName(Arch a);

/// Cache geometry used by the memory-reuse-distance performance model.
struct CacheGeometry {
  std::size_t sizeBytes = 512 * 1024;
  std::size_t lineBytes = 32;
  std::size_t associativity = 8;

  std::size_t lines() const { return sizeBytes / lineBytes; }
};

/// Static description of a compute node.
struct NodeSpec {
  std::string name;
  double mhz = 500.0;
  double flopsPerCycle = 1.0;
  int cpus = 1;
  /// Fraction of peak a well-tuned dense kernel achieves on this node; the
  /// CPU resource is provisioned at this *effective* rate.
  double efficiency = 0.35;
  double memBytes = 512.0 * 1024 * 1024;
  CacheGeometry cache;
  Arch arch = Arch::kIA32;

  double peakFlopsPerCpu() const { return mhz * 1e6 * flopsPerCycle; }
  double effectiveFlopsPerCpu() const { return peakFlopsPerCpu() * efficiency; }
  double peakFlops() const { return peakFlopsPerCpu() * cpus; }
  double effectiveFlops() const { return effectiveFlopsPerCpu() * cpus; }
};

/// A simulated Grid compute node: a processor-sharing CPU plus metadata.
/// Background ("artificial") load is injected as competing CPU jobs, exactly
/// the mechanism the paper used to trigger contract violations.
class Node {
 public:
  Node(sim::Engine& engine, NodeId id, NodeSpec spec);
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  const NodeSpec& spec() const { return spec_; }
  const std::string& name() const { return spec_.name; }
  ClusterId cluster() const { return cluster_; }
  void setCluster(ClusterId c) { cluster_ = c; }

  /// Burns `flops` floating-point operations on this node's CPU, sharing it
  /// fairly with all other processes/loads currently on the node.
  sim::Task compute(double flops) { return cpu_->consume(flops); }

  sim::PsResource& cpu() { return *cpu_; }
  const sim::PsResource& cpu() const { return *cpu_; }

  /// Adds `weight` perpetual competing processes (external load).
  sim::PsResource::LoadId injectLoad(double weight);
  void removeLoad(sim::PsResource::LoadId id);

  /// Fraction of one CPU a new process would receive right now — what an
  /// NWS CPU sensor measures.
  double cpuAvailability() const;

  /// Fraction of one CPU an *already running* process receives right now
  /// (its own weight is part of the divisor). This is what a performance
  /// model needs to predict the remaining time of an executing application.
  double incumbentAvailability() const;

 private:
  NodeId id_;
  NodeSpec spec_;
  ClusterId cluster_ = kNoId;
  std::unique_ptr<sim::PsResource> cpu_;
};

}  // namespace grads::grid
