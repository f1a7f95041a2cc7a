#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace grads::sim {

/// Processor-sharing resource of fixed capacity.
///
/// It models CPUs and IBP depot disks:
///  - a CPU is a PsResource with capacity = cores × flops/core and
///    maxRatePerUnit = flops/core (one process cannot use two cores);
///  - a depot disk is a PsResource whose capacity is the disk's bandwidth
///    (bytes/s), shared by the reads and writes in flight.
///
/// Network links are not PsResources: grid::FlowRegistry shares them by
/// weighted max-min fairness.
///
/// Finite jobs (compute bursts, transfers) are submitted with consume(work)
/// and complete when the integral of their share of capacity reaches `work`.
/// External/background load is modelled as *infinite* jobs (addLoad): they
/// never finish but take their fair share, which is exactly how the paper's
/// "artificial load" (competing processes on a node) behaves.
///
/// Shares are weighted: a job of weight w gets
///     rate = w * min(maxRatePerUnit, capacity / totalWeight).
class PsResource {
 public:
  using LoadId = std::uint64_t;

  PsResource(Engine& engine, double capacity,
             double maxRatePerUnit = kInfTime, std::string name = "");
  ~PsResource();
  PsResource(const PsResource&) = delete;
  PsResource& operator=(const PsResource&) = delete;

  const std::string& name() const { return name_; }
  double capacity() const { return capacity_; }
  Engine& engine() const { return *engine_; }

  /// Adds a perpetual competing job of the given weight; returns its id.
  LoadId addLoad(double weight = 1.0);
  /// Removes a competing job previously added with addLoad().
  void removeLoad(LoadId id);
  /// Total weight of infinite (background-load) jobs.
  double backgroundWeight() const;

  /// Total weight across all jobs (finite + infinite).
  double totalWeight() const;
  /// Instantaneous rate a new weight-1 job would receive right now.
  double ratePerUnit() const;

  /// Consumes `work` units (flops / bytes); completes when done.
  /// Cooperative: cannot be aborted once started (callers poll between
  /// bursts, matching the paper's user-level checkpoint/swap points).
  Task consume(double work, double weight = 1.0);

  /// Total finite work completed since construction (for sensors/tests).
  double completedWork() const { return completedWork_; }

 private:
  struct Job {
    double remaining;
    double work;
    double weight;
    bool infinite;
    LoadId id;
    // Owned out-of-line so waiter addresses survive jobs_ reallocation.
    std::unique_ptr<Event> done;  // null for infinite jobs
  };

  void advance();
  void replan();
  double ratePerUnitLocked() const;

  Engine* engine_;
  double capacity_;
  double maxRatePerUnit_;
  std::string name_;
  // Contiguous so the advance()/replan() sweeps (every job or load change and
  // every finish event walks all jobs) stream instead of pointer-chasing.
  std::vector<Job> jobs_;
  Time lastUpdate_ = 0.0;
  Engine::EventHandle pendingFinish_;
  LoadId nextId_ = 1;
  double completedWork_ = 0.0;
};

}  // namespace grads::sim
