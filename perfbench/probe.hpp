// Timing and counting probes the benchmark wraps around its calls into the
// simulator's layers. Everything here lives in the benchmark: the program
// under test is driven through its public API and is never instrumented.
//
// Two instruments:
//   - Counters, always on: work done by each layer, read from the layer's
//     public counters and hooks. Deterministic, so they repeat exactly.
//   - Spans, on only in a traced phase: one span per timed call (name,
//     start, end, parent span, op id), kept in memory and aggregated or
//     exported as Chrome trace-event JSON when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace grads::sim {
class Engine;
}
namespace grads::grid {
class Grid;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The calls the benchmark times, one span name per layer boundary.
enum class Layer : std::uint8_t {
  kOp,          ///< one workload operation (root span)
  kWorldBuild,  ///< core/app_manager + testbeds: a fresh control plane
  kSimRun,      ///< sim: Engine::run / runUntil
  kCapture,     ///< core/snapshot: AppManager::snapshotNow
  kSerialize,   ///< core/snapshot: SnapshotImage::serialize
  kParse,       ///< core/snapshot: SnapshotImage::parse
  kRestore,     ///< core/snapshot: AppManager::restoreFrom
  kScheduler,   ///< workflow: WorkflowScheduler::schedule
  kFork,        ///< reschedule/whatif: the sandbox runner
};
inline constexpr int kLayerCount = 9;
const char* layerName(Layer layer);

/// Work counters, reset at the start of every measured phase.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t engines = 0;
  std::uint64_t poolNodesPeak = 0;
  std::uint64_t worldBuilds = 0;
  std::uint64_t captures = 0;
  std::uint64_t serializes = 0;
  std::uint64_t serializeBytes = 0;
  std::uint64_t parses = 0;
  std::uint64_t parseBytes = 0;
  std::uint64_t restores = 0;
  std::uint64_t flowsOpened = 0;
  std::uint64_t flowSolves = 0;
  std::uint64_t flowPeakConcurrent = 0;
  std::uint64_t nwsSamples = 0;
  std::uint64_t schedulerCalls = 0;
  std::uint64_t schedulerComponents = 0;
  std::uint64_t ecostCalls = 0;
  std::uint64_t transferCalls = 0;
  double estimatorSec = 0.0;
  std::uint64_t journalTransitions = 0;
  std::uint64_t journalCommitted = 0;
  std::uint64_t journalRolledBack = 0;
  std::uint64_t whatifDecisions = 0;
  std::uint64_t whatifForks = 0;
  std::uint64_t whatifFallbacks = 0;
  std::uint64_t whatifOverrides = 0;
  std::uint64_t metaTransitions = 0;
  std::uint64_t metaTicks = 0;
  std::uint64_t metaSubmitted = 0;
  std::uint64_t metaAdmitted = 0;
  std::uint64_t metaDispatched = 0;
  std::uint64_t metaPreempted = 0;
  std::uint64_t metaShed = 0;
  std::uint64_t metaPeakInSystem = 0;
  std::uint64_t crashPoints = 0;
  std::uint64_t distinctImages = 0;

  /// Folds one engine's lifetime work in (call once per engine, at its end).
  void noteEngine(const grads::sim::Engine& eng);
  /// Folds one grid's flow-registry counters in.
  void noteFlows(const grads::grid::Grid& g);
};

struct Span {
  Layer layer = Layer::kOp;
  std::int32_t parent = -1;  ///< index into the span list, -1 = root
  std::uint32_t op = 0;
  double start = 0.0;  ///< seconds since the phase began
  double end = 0.0;
};

/// Per-layer host time aggregated from one phase's spans.
struct LayerTimes {
  /// Sum of span durations, counting a span only when no ancestor has the
  /// same layer (a sandbox's Engine::run inside the parent's is not added
  /// twice).
  double total[kLayerCount] = {};
  /// Sum of span durations minus the time covered by their child spans.
  double self[kLayerCount] = {};
};

class Probe {
 public:
  /// Clears counters and spans; `traced` turns span recording on or off.
  void beginPhase(bool traced);
  bool tracing() const { return tracing_; }

  Counters& count() { return counters_; }
  const Counters& counters() const { return counters_; }

  /// Op id stamped on every span opened from now on.
  void setOp(std::uint32_t op) { op_ = op; }

  std::int32_t open(Layer layer);
  void close(std::int32_t span);

  const std::vector<Span>& spans() const { return spans_; }
  LayerTimes layerTimes() const;

 private:
  bool tracing_ = false;
  Counters counters_;
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
  std::uint32_t op_ = 0;
  Clock::time_point origin_ = Clock::now();
};

/// RAII span: records a span only while the probe is tracing, so untraced
/// phases pay one branch per timed call.
class Scope {
 public:
  Scope(Probe& probe, Layer layer)
      : probe_(probe.tracing() ? &probe : nullptr),
        span_(probe_ != nullptr ? probe_->open(layer) : -1) {}
  ~Scope() {
    if (probe_ != nullptr) probe_->close(span_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Probe* probe_;
  std::int32_t span_;
};

/// Writes spans as Chrome trace-event JSON (opens offline in Perfetto).
bool writeChromeTrace(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
