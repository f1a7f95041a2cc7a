#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/snapshot.hpp"
#include "grid/grid.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace grads::services {

/// One forecasting strategy over a measurement series. The real Network
/// Weather Service [Wolski et al.] runs a battery of simple predictors and
/// dynamically selects whichever has the lowest error so far; we reproduce
/// that design.
///
/// encodeState/decodeState persist the predictor's *fitted* state (windows,
/// sufficient statistics) so a restored NWS forecasts exactly what the
/// pre-crash one would have; construction parameters (window sizes, alpha)
/// are configuration and are re-supplied by the battery constructor.
class Forecaster {
 public:
  virtual ~Forecaster() = default;
  virtual void update(double value) = 0;
  virtual double forecast() const = 0;
  virtual const char* name() const = 0;
  virtual void encodeState(core::SnapshotWriter& w) const = 0;
  virtual void decodeState(core::SnapshotReader& r) = 0;
};

std::unique_ptr<Forecaster> makeLastValue();
std::unique_ptr<Forecaster> makeRunningMean();
std::unique_ptr<Forecaster> makeSlidingMean(std::size_t window);
std::unique_ptr<Forecaster> makeSlidingMedian(std::size_t window);
std::unique_ptr<Forecaster> makeExpSmoothing(double alpha);
/// First-order autoregressive predictor with online least-squares fit of
/// x_{t+1} ≈ a·x_t + b (captures mean-reverting load dynamics).
std::unique_ptr<Forecaster> makeAr1();

/// Battery of forecasters with per-forecaster mean-absolute-error tracking;
/// forecast() delegates to the current best.
class ForecasterBattery {
 public:
  ForecasterBattery();  ///< the standard NWS-style battery

  void addMeasurement(double value);
  double forecast() const;
  /// Name of the forecaster currently selected as best.
  std::string bestName() const;
  std::size_t measurements() const { return count_; }
  double lastValue() const { return last_; }

  /// Snapshot codec (core/snapshot.hpp): measurement count, last value,
  /// and every forecaster's error score + fitted state. Decode requires the
  /// battery shape (entry count) to match — the battery roster is
  /// configuration, not state — and re-picks the best forecaster from the
  /// decoded scores.
  void encodeState(core::SnapshotWriter& w) const { snapshotIo(*this, w); }
  void decodeState(core::SnapshotReader& r);

 private:
  template <class Self, class Ar>
  static void snapshotIo(Self& s, Ar& a) {
    a(s.count_, s.last_);
    a.expect("ForecasterBattery: snapshot battery shape does not match (the "
             "forecaster roster is configuration, not state)",
             s.entries_.size());
    for (auto& e : s.entries_) a(e.absErrorSum, e.predictions, *e.forecaster);
  }

  struct Entry {
    std::unique_ptr<Forecaster> forecaster;
    double absErrorSum = 0.0;
    std::size_t predictions = 0;
  };
  /// Lowest mean absolute error so far; the first index wins ties.
  std::size_t bestIndex() const;

  std::vector<Entry> entries_;
  std::size_t count_ = 0;
  double last_ = 0.0;
  std::size_t best_ = 0;  // grads: transient(index of the best score - set by addMeasurement and on decode)
};

/// The Network Weather Service: periodically senses node CPU availability
/// and link bandwidth/latency (ground truth + measurement noise) and serves
/// forecasts to schedulers and the rescheduler (paper §3.1, §4.1.1).
class Nws : public core::Snapshottable {
 public:
  Nws(sim::Engine& engine, grid::Grid& grid, double periodSec = 10.0,
      double relativeNoise = 0.03, std::uint64_t seed = 1234);

  /// Snapshot participation: measurement history, every forecaster's fitted
  /// state, the sensing Rng's stream position, and the dark/stale clocks
  /// all round-trip. The sampling daemon itself is NOT serialized — decode
  /// always leaves the service stopped, and the restore protocol re-arms it
  /// with one explicit start() (which is idempotent, so the sampler can
  /// never be armed twice).
  const char* snapshotSection() const override { return "services.nws"; }
  std::uint32_t snapshotVersion() const override { return 2; }  // + mean sums
  void encodeState(core::SnapshotWriter& w) const override {
    snapshotIo(*this, w);
  }
  void decodeState(core::SnapshotReader& r) override;

  /// Begins periodic monitoring of every node and link in the grid.
  void start();
  void stop() { running_ = false; }

  /// Sensor outage: while dark the daemon keeps ticking but records
  /// nothing, so forecasts age and eventually go stale, and the accessors
  /// below degrade instead of failing.
  void setDark(bool dark) { dark_ = dark; }
  bool dark() const { return dark_; }

  /// Seconds since the last successful measurement sweep (infinity before
  /// the first one).
  double lastSampleAgeSec() const;
  /// Forecasts older than three sensing periods are served as raw
  /// last-known values instead of battery forecasts (the middle rung of
  /// live -> last-known -> static).
  bool stale() const { return lastSampleAgeSec() > staleAfter_; }

  // Every forecast is the battery's best forecast while the series is
  // fresh, the raw last-known value once it is stale, and nullopt when no
  // measurement was ever taken (callers fall back to static node specs).

  /// CPU availability (fraction of one CPU) for a *new* process.
  std::optional<double> tryCpuAvailability(grid::NodeId node) const;
  /// Share (fraction of one CPU) an *incumbent* process keeps.
  std::optional<double> tryIncumbentAvailability(grid::NodeId node) const;
  /// Available bandwidth (bytes/s) on a link.
  std::optional<double> tryBandwidth(grid::LinkId link) const;
  /// Link utilization (allocated fraction of capacity, [0, 1]) — a real
  /// congestion signal sampled from the flow registry, not a synthetic
  /// series: the forecasters see genuine transfer dynamics.
  std::optional<double> tryLinkUtilization(grid::LinkId link) const;
  /// Flop rate a newly placed process would obtain on a node.
  std::optional<double> tryEffectiveRate(grid::NodeId node) const;
  /// Flop rate an already-running process keeps on a node.
  std::optional<double> tryIncumbentRate(grid::NodeId node) const;
  /// End-to-end transfer time for `bytes` between two nodes over the
  /// route's bottleneck link, each link's rate clamped to its per-flow cap;
  /// falls back to link specs for unmeasured links.
  double transferTimeDegraded(grid::NodeId src, grid::NodeId dst,
                              double bytes) const;

  std::size_t samplesTaken() const { return samples_; }

 private:
  template <class Self, class Ar>
  static void snapshotIo(Self& s, Ar& a) {
    a.expect("services.nws: snapshot sensing configuration (period/noise) "
             "does not match the rebuilt service",
             s.period_, s.noise_);
    a(s.rng_, s.dark_, s.staleAfter_, s.lastSample_, s.samples_, s.cpu_,
      s.incumbent_, s.bw_, s.util_);
  }

  void sampleAll();
  std::optional<double> serve(const std::map<grid::NodeId, ForecasterBattery>&
                                  series,
                              grid::NodeId key) const;

  sim::Engine* engine_;  // grads: transient(wiring, re-bound at construction)
  grid::Grid* grid_;     // grads: transient(wiring, re-bound at construction)
  double period_;
  double noise_;
  Rng rng_;
  bool running_ = false;  // grads: transient(arm-once daemon flag - restore re-arms explicitly)
  bool dark_ = false;
  double staleAfter_;
  double lastSample_ = -1.0;
  std::size_t samples_ = 0;
  std::map<grid::NodeId, ForecasterBattery> cpu_;
  std::map<grid::NodeId, ForecasterBattery> incumbent_;
  std::map<grid::LinkId, ForecasterBattery> bw_;
  std::map<grid::LinkId, ForecasterBattery> util_;
};

}  // namespace grads::services
