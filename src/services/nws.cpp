#include "services/nws.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace grads::services {

namespace {

/// A forecaster's codec, from the field list its subclass declares.
template <class Derived>
class ListedForecaster : public Forecaster {
 public:
  void encodeState(core::SnapshotWriter& w) const override {
    Derived::snapshotIo(static_cast<const Derived&>(*this), w);
  }
  void decodeState(core::SnapshotReader& r) override {
    Derived::snapshotIo(static_cast<Derived&>(*this), r);
  }
};

class LastValue final : public ListedForecaster<LastValue> {
 public:
  void update(double v) override { last_ = v; }
  double forecast() const override { return last_; }
  const char* name() const override { return "last-value"; }
  template <class Self, class Ar>
  static void snapshotIo(Self& s, Ar& a) {
    a(s.last_);
  }

 private:
  double last_ = 0.0;
};

class RunningMean final : public ListedForecaster<RunningMean> {
 public:
  void update(double v) override {
    ++n_;
    mean_ += (v - mean_) / static_cast<double>(n_);
  }
  double forecast() const override { return mean_; }
  const char* name() const override { return "running-mean"; }
  template <class Self, class Ar>
  static void snapshotIo(Self& s, Ar& a) {
    a(s.n_, s.mean_);
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
};

class SlidingMedian final : public ListedForecaster<SlidingMedian> {
 public:
  explicit SlidingMedian(std::size_t window) : window_(window) {
    GRADS_REQUIRE(window >= 1, "SlidingMedian: empty window");
  }
  // The window in arrival order plus a sorted copy of it. Equal doubles
  // are interchangeable, so the sorted copy's middle is bit-identical to
  // the median of a freshly sorted window.
  void update(double v) override {
    values_.push_back(v);
    sorted_.insert(std::upper_bound(sorted_.begin(), sorted_.end(), v), v);
    if (values_.size() > window_) {
      sorted_.erase(
          std::lower_bound(sorted_.begin(), sorted_.end(), values_.front()));
      values_.pop_front();
    }
  }
  double forecast() const override {
    if (sorted_.empty()) return 0.0;
    const std::size_t mid = sorted_.size() / 2;
    return sorted_.size() % 2 == 1 ? sorted_[mid]
                                   : 0.5 * (sorted_[mid - 1] + sorted_[mid]);
  }
  const char* name() const override { return "sliding-median"; }
  template <class Self, class Ar>
  static void snapshotIo(Self& s, Ar& a) {
    a(s.values_);
  }
  void decodeState(core::SnapshotReader& r) override {
    snapshotIo(*this, r);
    sorted_.assign(values_.begin(), values_.end());
    std::sort(sorted_.begin(), sorted_.end());
  }

 private:
  std::size_t window_;  // grads: transient(construction-time config)
  std::deque<double> values_;
  std::vector<double> sorted_;  // grads: transient(values_ sorted - rebuilt from values_ on decode)
};

class ExpSmoothing final : public ListedForecaster<ExpSmoothing> {
 public:
  explicit ExpSmoothing(double alpha) : alpha_(alpha) {
    GRADS_REQUIRE(alpha > 0.0 && alpha <= 1.0, "ExpSmoothing: bad alpha");
  }
  void update(double v) override {
    value_ = first_ ? v : alpha_ * v + (1.0 - alpha_) * value_;
    first_ = false;
  }
  double forecast() const override { return value_; }
  const char* name() const override { return "exp-smoothing"; }
  template <class Self, class Ar>
  static void snapshotIo(Self& s, Ar& a) {
    a(s.value_, s.first_);
  }

 private:
  double alpha_;  // grads: transient(construction-time config)
  double value_ = 0.0;
  bool first_ = true;
};

class SlidingMean final : public ListedForecaster<SlidingMean> {
 public:
  explicit SlidingMean(std::size_t window) : window_(window) {
    GRADS_REQUIRE(window >= 1, "SlidingMean: empty window");
  }
  void update(double v) override {
    values_.push_back(v);
    sum_ += v;
    if (values_.size() > window_) {
      sum_ -= values_.front();
      values_.pop_front();
    }
  }
  double forecast() const override {
    return values_.empty() ? 0.0 : sum_ / static_cast<double>(values_.size());
  }
  const char* name() const override { return "sliding-mean"; }
  // sum_ is listed, not rebuilt: it is a running total of every value
  // added and removed, which summing the window does not reproduce bit for
  // bit.
  template <class Self, class Ar>
  static void snapshotIo(Self& s, Ar& a) {
    a(s.values_, s.sum_);
  }

 private:
  std::size_t window_;  // grads: transient(construction-time config)
  std::deque<double> values_;
  double sum_ = 0.0;
};

class Ar1 final : public ListedForecaster<Ar1> {
 public:
  void update(double v) override {
    if (n_ > 0) {
      // Accumulate sufficient statistics for x_{t+1} = a·x_t + b.
      ++pairs_;
      sx_ += prev_;
      sy_ += v;
      sxx_ += prev_ * prev_;
      sxy_ += prev_ * v;
    }
    prev_ = v;
    ++n_;
  }
  double forecast() const override {
    if (pairs_ < 3) return prev_;
    const double det = pairs_ * sxx_ - sx_ * sx_;
    if (std::abs(det) < 1e-12) return prev_;
    const double a = (pairs_ * sxy_ - sx_ * sy_) / det;
    const double b = (sy_ - a * sx_) / pairs_;
    return a * prev_ + b;
  }
  const char* name() const override { return "ar1"; }
  template <class Self, class Ar>
  static void snapshotIo(Self& s, Ar& a) {
    a(s.prev_, s.n_, s.pairs_, s.sx_, s.sy_, s.sxx_, s.sxy_);
  }

 private:
  double prev_ = 0.0;
  std::size_t n_ = 0;
  double pairs_ = 0.0;
  double sx_ = 0.0;
  double sy_ = 0.0;
  double sxx_ = 0.0;
  double sxy_ = 0.0;
};

}  // namespace

std::unique_ptr<Forecaster> makeSlidingMean(std::size_t window) {
  return std::make_unique<SlidingMean>(window);
}
std::unique_ptr<Forecaster> makeAr1() { return std::make_unique<Ar1>(); }

std::unique_ptr<Forecaster> makeLastValue() {
  return std::make_unique<LastValue>();
}
std::unique_ptr<Forecaster> makeRunningMean() {
  return std::make_unique<RunningMean>();
}
std::unique_ptr<Forecaster> makeSlidingMedian(std::size_t window) {
  return std::make_unique<SlidingMedian>(window);
}
std::unique_ptr<Forecaster> makeExpSmoothing(double alpha) {
  return std::make_unique<ExpSmoothing>(alpha);
}

ForecasterBattery::ForecasterBattery() {
  entries_.push_back(Entry{makeLastValue()});
  entries_.push_back(Entry{makeRunningMean()});
  entries_.push_back(Entry{makeSlidingMedian(5)});
  entries_.push_back(Entry{makeSlidingMedian(21)});
  entries_.push_back(Entry{makeExpSmoothing(0.2)});
  entries_.push_back(Entry{makeExpSmoothing(0.5)});
  entries_.push_back(Entry{makeSlidingMean(10)});
  entries_.push_back(Entry{makeAr1()});
}

void ForecasterBattery::addMeasurement(double value) {
  // Score each forecaster's *prior* prediction against this measurement,
  // then feed it the new observation — the NWS postcasting scheme.
  for (auto& e : entries_) {
    if (count_ > 0) {
      e.absErrorSum += std::abs(e.forecaster->forecast() - value);
      ++e.predictions;
    }
    e.forecaster->update(value);
  }
  last_ = value;
  ++count_;
  best_ = bestIndex();
}

void ForecasterBattery::decodeState(core::SnapshotReader& r) {
  snapshotIo(*this, r);
  best_ = bestIndex();
}

std::size_t ForecasterBattery::bestIndex() const {
  std::size_t best = 0;
  double bestErr = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const auto& e = entries_[i];
    const double err = e.predictions == 0
                           ? std::numeric_limits<double>::infinity()
                           : e.absErrorSum / static_cast<double>(e.predictions);
    if (err < bestErr) {
      bestErr = err;
      best = i;
    }
  }
  return best;
}

double ForecasterBattery::forecast() const {
  GRADS_REQUIRE(count_ > 0, "ForecasterBattery: no measurements yet");
  return entries_[best_].forecaster->forecast();
}

std::string ForecasterBattery::bestName() const {
  return entries_[best_].forecaster->name();
}

Nws::Nws(sim::Engine& engine, grid::Grid& grid, double periodSec,
         double relativeNoise, std::uint64_t seed)
    : engine_(&engine),
      grid_(&grid),
      period_(periodSec),
      noise_(relativeNoise),
      rng_(seed),
      staleAfter_(3.0 * periodSec) {
  GRADS_REQUIRE(periodSec > 0.0, "Nws: period must be positive");
  GRADS_REQUIRE(relativeNoise >= 0.0, "Nws: negative noise");
}

void Nws::start() {
  if (running_) return;
  running_ = true;
  sampleAll();  // take an immediate reading, then rearm periodically
}

void Nws::decodeState(core::SnapshotReader& r) {
  snapshotIo(*this, r);
  // The sampling daemon is never serialized: restore happens into a fresh
  // engine and the restore protocol re-arms exactly one sampler via
  // start(). Leaving running_ set here would make that start() a no-op and
  // silently kill monitoring after restore — the arm-once trap.
  running_ = false;
}

double Nws::lastSampleAgeSec() const {
  if (lastSample_ < 0.0) return std::numeric_limits<double>::infinity();
  return engine_->now() - lastSample_;
}

void Nws::sampleAll() {
  if (!running_) return;
  if (dark_) {
    // Outage: the sensor sweep produces nothing, but the daemon survives
    // and resumes measuring once the outage lifts.
    engine_->scheduleDaemon(period_, [this] { sampleAll(); });
    return;
  }
  for (grid::NodeId id = 0; id < grid_->nodeCount(); ++id) {
    const double truth = grid_->node(id).cpuAvailability();
    const double measured =
        std::clamp(truth * (1.0 + rng_.normal(0.0, noise_)), 0.0, 1.0);
    cpu_[id].addMeasurement(measured);
    const double incTruth = grid_->node(id).incumbentAvailability();
    const double incMeasured =
        std::clamp(incTruth * (1.0 + rng_.normal(0.0, noise_)), 0.0, 1.0);
    incumbent_[id].addMeasurement(incMeasured);
  }
  for (grid::LinkId lid = 0; lid < grid_->linkCount(); ++lid) {
    const double truth = grid_->link(lid).availableBandwidth();
    const double measured =
        std::max(0.0, truth * (1.0 + rng_.normal(0.0, noise_)));
    bw_[lid].addMeasurement(measured);
  }
  // Congestion gauges from the flow registry: the allocated fraction of
  // each link's capacity is a *real* measurement of transfer dynamics
  // (checkpoint pushes, redistribution, scrubbing), not a synthetic series.
  for (grid::LinkId lid = 0; lid < grid_->linkCount(); ++lid) {
    const double truth = grid_->flows().linkUtilization(lid);
    const double measured =
        std::clamp(truth * (1.0 + rng_.normal(0.0, noise_)), 0.0, 1.0);
    util_[lid].addMeasurement(measured);
  }
  ++samples_;
  lastSample_ = engine_->now();
  engine_->scheduleDaemon(period_, [this] { sampleAll(); });
}

std::optional<double> Nws::serve(
    const std::map<grid::NodeId, ForecasterBattery>& series,
    grid::NodeId key) const {
  const auto it = series.find(key);
  if (it == series.end() || it->second.measurements() == 0) {
    return std::nullopt;
  }
  // Fresh series: the battery's best forecast. Stale series (sensor dark
  // for a while): the battery's model fits are aging, so serve the raw
  // last-known measurement — the middle rung of the degradation ladder.
  return stale() ? it->second.lastValue() : it->second.forecast();
}

std::optional<double> Nws::tryCpuAvailability(grid::NodeId node) const {
  return serve(cpu_, node);
}

std::optional<double> Nws::tryIncumbentAvailability(grid::NodeId node) const {
  return serve(incumbent_, node);
}

std::optional<double> Nws::tryBandwidth(grid::LinkId link) const {
  return serve(bw_, link);
}

std::optional<double> Nws::tryLinkUtilization(grid::LinkId link) const {
  return serve(util_, link);
}

std::optional<double> Nws::tryEffectiveRate(grid::NodeId node) const {
  const auto avail = tryCpuAvailability(node);
  if (!avail) return std::nullopt;
  return *avail * grid_->node(node).spec().effectiveFlopsPerCpu();
}

std::optional<double> Nws::tryIncumbentRate(grid::NodeId node) const {
  const auto avail = tryIncumbentAvailability(node);
  if (!avail) return std::nullopt;
  return *avail * grid_->node(node).spec().effectiveFlopsPerCpu();
}

double Nws::transferTimeDegraded(grid::NodeId src, grid::NodeId dst,
                                 double bytes) const {
  const grid::Route& route = grid_->route(src, dst);
  if (route.links.empty()) return 0.0;
  double minBw = std::numeric_limits<double>::infinity();
  for (const auto lid : route.links) {
    // Noisy sensor readings can exceed what any single flow can achieve;
    // clamp both the measured and the static-spec fallback to the per-flow
    // cap so the degraded estimate never beats transferEstimate.
    const double cap = grid_->link(lid).spec().perFlowCapBytesPerSec;
    const auto measured = tryBandwidth(lid);
    const double b =
        measured ? std::min(*measured, cap)
                 : std::min(grid_->link(lid).spec().bandwidthBytesPerSec, cap);
    minBw = std::min(minBw, b);
  }
  if (minBw <= 0.0) return std::numeric_limits<double>::infinity();
  return route.latencySec + bytes / minBw;
}

}  // namespace grads::services
