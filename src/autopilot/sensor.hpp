#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/snapshot.hpp"
#include "sim/engine.hpp"

namespace grads::autopilot {

/// One sensor reading: a named channel, a value, and the virtual time it was
/// produced.
struct Reading {
  // grads: transient(derived, the history key it is filed under)
  std::string channel;
  double value = 0.0;
  double time = 0.0;

  template <class Self, class Ar>
  static void snapshotIo(Self& s, Ar& a) {
    a(s.value, s.time);
  }
};

/// The Autopilot manager: a pub/sub registry connecting instrumented
/// application sensors to listeners (contract monitors, loggers, the
/// Contract-Viewer-style trace). The binder "inserts the sensors needed for
/// monitoring a particular application" by giving the app a reporting
/// handle onto this registry (paper §1, §2).
///
/// Snapshot coverage: the reading history and total are serialized; the
/// subscriber list is not (listeners are std::function callbacks owned by
/// application frames — resumed applications re-attach their monitors at
/// relaunch, per the quiescent-boundary rule in DESIGN.md).
class AutopilotManager : public core::Snapshottable {
 public:
  explicit AutopilotManager(sim::Engine& engine) : engine_(&engine) {}

  const char* snapshotSection() const override { return "autopilot.sensor"; }
  void encodeState(core::SnapshotWriter& w) const override {
    snapshotIo(*this, w);
  }
  void decodeState(core::SnapshotReader& r) override;

  using Listener = std::function<void(const Reading&)>;

  /// Subscribes to a channel; returns a token for detach().
  std::size_t attach(const std::string& channel, Listener fn);
  void detach(std::size_t token);

  /// Publishes a reading on a channel (stamped with current virtual time).
  void report(const std::string& channel, double value);

  /// Full history of a channel (the Contract Viewer's data source).
  const std::vector<Reading>& history(const std::string& channel) const;

  std::size_t totalReadings() const { return total_; }

 private:
  template <class Self, class Ar>
  static void snapshotIo(Self& s, Ar& a) {
    a(s.history_, s.total_);
  }

  struct Sub {
    std::string channel;
    Listener fn;
    bool active = true;
  };

  sim::Engine* engine_;    // grads: transient(wiring, re-bound at construction)
  std::vector<Sub> subs_;  // grads: transient(subscriptions, re-registered by services as they are rebuilt)
  std::map<std::string, std::vector<Reading>> history_;
  std::size_t total_ = 0;
};

/// Well-known sensor channel name helpers.
std::string phaseTimeChannel(const std::string& app);
std::string iterationChannel(const std::string& app);

}  // namespace grads::autopilot
