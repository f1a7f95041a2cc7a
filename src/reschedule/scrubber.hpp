#pragma once

#include <memory>
#include <string>

#include "reschedule/srs.hpp"
#include "services/ibp.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace grads::reschedule {

/// Background depot scrubber: a sim-scheduled daemon that periodically
/// walks an application's checkpoint manifests, verifies every slice copy
/// (existence, size, content digest) against the manifest, and re-replicates
/// a corrupt or missing copy from the surviving one. This is what turns the
/// replica from "luck" into a repair loop: without scrubbing, bit-rot eats
/// copies one by one until a restore finds none left.
///
/// Scrub ticks are daemon events (they never keep the simulation alive);
/// an actual repair pays full IBP cost (depot-to-depot transfer + disk) in
/// a spawned coroutine. Only manifests whose two-phase publish completed
/// are walked — an unpublished generation is garbage, not a repair target.
///
/// The scrubber's state is shared with any in-flight scan coroutine, so the
/// scrubber object itself may be destroyed (e.g. with the application
/// manager's frame) while a final scan drains.
class DepotScrubber {
 public:
  struct Stats {
    int scans = 0;            ///< completed scan passes
    int slicesChecked = 0;    ///< slice copies examined across all scans
    int corruptFound = 0;     ///< copies present but failing verification
    int missingFound = 0;     ///< recorded copies absent from the depot
    int repaired = 0;         ///< copies rewritten from the surviving copy
    int unrepairable = 0;     ///< slices with no good copy left (per scan)
    int deferred = 0;         ///< repairs skipped because a depot was dark

    template <class Self, class Ar>
    static void snapshotIo(Self& s, Ar& a) {
      a(s.scans, s.slicesChecked, s.corruptFound, s.missingFound, s.repaired,
        s.unrepairable, s.deferred);
    }
  };

  DepotScrubber(sim::Engine& engine, services::Ibp& ibp, const Rss& rss);
  ~DepotScrubber();
  DepotScrubber(const DepotScrubber&) = delete;
  DepotScrubber& operator=(const DepotScrubber&) = delete;

  /// Starts periodic scanning every `periodSec` simulated seconds. Arm-once
  /// guarded: calling start() on an already-running scrubber is a no-op that
  /// returns false (a second call would otherwise arm a *second* tick chain
  /// — the double-daemon bug the crash-restore protocol must not hit).
  bool start(double periodSec);
  /// True between start() and stop() — the tick chain is armed.
  bool started() const;
  /// Cancels the periodic tick (an in-flight scan finishes on its own).
  void stop();

  /// Carries scrub statistics across a control-plane restart: the resumed
  /// application's fresh scrubber adopts the pre-crash totals decoded from
  /// the snapshot so RunBreakdown keeps reporting cumulative repairs.
  void adoptStats(const Stats& stats);

  /// One full manifest walk + repairs; also usable directly (tests, or a
  /// final scrub before an important restore).
  sim::Task scanOnce();

  /// True while a scan coroutine is in flight. After stop(), owners of the
  /// Rss/Ibp this scrubber walks should drain (await) until this clears
  /// before tearing those down.
  bool scanning() const;

  const Stats& stats() const;

  /// Shared between the scrubber handle and in-flight scan coroutines
  /// (opaque; defined in the .cpp).
  struct State;

 private:
  std::shared_ptr<State> state_;
};

}  // namespace grads::reschedule
