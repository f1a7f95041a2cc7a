#pragma once

#include <deque>
#include <functional>
#include <map>
#include <string>

#include "autopilot/contract.hpp"
#include "reschedule/journal.hpp"
#include "sim/engine.hpp"

namespace grads::reschedule {

struct GovernorOptions {
  /// Quorum confirmation: a violation reaches the rescheduler only after
  /// `quorumK` violating phases inside the most recent `quorumN` phases —
  /// each phase ratio is an independent sensor reading, so a single noisy
  /// NWS sample (or one slow phase) can never trigger a migration.
  int quorumK = 2;
  int quorumN = 4;
  /// Hysteresis band around the contract's upper tolerance: the windowed
  /// ratio must clear upper*(1+band), not merely upper, before an action is
  /// considered. Readings that hover at the threshold stay inside the band
  /// and are suppressed — the classic anti-flap dead zone.
  double hysteresisBand = 0.1;
  /// Per-app cooldown after *any* resolved action (commit or rollback):
  /// violations inside the window are suppressed so the contract terms and
  /// the NWS forecasts can re-converge before the next decision.
  double cooldownSec = 180.0;
  /// Global cap on unresolved actions across all apps (the journal's
  /// in-flight count): a Grid-wide load spike cannot stampede every
  /// application into simultaneous migration.
  int maxConcurrentActions = 1;
};

/// Why the governor passed or suppressed a violation report.
enum class GovernorVerdict {
  kAdmit,
  kQuorumPending,       ///< fewer than k violating phases in the window
  kInsideHysteresis,    ///< ratio above tolerance but inside the dead band
  kCoolingDown,         ///< app resolved an action too recently
  kConcurrencyLimited,  ///< global in-flight action cap reached
};

const char* governorVerdictName(GovernorVerdict verdict);

/// The violation governor — the layer between the contract monitor and the
/// rescheduler that turns a raw "phase ran slow" signal into a *governed*
/// decision. PR 1's chaos campaigns showed the failure mode: flapping NWS
/// load readings trip the contract, the rescheduler migrates, the load
/// flips, and the application oscillates migrate → migrate-back, paying the
/// full checkpoint-restore cost each way. The governor suppresses exactly
/// those triggers (quorum, hysteresis, cooldown, concurrency) while letting
/// sustained genuine degradation through.
class ViolationGovernor : public core::Snapshottable {
 public:
  ViolationGovernor(sim::Engine& engine, ActionJournal& journal,
                    GovernorOptions options);

  /// Snapshot participation: quorum histories and suppression statistics
  /// round-trip, so a restored governor keeps holding position (cooldown
  /// anchors live in the journal, which snapshots alongside). Options are
  /// configuration — re-supplied at construction, not serialized.
  const char* snapshotSection() const override {
    return "reschedule.governor";
  }
  std::uint32_t snapshotVersion() const override { return 2; }  // + holds
  void encodeState(core::SnapshotWriter& w) const override {
    snapshotIo(*this, w);
  }
  void decodeState(core::SnapshotReader& r) override { snapshotIo(*this, r); }

  /// Gate for one confirmed contract violation. kAdmit means the report may
  /// reach the rescheduler; anything else means suppress (and the contract
  /// monitor must NOT widen its tolerances — the governor is deliberately
  /// holding position, not declining).
  GovernorVerdict admit(const autopilot::ViolationReport& report);

  /// Clears an app's quorum history. Call when phase numbering resets
  /// (restart on new resources) — pre-restart violations must not count
  /// toward a post-restart quorum.
  void resetApp(const std::string& app);

  struct Stats {
    int admitted = 0;
    int quorumPending = 0;
    int insideHysteresis = 0;
    int coolingDown = 0;
    int concurrencyLimited = 0;
    /// Suppressions where the base cooldown had already lapsed but the
    /// mistrust-extended window (setCooldownExtra) still held the app. A
    /// subset of coolingDown, not an extra verdict — suppressed() is
    /// unchanged.
    int mistrustHolds = 0;
    int suppressed() const {
      return quorumPending + insideHysteresis + coolingDown +
             concurrencyLimited;
    }

    template <class Self, class Ar>
    static void snapshotIo(Self& s, Ar& a) {
      a(s.admitted, s.quorumPending, s.insideHysteresis, s.coolingDown,
        s.concurrencyLimited, s.mistrustHolds);
    }
  };
  const Stats& stats() const { return total_; }
  Stats statsFor(const std::string& app) const;

  const GovernorOptions& options() const { return opts_; }

  /// Per-app cooldown extension hook (seconds on top of cooldownSec). The
  /// what-if fork driver wires its prediction-divergence mistrust ledger in
  /// here, so resources that defied validated predictions earn longer holds.
  /// Must be a pure function of app identity and caller state — it is
  /// consulted, not snapshotted.
  void setCooldownExtra(std::function<double(const std::string&)> fn) {
    cooldownExtra_ = std::move(fn);
  }

 private:
  template <class Self, class Ar>
  static void snapshotIo(Self& s, Ar& a) {
    a(s.violatingPhases_, s.total_, s.perApp_);
  }

  void count(Stats& s, GovernorVerdict verdict) const;

  sim::Engine* engine_;    // grads: transient(wiring, re-bound at construction)
  ActionJournal* journal_; // grads: transient(wiring, re-bound at construction)
  GovernorOptions opts_;   // grads: transient(construction-time config)
  /// Per-app phases that violated, newest last (pruned to the quorum
  /// window).
  std::map<std::string, std::deque<std::size_t>> violatingPhases_;
  Stats total_;
  std::map<std::string, Stats> perApp_;
  // grads: transient(policy hook, re-installed by the owner after construction)
  std::function<double(const std::string&)> cooldownExtra_;
};

}  // namespace grads::reschedule
