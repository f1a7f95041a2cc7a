#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/snapshot.hpp"
#include "grid/grid.hpp"
#include "sim/engine.hpp"

namespace grads::reschedule {

/// What a journaled rescheduling action does to the application's mapping.
/// The values are written into snapshot images: tenant-overload's journal
/// records carry kPreempt, so renumbering it would change every pinned
/// image. Value 1 is unused.
enum class ActionKind : std::uint8_t {
  kMigrate = 0,  ///< stop/migrate/restart through the application manager
  kPreempt = 2,  ///< checkpoint-and-park a victim for the metascheduler
};

/// Transaction state machine of one rescheduling action:
///
///   kPrepared ──► kCommitting ──► kCommitted
///       │              │
///       └──────────────┴────────► kRolledBack
///
/// Prepare covers everything reversible (decision taken, stop requested,
/// checkpoint written); commit is the irreversible handover (restore on the
/// target); finalize closes the record. A fault in any phase before the
/// commit point resolves the action as kRolledBack and the application
/// resumes on its prior mapping.
enum class ActionState : std::uint8_t {
  kPrepared,
  kCommitting,
  kCommitted,
  kRolledBack,
};

const char* actionKindName(ActionKind kind);
const char* actionStateName(ActionState state);

/// One journaled action. `prior` is the pre-action mapping — the rollback
/// target; `target` the intended post-action mapping (filled in when the
/// commit-phase selection fixes it, for migrations).
struct ActionRecord {
  // grads: transient(derived, the record's 1-based position in the log)
  int id = 0;
  std::string app;
  ActionKind kind = ActionKind::kMigrate;
  ActionState state = ActionState::kPrepared;
  double openedAt = 0.0;
  double resolvedAt = -1.0;  ///< < 0 while the action is still in flight
  std::vector<grid::NodeId> prior;
  std::vector<grid::NodeId> target;
  std::string note;  ///< commit/rollback reason, for post-mortems
  /// A pinned target was fixed by a validated decision (what-if fork verdict
  /// or a sandbox candidate injection): the relaunch honors `target` verbatim
  /// instead of re-running mapper selection, as long as it stays reachable.
  bool pinned = false;

  template <class Self, class Ar>
  static void snapshotIo(Self& s, Ar& a) {
    a(s.app, s.kind, s.state, s.openedAt, s.resolvedAt, s.prior, s.target,
      s.note, s.pinned);
  }
};

/// Persisted journal of rescheduling actions. "Persisted" in the simulation
/// means the journal outlives any single incarnation and any single manager
/// loop: a restarted application manager scans it (openAction) to learn it
/// died holding an unresolved migration and must either commit or roll back
/// before choosing fresh resources — the recovery scan of a write-ahead log.
///
/// Invariant: at most one open action per application (enforced at open()),
/// so a rolled-back migration and a committing one can never both point at
/// live application state — the "doubly mapped" failure mode is structurally
/// excluded.
class ActionJournal : public core::Snapshottable {
 public:
  explicit ActionJournal(sim::Engine& engine);

  /// Snapshot participation: the full record log round-trips; the derived
  /// indexes (open-action map, in-flight count, counters, per-app outcome
  /// tallies and cooldown anchors) are rebuilt from it on decode, so the
  /// image cannot carry an index that disagrees with its own log.
  const char* snapshotSection() const override { return "reschedule.journal"; }
  std::uint32_t snapshotVersion() const override { return 2; }  // + pinned
  void encodeState(core::SnapshotWriter& w) const override {
    snapshotIo(*this, w);
  }
  void decodeState(core::SnapshotReader& r) override;

  /// Crash-recovery scan (presumed abort): every unresolved action — still
  /// kPrepared, or caught mid-kCommitting by the crash — is resolved as
  /// kRolledBack with `note`; the application relaunches from its journaled
  /// checkpoints on whatever mapping the fresh selection picks. Returns the
  /// number of actions resolved. Idempotent: a second scan over an
  /// already-recovered journal finds nothing unresolved and is a no-op (it
  /// must never double-resolve — resolve() rejects resolved records).
  int recover(const std::string& note);
  /// Recovery scans that actually resolved at least one action.
  int recoveries() const { return recoveries_; }

  /// Opens a record in kPrepared. Throws if the app already has one open.
  /// `pinned` marks `target` as a validated-decision pin (see ActionRecord);
  /// `note` seeds the audit note at prepare time (e.g. the what-if decision
  /// summary) and survives a commit that passes no note of its own.
  int open(const std::string& app, ActionKind kind,
           std::vector<grid::NodeId> prior,
           std::vector<grid::NodeId> target = {}, bool pinned = false,
           const std::string& note = "");

  /// Updates the intended post-action mapping (commit-phase selection may
  /// revise the prepare-time candidate once fresh NWS data is in).
  void setTarget(int id, std::vector<grid::NodeId> target);

  /// kPrepared -> kCommitting: the irreversible phase begins.
  void beginCommit(int id);
  /// Resolves the action as committed (finalize).
  void commit(int id, const std::string& note = "");
  /// Resolves the action as rolled back; the app resumes on record.prior.
  void rollback(int id, const std::string& note);

  const ActionRecord& record(int id) const;
  const std::vector<ActionRecord>& records() const { return records_; }

  /// The app's unresolved action, if any (the recovery scan). Null when the
  /// app has no action in flight.
  const ActionRecord* openAction(const std::string& app) const;

  /// Unresolved actions across all apps (the governor's global
  /// concurrent-action limit reads this).
  int inFlight() const { return inFlight_; }

  /// Virtual time the app's most recent action resolved (committed *or*
  /// rolled back); negative if it never had one. Cooldown anchor.
  double lastResolvedAt(const std::string& app) const;

  int opened() const { return opened_; }
  int committed() const { return committed_; }
  int rolledBack() const { return rolledBack_; }
  int committedFor(const std::string& app) const;
  int rolledBackFor(const std::string& app) const;

  /// Called on *every* state transition (open, beginCommit, commit,
  /// rollback) with the record as it stands after the transition. The
  /// benchmark's crash-restart workload uses this to kill the control plane
  /// at a journal transition.
  void setOnTransition(std::function<void(const ActionRecord&)> fn) {
    onTransition_ = std::move(fn);
  }

 private:
  template <class Self, class Ar>
  static void snapshotIo(Self& s, Ar& a) {
    a(s.records_, s.recoveries_);
  }

  /// One app's resolved actions: when the latest resolved, and how many
  /// committed or rolled back.
  struct AppOutcomes {
    double lastResolvedAt = -1.0;
    int committed = 0;
    int rolledBack = 0;
  };

  ActionRecord& mutableRecord(int id);
  void resolve(ActionRecord& r, ActionState state, const std::string& note);
  const AppOutcomes& outcomesFor(const std::string& app) const;

  sim::Engine* engine_;  // grads: transient(wiring, re-bound at construction)
  std::vector<ActionRecord> records_;
  /// app -> open record id
  std::map<std::string, int> openByApp_;  // grads: transient(derived index, rebuilt from records_ on decode)
  std::map<std::string, AppOutcomes> outcomes_;  // grads: transient(derived index, rebuilt from records_ on decode)
  int inFlight_ = 0;    // grads: transient(derived counter, rebuilt from records_ on decode)
  int opened_ = 0;      // grads: transient(derived counter, rebuilt from records_ on decode)
  int committed_ = 0;   // grads: transient(derived counter, rebuilt from records_ on decode)
  int rolledBack_ = 0;  // grads: transient(derived counter, rebuilt from records_ on decode)
  int recoveries_ = 0;
  std::function<void(const ActionRecord&)> onTransition_;  // grads: transient(observer callback, re-registered by the owner)
};

}  // namespace grads::reschedule
