#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/snapshot.hpp"
#include "grid/grid.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace grads::reschedule::whatif {

/// A candidate action the fork driver can validate in a sandboxed future.
enum class CandidateKind : std::uint8_t {
  kSuppress,  ///< stay on the current mapping (validated decline)
  kMigrate,   ///< stop/migrate/restart to `target`
};

const char* candidateKindName(CandidateKind kind);

struct Candidate {
  CandidateKind kind = CandidateKind::kSuppress;
  std::vector<grid::NodeId> target;  ///< kMigrate destination
  std::string label;                 ///< "model-target", "alternate", ...

  template <class Self, class Ar>
  static void snapshotIo(Self& s, Ar& a) {
    a(s.kind, s.target, s.label);
  }
};

/// Seeded pessimistic fault future a candidate is additionally scored
/// under. The driver draws kind/seed/severity; the sandbox harness maps the
/// kind onto a concrete perturbation of the restored snapshot (an extra load
/// trace on the candidate's destination nodes, a chaos link degrade, a depot
/// outage). Severity units are kind-specific: competitor load weight for
/// kTargetSlowdown, surviving bandwidth fraction for kLinkDegrade, outage
/// seconds for kDepotOutage.
enum class PerturbationKind : std::uint8_t {
  kNone,            ///< the nominal (point-forecast) future
  kTargetSlowdown,
  kLinkDegrade,
  kDepotOutage,
};

struct Perturbation {
  PerturbationKind kind = PerturbationKind::kNone;
  std::uint64_t seed = 0;
  double severity = 0.0;

  template <class Self, class Ar>
  static void snapshotIo(Self& s, Ar& a) {
    a(s.kind, s.seed, s.severity);
  }
};

/// One sandboxed future to run: restore `image` onto a fresh control plane,
/// inject `candidate` through the journal prepare path (pinned target),
/// apply `perturbation`, and advance `horizonSec` of virtual time (or until
/// `maxEvents` sandbox events, whichever comes first).
struct ForkRequest {
  const std::vector<std::uint8_t>* image = nullptr;
  std::string app;
  std::vector<grid::NodeId> current;
  Candidate candidate;
  Perturbation perturbation;
  double horizonSec = 0.0;
  std::uint64_t maxEvents = 0;  ///< 0 = no event cap
};

/// Realized outcome of one fork, as observed by the sandbox harness.
struct ForkOutcome {
  bool aborted = false;    ///< sandbox failed or tripped its event budget
  bool completed = false;  ///< the app finished inside the horizon
  double makespanSec = 0.0;       ///< virtual seconds spent (horizon if open)
  double progressSec = 0.0;       ///< pure app-execution seconds achieved
  double checkpointCostSec = 0.0; ///< checkpoint write + restore spans
  int violationRecurrences = 0;   ///< confirmed violations after injection
  int migrateBacks = 0;           ///< oscillations realized inside the fork
  std::uint64_t events = 0;
  std::uint64_t forkDigest = 0;   ///< pop-stream digest (replay oracle)

  template <class Self, class Ar>
  static void snapshotIo(Self& s, Ar& a) {
    a(s.aborted, s.completed, s.makespanSec, s.progressSec,
      s.checkpointCostSec, s.violationRecurrences, s.migrateBacks, s.events,
      s.forkDigest);
  }
};

using SandboxRunner = std::function<ForkOutcome(const ForkRequest&)>;
using SnapshotSource = std::function<std::vector<std::uint8_t>()>;

/// Hard speculation budget. Every knob is virtual / deterministic —
/// grads-lint R1 bans wall-clock in src, so the wall-clock timeout of the
/// classic what-if literature is stood in for by a fixed per-fork event cap
/// (events are the unit the engine actually spends).
struct ForkBudget {
  int maxForks = 12;          ///< per decision, across candidates x futures
  int pessimisticFutures = 2; ///< per candidate, beyond the nominal future
};

struct DriverOptions {
  ForkBudget budget;
  /// Shadow mode: speculate and record the verdict, but always commit the
  /// model-only decision and never touch mistrust. The parent trajectory is
  /// then bit-identical to a driver-less run — the zero-live-state-
  /// divergence oracle compares exactly this.
  bool shadowOnly = false;
};

/// Per-future realized score inside one decision record.
struct FutureScore {
  Perturbation perturbation;
  ForkOutcome outcome;
  double harm = 0.0;

  template <class Self, class Ar>
  static void snapshotIo(Self& s, Ar& a) {
    a(s.perturbation, s.outcome, s.harm);
  }
};

/// Per-candidate aggregate: minimax — the candidate owns its *worst* future.
struct CandidateScore {
  Candidate candidate;
  std::vector<FutureScore> futures;
  double worstHarm = 0.0;
  double worstMakespanSec = 0.0;
  double totalProgressSec = 0.0;
  double totalCheckpointCostSec = 0.0;

  template <class Self, class Ar>
  static void snapshotIo(Self& s, Ar& a) {
    a(s.candidate, s.futures, s.worstHarm, s.worstMakespanSec,
      s.totalProgressSec, s.totalCheckpointCostSec);
  }
};

/// The full audit record of one decision point: candidates, per-future
/// outcomes, the chosen arm, and (when speculation degraded) why. Snapshot-
/// persisted for replay; the chosen arm's summary also lands in the action
/// journal note of the pinned record it commits.
struct DecisionRecord {
  // grads: transient(derived, the record's 1-based position in the log)
  int id = 0;
  std::string app;
  double at = 0.0;
  std::size_t phase = 0;
  bool modelWantedMigrate = false;
  std::vector<grid::NodeId> modelTarget;
  std::vector<CandidateScore> scores;
  int chosen = -1;             ///< index into scores; -1 = fallback
  std::string fallbackReason;  ///< empty when the fork verdict committed
  bool shadow = false;
  double predictedWorstHarm = 0.0;
  bool settled = false;   ///< realized-outcome tracking resolved
  bool diverged = false;  ///< realized outcome defied the prediction

  template <class Self, class Ar>
  static void snapshotIo(Self& s, Ar& a) {
    a(s.app, s.at, s.phase, s.modelWantedMigrate, s.modelTarget, s.scores,
      s.chosen, s.fallbackReason, s.shadow, s.predictedWorstHarm, s.settled,
      s.diverged);
  }
};

struct DriverStats {
  int decisions = 0;
  int forksRun = 0;
  int fallbacks = 0;       ///< degraded to the model-only decision
  int overrides = 0;       ///< fork verdict contradicted the model
  int suppressChosen = 0;  ///< validated-suppress verdicts
  int divergences = 0;     ///< realized-vs-predicted mismatches

  template <class Self, class Ar>
  static void snapshotIo(Self& s, Ar& a) {
    a(s.decisions, s.forksRun, s.fallbacks, s.overrides, s.suppressChosen,
      s.divergences);
  }
};

/// What-if fork driver (ROADMAP "What-if forked rescheduling"). At each
/// governor-approved violation the rescheduler hands it the model decision;
/// the driver snapshots the live control plane, replays each candidate
/// action in sandboxed futures (nominal + a pessimistic chaos ensemble) via
/// the harness-supplied SandboxRunner, scores realized outcomes minimax with
/// deterministic tie-breaks, and returns the arm to commit. A blown budget
/// or missing runner degrades gracefully to the model-only decision.
///
/// Purity contract (the zero-live-state-divergence invariant): decide()
/// never schedules parent-engine events, never consumes any parent RNG
/// stream, and mutates nothing outside this object — forks run on their own
/// engines inside the call. With shadowOnly the parent replay digest is
/// bit-identical to a driver-less run.
class ForkDriver : public core::Snapshottable {
 public:
  /// Mistrust ledger: bump per realized prediction divergence, multiplicative
  /// decay per prediction that held, and the governor-cooldown extension per
  /// unit of mistrust on the app's last chosen nodes.
  static constexpr double kMistrustBump = 1.0;
  static constexpr double kMistrustDecay = 0.5;
  static constexpr double kMistrustCooldownSec = 120.0;
  static constexpr double kHorizonSec = 240.0;  ///< virtual look-ahead per fork

  ForkDriver(sim::Engine& engine, DriverOptions options);

  void setRunner(SandboxRunner runner) { runner_ = std::move(runner); }
  void setSnapshotSource(SnapshotSource source) { source_ = std::move(source); }
  bool armed() const { return static_cast<bool>(runner_) &&
                              static_cast<bool>(source_); }

  struct DecisionInput {
    std::string app;
    std::vector<grid::NodeId> current;
    std::size_t phase = 0;
    bool modelWantedMigrate = false;
    std::vector<grid::NodeId> modelTarget;
    std::vector<grid::NodeId> alternateTarget;  ///< candidate B; may be empty
  };
  struct Decision {
    CandidateKind kind = CandidateKind::kSuppress;
    std::vector<grid::NodeId> target;
    bool fromForks = false;  ///< false = fall through to the model decision
    int recordId = 0;
    std::string summary;  ///< journal note for the committed pinned action
  };
  Decision decide(const DecisionInput& in);

  /// Realized-outcome feedback: called by the rescheduler on every confirmed
  /// (post-governor) violation. Settles pending predictions — a violation
  /// inside a committed decision's horizon that predicted zero harm is a
  /// divergence and bumps per-node mistrust on the chosen arm's nodes;
  /// predictions that expire clean decay their nodes' mistrust.
  void noteViolation(const std::string& app, double now);

  /// Extra governor cooldown for `app`, derived from the mistrust of the
  /// nodes its last committed fork decision chose. Wire through
  /// ViolationGovernor::setCooldownExtra.
  double cooldownExtraFor(const std::string& app) const;
  double mistrustOf(grid::NodeId node) const;

  /// Fired at each speculation boundary ("decision", "fork-start",
  /// "fork-done", "verdict") — the benchmark's crash-restart workload kills
  /// the control plane here.
  void setOnFork(std::function<void(const char*)> fn) {
    onFork_ = std::move(fn);
  }

  const std::vector<DecisionRecord>& decisions() const { return log_; }
  const DriverStats& stats() const { return stats_; }

  /// Harm of one realized future: violation recurrences, weighted
  /// migrate-backs, and a large penalty for an aborted sandbox. Exposed so
  /// benches score post-hoc with the identical function.
  double harmOf(const ForkOutcome& outcome) const;

  /// Snapshot participation: the decision log (with nested scores), the
  /// mistrust ledger, pending predictions, per-app last-chosen nodes, stats,
  /// and the driver's own Rng stream all round-trip, so a restored control
  /// plane re-speculates bit-identically. The runner/source/hook callbacks
  /// are wiring, re-supplied at construction like every other component.
  const char* snapshotSection() const override { return "reschedule.whatif"; }
  void encodeState(core::SnapshotWriter& w) const override {
    snapshotIo(*this, w);
  }
  void decodeState(core::SnapshotReader& r) override;

 private:
  struct Pending {
    std::string app;
    int recordId = 0;
    double expiresAt = 0.0;
    double predictedHarm = 0.0;
    std::vector<grid::NodeId> nodes;

    template <class Self, class Ar>
    static void snapshotIo(Self& s, Ar& a) {
      a(s.app, s.recordId, s.expiresAt, s.predictedHarm, s.nodes);
    }
  };

  template <class Self, class Ar>
  static void snapshotIo(Self& s, Ar& a) {
    a(s.log_, s.mistrust_, s.pending_, s.lastChosen_, s.stats_, s.rng_);
  }

  Decision fallback(DecisionRecord rec, const DecisionInput& in,
                    const std::string& why);
  std::vector<Candidate> buildCandidates(const DecisionInput& in) const;
  std::vector<Perturbation> drawFutures();
  void settle(const std::string& app, double now, bool violated);

  sim::Engine* engine_;  // grads: transient(wiring, re-bound at construction)
  DriverOptions opts_;   // grads: transient(construction-time config)
  Rng rng_;
  SandboxRunner runner_;   // grads: transient(fork sandbox machinery, stateless between decisions)
  SnapshotSource source_;  // grads: transient(snapshot-source callback, re-installed by the driver)
  std::function<void(const char*)> onFork_;  // grads: transient(observer callback, re-registered by the driver)
  std::vector<DecisionRecord> log_;
  std::map<grid::NodeId, double> mistrust_;
  std::vector<Pending> pending_;
  std::map<std::string, std::vector<grid::NodeId>> lastChosen_;
  DriverStats stats_;
};

}  // namespace grads::reschedule::whatif
