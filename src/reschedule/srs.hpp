#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "reschedule/redistribution.hpp"
#include "services/ibp.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "util/retry.hpp"
#include "vmpi/world.hpp"

namespace grads::reschedule {

/// Raised by Srs::restoreCheckpoint when a checkpoint slice cannot be read
/// even after bounded retries and the replica fallback. The application
/// manager treats the incarnation as lost and restarts from an older
/// generation or from scratch — it must not crash the run.
class CheckpointUnavailableError : public Error {
 public:
  explicit CheckpointUnavailableError(const std::string& what) : Error(what) {}
};

/// The Runtime Support System daemon (paper §4.1.1): lives for the whole
/// application execution, spans migrations, and mediates between external
/// actors (the rescheduler) and the SRS library inside the application —
/// carrying the stop flag, the restored iteration counter, and the previous
/// incarnation's process count.
///
/// It is also the authority on checkpoint *integrity* metadata: per
/// generation it holds a manifest of every slice's size and content digest,
/// published in two phases (slices staged as ranks write; the manifest only
/// becomes complete once every expected slice is staged AND the iteration
/// was recorded). Restores verify what they read against the manifest, so a
/// torn multi-rank checkpoint or a bit-rotted depot object is detected
/// instead of silently restored. All manifest mutations carry the writer's
/// incarnation epoch: a zombie incarnation (falsely suspected dead, still
/// running) can neither stage slices nor publish iterations past the live
/// incarnation.
class Rss {
 public:
  explicit Rss(sim::Engine& engine, std::string appName);

  const std::string& appName() const { return app_; }

  /// Rescheduler-side: ask the running application to checkpoint and stop.
  void requestStop();
  bool stopRequested() const { return stopRequested_; }

  /// Failure-detector-side: a node running this application fail-stopped.
  /// The application must abandon the incarnation *without* checkpointing
  /// (the dead node's data is gone) and restart from the last periodic
  /// checkpoint, if any. A signal for a node the current incarnation does
  /// not occupy (late detection after a migration moved the app off it) is
  /// ignored — it must not abort a healthy incarnation.
  void markFailure(grid::NodeId node);
  bool failureSignaled() const { return failureSignaled_; }
  grid::NodeId failedNode() const { return failedNode_; }

  /// Application-manager-side bookkeeping across incarnations.
  void beginIncarnation(int nProcs);
  int incarnation() const { return incarnation_; }
  int previousProcs() const { return previousProcs_; }

  /// Nodes the current incarnation runs on; used to filter stale failure
  /// signals. An empty set (never told) accepts every signal — the
  /// pre-occupancy behavior.
  void setOccupiedNodes(const std::vector<grid::NodeId>& nodes);
  bool occupiesNode(grid::NodeId node) const;
  /// Failure signals dropped because the node was not occupied.
  std::size_t ignoredFailureSignals() const { return ignoredFailures_; }

  void storeIteration(std::size_t it);
  /// Epoch-checked variant: a writer whose incarnation epoch is not the
  /// live one is a zombie — its publish is dropped (returns false) so a
  /// late writer can never shadow a newer generation's record.
  bool storeIterationFor(int epoch, std::size_t it);
  std::size_t storedIteration() const { return storedIteration_; }

  bool hasCheckpoint() const { return hasCheckpoint_; }
  void markCheckpoint() { hasCheckpoint_ = true; }

  /// Per-generation checkpoint ledger (generation == the incarnation that
  /// wrote it). Restores that find the newest generation unreadable (depot
  /// dark, object lost) walk back to an older one — so the resume iteration
  /// and rank count must be recorded per generation, not just "latest".
  struct CheckpointRecord {
    std::size_t iteration = 0;
    int procs = 0;

    template <class Self, class Ar>
    static void snapshotIo(Self& s, Ar& a) {
      a(s.iteration, s.procs);
    }
  };
  std::optional<CheckpointRecord> checkpointRecord(int generation) const;

  // --- Checkpoint manifests (two-phase commit, epoch-fenced). ---

  /// One checkpoint slice's integrity record: size, content digest, and
  /// where the copies were directed (the scrubber repairs to these).
  struct SliceEntry {
    double bytes = 0.0;
    std::uint64_t digest = 0;
    grid::NodeId primaryNode = grid::kNoId;
    grid::NodeId replicaNode = grid::kNoId;

    template <class Self, class Ar>
    static void snapshotIo(Self& s, Ar& a) {
      a(s.bytes, s.digest, s.primaryNode, s.replicaNode);
    }
  };

  struct Manifest {
    std::size_t iteration = 0;
    bool iterationStored = false;  ///< phase 2 (publish) happened
    int arraysPerRank = 0;         ///< slices each rank must stage
    std::map<std::pair<std::string, int>, SliceEntry> slices;

    template <class Self, class Ar>
    static void snapshotIo(Self& s, Ar& a) {
      a(s.iteration, s.iterationStored, s.arraysPerRank, s.slices);
    }
  };

  /// Phase 1: record a slice the writer just made durable. Rejected (false)
  /// when `epoch` is not the live incarnation.
  bool stageSlice(int epoch, const std::string& array, int rank,
                  SliceEntry entry, int arraysPerRank);

  const Manifest* manifest(int generation) const;
  const SliceEntry* sliceEntry(int generation, const std::string& array,
                               int rank) const;
  /// True when the generation's manifest was published (iteration stored)
  /// and every expected slice (record procs × arrays) is staged — the
  /// crash-consistency gate: a checkpoint torn mid-write never qualifies.
  bool manifestComplete(int generation) const;
  /// Deterministic checksum over the manifest's contents (iteration, rank
  /// count, every slice's identity/size/digest). Readers recompute it to
  /// detect a corrupted ledger entry.
  std::uint64_t manifestDigest(int generation) const;
  std::vector<int> manifestGenerations() const;

  /// Zombie activity dropped so far (stage + publish attempts).
  std::size_t staleEpochRejects() const { return staleEpochRejects_; }

  /// Snapshot participation (embedded in the AppManager's per-app section,
  /// not a registry component of its own): the whole cross-incarnation
  /// ledger — incarnation counter, per-generation checkpoint records and
  /// manifests, stop/failure flags, occupancy, reject counters — round-
  /// trips. A restored manager relaunches the app from exactly this ledger;
  /// the incarnation bump at relaunch is what fences pre-crash zombies out.
  void encodeState(core::SnapshotWriter& w) const { snapshotIo(*this, w); }
  void decodeState(core::SnapshotReader& r) { snapshotIo(*this, r); }

 private:
  template <class Self, class Ar>
  static void snapshotIo(Self& s, Ar& a) {
    a.expect("Rss::decodeState: snapshot is for a different application",
             s.app_);
    a(s.stopRequested_, s.failureSignaled_, s.failedNode_, s.incarnation_,
      s.previousProcs_, s.currentProcs_, s.storedIteration_,
      s.hasCheckpoint_, s.checkpoints_, s.manifests_, s.occupied_,
      s.ignoredFailures_, s.staleEpochRejects_);
  }

  sim::Engine* engine_;  // grads: transient(wiring, re-bound at construction)
  std::string app_;
  bool stopRequested_ = false;
  bool failureSignaled_ = false;
  grid::NodeId failedNode_ = grid::kNoId;
  int incarnation_ = 0;
  int previousProcs_ = 0;
  int currentProcs_ = 0;
  std::size_t storedIteration_ = 0;
  bool hasCheckpoint_ = false;
  std::map<int, CheckpointRecord> checkpoints_;
  std::map<int, Manifest> manifests_;
  std::set<grid::NodeId> occupied_;
  std::size_t ignoredFailures_ = 0;
  std::size_t staleEpochRejects_ = 0;
};

/// SRS — Stop Restart Software [22]: user-level checkpointing atop MPI.
/// Applications register their distributed data once; at any stop point they
/// ask SRS whether the rescheduler wants them gone, checkpoint their share
/// to the *local* IBP depot, and exit. A restarted incarnation (possibly on
/// a different number of processors) reads the checkpoint back with an
/// N-to-M block-cyclic redistribution.
///
/// Integrity: every slice write carries a deterministic content digest and
/// the incarnation epoch captured at construction (so a zombie instance
/// keeps writing under its own stale epoch and is fenced out at the depot).
/// Restores verify each slice against the RSS manifest and treat any
/// mismatch exactly like a dark depot: retry, replica, and finally
/// CheckpointUnavailableError — corrupt data is never handed back to the
/// application while verification is on.
class Srs {
 public:
  Srs(services::Ibp& ibp, Rss& rss, vmpi::World& world);

  /// Registers a block-cyclic distributed array of `totalBytes`, with the
  /// given distribution block size in elements (ScaLAPACK nb).
  void registerArray(const std::string& name, double totalBytes,
                     std::size_t blockElements = 64,
                     double bytesPerElement = 8.0);

  /// Directs checkpoints to a *stable* depot instead of each rank's local
  /// disk. Required for fault tolerance: a fail-stopped node takes its
  /// local depot with it, whereas migration-only checkpoints (the paper's
  /// §4.1 usage) can stay local and cheap.
  void setStableDepot(grid::NodeId node) { stableDepot_ = node; }
  /// Mirrors every checkpoint object to a second (remote) depot so a single
  /// depot outage cannot strand the application: restores fall back to the
  /// replica when the primary is dark.
  void setReplicaDepot(grid::NodeId node) { replicaDepot_ = node; }
  /// Retry policy + jitter source for depot reads/writes during restore.
  void setRetryPolicy(util::RetryPolicy policy, std::uint64_t jitterSeed) {
    retry_ = policy;
    retryRng_ = Rng(jitterSeed);
  }
  /// Pins the generation restoreCheckpoint() reads (normally the previous
  /// incarnation). The application manager sets this after pre-flighting
  /// which generations are currently readable.
  void setRestoreGeneration(int generation) { restoreGen_ = generation; }
  /// Manifest verification of restored slices (default on). Off = the raw
  /// ablation: reads trust whatever the depot serves, and mismatches are
  /// only *counted* (ground truth for experiments), never acted on.
  void setVerifyOnRestore(bool verify) { verify_ = verify; }
  double registeredBytes() const;

  /// Incarnation epoch this instance writes under (captured when the
  /// instance was created, deliberately NOT re-read from the RSS: a zombie
  /// must keep its stale epoch).
  int epoch() const { return epoch_; }

  /// Stop-point poll: if the rescheduler requested a stop, writes this
  /// rank's checkpoint and sets *shouldStop. All ranks must call it at the
  /// same iteration boundary.
  sim::Task checkIfStop(int rank, bool* shouldStop);

  /// Writes this rank's share of every registered array to its local depot.
  /// "The time for writing checkpoints is insignificant since the
  /// checkpoints are written to IBP storage on local disks."
  sim::Task writeCheckpoint(int rank);

  /// Reads this rank's (new) share from the previous incarnation's depots:
  /// an N-to-M redistribution crossing the network — the dominant cost of
  /// migration in Figure 3.
  sim::Task restoreCheckpoint(int rank);

  bool restoredThisIncarnation() const { return restored_; }

  /// Fires once, when the last rank finishes restoring — the commit point of
  /// a journaled migration: every rank is live on the new mapping, so the
  /// action can no longer be rolled back.
  void setOnAllRestored(std::function<void()> fn) {
    onAllRestored_ = std::move(fn);
  }

  /// Ground truth: slices delivered to the application whose content did
  /// not match the manifest (only possible with verification off).
  int corruptSliceReads() const { return corruptSliceReads_; }
  /// Copies that failed manifest verification and were skipped in favor of
  /// the replica / retry / older generation (verification on).
  int integrityRejects() const { return integrityRejects_; }
  /// Writes this instance dropped because the depot fence or the RSS ledger
  /// identified it as a zombie.
  int staleWriteRejects() const { return staleWriteRejects_; }

  /// Side-effect-free poll of the RSS stop flag (for apps that make the
  /// stop decision collectively before checkpointing).
  bool stopRequested() const { return rss_->stopRequested(); }
  /// Side-effect-free poll of the fail-stop signal.
  bool failureSignaled() const { return rss_->failureSignaled(); }
  /// Records the iteration the restarted incarnation must resume from
  /// (epoch-checked: a zombie's publish is dropped).
  void storeIteration(std::size_t it) { rss_->storeIterationFor(epoch_, it); }

  /// Wall-clock spans (first start → last end across all ranks) of the
  /// checkpoint write/read of this incarnation — Figure 3's "Checkpoint
  /// writing" / "Checkpoint reading" segments.
  double writeSpanSeconds() const;
  double readSpanSeconds() const;

  /// Canonical IBP key of a checkpoint object; `replica` selects the
  /// mirrored copy.
  static std::string objectKey(const std::string& app,
                               const std::string& array, int rank,
                               int incarnation, bool replica = false);

  /// Deterministic content digest of a checkpoint slice (what the writer
  /// stamps on both copies and stages into the manifest). Never zero.
  static std::uint64_t contentDigest(const std::string& app,
                                     const std::string& array, int rank,
                                     int generation, double bytes);

 private:
  sim::Task readSlice(const std::string& array, int sourceRank, int gen,
                      double bytes, grid::NodeId toNode);
  /// readable() && (if verifying and the manifest knows this slice) the
  /// observed digest and size match the manifest.
  bool copyUsable(const std::string& key, const Rss::SliceEntry* want);

  struct ArrayInfo {
    double totalBytes = 0.0;
    std::size_t blockElements = 64;
    double bytesPerElement = 8.0;
  };

  services::Ibp* ibp_;
  Rss* rss_;
  vmpi::World* world_;
  std::map<std::string, ArrayInfo> arrays_;
  grid::NodeId stableDepot_ = grid::kNoId;
  grid::NodeId replicaDepot_ = grid::kNoId;
  util::RetryPolicy retry_ = util::RetryPolicy::none();
  Rng retryRng_{0x5c5eedULL};
  int restoreGen_ = 0;  ///< 0 = previous incarnation
  int epoch_ = 0;       ///< incarnation captured at construction
  bool verify_ = true;
  bool restored_ = false;
  int ranksRestored_ = 0;
  std::function<void()> onAllRestored_;
  int corruptSliceReads_ = 0;
  int integrityRejects_ = 0;
  int staleWriteRejects_ = 0;
  double writeStart_ = -1.0;
  double writeEnd_ = -1.0;
  double readStart_ = -1.0;
  double readEnd_ = -1.0;
};

/// One copy of a checkpoint slice verifies: it is readable right now and
/// (size, digest) match the manifest entry.
bool sliceCopyVerifies(const services::Ibp& ibp, const std::string& key,
                       const Rss::SliceEntry& want);

/// Pre-flight for a restart: the newest checkpoint generation recorded in
/// the RSS ledger whose every object (for all ranks and arrays of that
/// generation) is currently readable — on its primary depot or, failing
/// that, its replica. With `verifyIntegrity` the bar is higher: the
/// generation's manifest must be complete (two-phase publish finished) and
/// every slice must have at least one copy whose size and digest match it.
/// Returns nullopt when no generation qualifies (restart from scratch).
/// `arrays` are the registered checkpoint array names.
std::optional<int> findRestorableGeneration(
    const services::Ibp& ibp, const Rss& rss,
    const std::vector<std::string>& arrays, bool verifyIntegrity = false);

}  // namespace grads::reschedule
