#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "grid/grid.hpp"
#include "sim/ps_resource.hpp"
#include "sim/task.hpp"
#include "util/error.hpp"

namespace grads::services {

/// Raised when an IBP operation targets a depot that is down. Transient by
/// design: depots come back, so checkpoint readers retry with backoff and
/// then fall back to a replica or an older checkpoint generation.
class DepotDownError : public Error {
 public:
  explicit DepotDownError(const std::string& what) : Error(what) {}
};

/// Raised when a fenced write carries an incarnation epoch older than the
/// depot's fence for that domain. Permanent by design: the writer is a
/// zombie incarnation (suspected dead but still running) and must never be
/// allowed to shadow the live incarnation's data — callers drop the write,
/// they do not retry it.
class StaleEpochError : public Error {
 public:
  explicit StaleEpochError(const std::string& what) : Error(what) {}
};

/// Write-side metadata for Ibp::put.
struct PutOptions {
  /// Content digest of the object. 0 = derive deterministically from the
  /// key and size (fine for objects nobody cross-checks; checkpoint writers
  /// pass the real content digest so primary and replica copies of the same
  /// slice agree).
  std::uint64_t digest = 0;
  /// Fencing domain (typically the application name). Empty = unfenced.
  std::string fenceDomain;
  /// Writer's incarnation epoch; rejected with StaleEpochError when below
  /// the depot fence for `fenceDomain`.
  int epoch = 0;
  /// Pacing class of the network leg. Checkpoint pushes and scrubber
  /// re-replication are bulk: they yield bandwidth to interactive/contract
  /// traffic on contended links.
  grid::TransferClass transferClass = grid::TransferClass::kInteractive;
};

/// Internet Backplane Protocol storage fabric: one depot per node, backed by
/// the node's local disk. SRS writes checkpoints to the *local* depot (fast,
/// disk-bandwidth bound) and restarted processes read them across the
/// network (slow) — the asymmetry that dominates Figure 3's rescheduling
/// cost ("the time for reading checkpoints dominated ... while the time for
/// writing checkpoints is insignificant").
///
/// Integrity model: every object carries a content digest. The depot itself
/// never verifies it (matching real IBP: storage is dumb); readers compare
/// the observed digest against an out-of-band manifest. Integrity faults
/// (bit flips, torn writes, stale deliveries) perturb the observed digest
/// and/or size so an unverified read silently returns wrong content.
class Ibp : public core::Snapshottable {
 public:
  explicit Ibp(grid::Grid& grid);
  Ibp(const Ibp&) = delete;
  Ibp& operator=(const Ibp&) = delete;

  /// Snapshot participation: the full depot catalogue (objects with their
  /// observed sizes/digests/torn flags), depot outage set, epoch fences,
  /// and the stale-write-reject counter round-trip exactly — checkpoint
  /// manifests decoded by the SRS ledger stay consistent with the depot
  /// contents they describe. Disk PsResources are transient (lazily
  /// recreated) and in-flight transfers belong to coroutine frames, which
  /// restart from checkpoints instead of being serialized.
  const char* snapshotSection() const override { return "services.ibp"; }
  void encodeState(core::SnapshotWriter& w) const override {
    snapshotIo(*this, w);
  }
  void decodeState(core::SnapshotReader& r) override { snapshotIo(*this, r); }

  /// Stores `bytes` under `key` in the depot co-located with `atNode`,
  /// written by a process running on `fromNode` (kNoId = atNode): a remote
  /// depot costs the network transfer plus the depot's disk time.
  sim::Task put(const std::string& key, double bytes, grid::NodeId atNode,
                grid::NodeId fromNode, PutOptions opts);
  /// Unfenced put with a derived digest. (A separate overload, not a default
  /// argument: GCC's coroutine lowering double-frees defaulted parameters of
  /// class type.)
  sim::Task put(const std::string& key, double bytes, grid::NodeId atNode,
                grid::NodeId fromNode = grid::kNoId) {
    return put(key, bytes, atNode, fromNode, PutOptions{});
  }

  /// Reads object `key` into a process on `toNode`: pays depot disk time
  /// plus (if remote) the network transfer from the depot's node. The
  /// transfer class defaults to interactive; block-cyclic redistribution
  /// readers pass kBulk so restores pace themselves behind contract traffic.
  sim::Task get(const std::string& key, grid::NodeId toNode,
                grid::TransferClass cls = grid::TransferClass::kInteractive);

  /// Reads only a `bytes`-sized slice of object `key` to `toNode` (used for
  /// N-to-M redistribution where each reader pulls its own pieces). A torn
  /// (truncated) object delivers a silent short read — exactly what a real
  /// depot does — instead of erroring; intact objects still reject
  /// oversized slice requests as a caller bug.
  sim::Task getSlice(const std::string& key, double bytes, grid::NodeId toNode,
                     grid::TransferClass cls =
                         grid::TransferClass::kInteractive);

  bool exists(const std::string& key) const;
  double sizeOf(const std::string& key) const;
  grid::NodeId locationOf(const std::string& key) const;
  void remove(const std::string& key);
  std::size_t objectCount() const { return objects_.size(); }

  /// Content digest a reader would observe for `key` (the stored digest,
  /// after any injected corruption — not necessarily the written one).
  std::uint64_t observedDigest(const std::string& key) const;
  /// Size a reader would observe (post-truncation for torn objects).
  double observedBytes(const std::string& key) const;

  /// Keys of all objects whose depot is `node`, sorted (deterministic
  /// victim pools for fault injection and scrub walks).
  std::vector<std::string> keysOnDepot(grid::NodeId node) const;

  // --- Integrity fault injection (chaos-driver entry points). ---
  /// Bit-rot: the stored content changes, the size does not. `mask` xors
  /// into the observed digest (must be nonzero).
  void injectBitFlip(const std::string& key, std::uint64_t mask);
  /// Torn/truncated write: only `keepFrac` of the object survives; the
  /// observed digest changes too (the tail is gone).
  void injectTornWrite(const std::string& key, double keepFrac);
  /// Stale delivery: the depot serves outdated content for `key` (lost
  /// update / delayed replica sync). Size is right, digest is not.
  void injectStaleDelivery(const std::string& key);

  // --- Incarnation-epoch fencing. ---
  /// Raises the write fence for `domain` (monotonic: lowering is a no-op).
  /// Subsequent fenced puts with epoch < fence throw StaleEpochError.
  void setFence(const std::string& domain, int epoch);
  int fenceEpoch(const std::string& domain) const;
  /// Fenced writes rejected so far (zombie incarnations stopped).
  std::size_t staleEpochRejects() const { return staleEpochRejects_; }

  /// Depot outage state: operations against a down depot throw
  /// DepotDownError. Objects survive the outage (the disk is intact; the
  /// service is unreachable) and are readable again after recovery.
  void setDepotUp(grid::NodeId node, bool up);
  bool isDepotUp(grid::NodeId node) const;
  /// exists(key) && the depot holding it is currently up.
  bool readable(const std::string& key) const;

 private:
  sim::PsResource& diskFor(grid::NodeId node);
  void requireDepotUp(grid::NodeId node, const char* op) const;

  struct Object {
    double bytes = 0.0;
    grid::NodeId node = grid::kNoId;
    std::uint64_t digest = 0;
    bool torn = false;

    template <class Self, class Ar>
    static void snapshotIo(Self& s, Ar& a) {
      a(s.bytes, s.node, s.digest, s.torn);
    }
  };

  template <class Self, class Ar>
  static void snapshotIo(Self& s, Ar& a) {
    a(s.objects_, s.downDepots_, s.fences_, s.staleEpochRejects_);
  }

  const Object& require(const std::string& key, const char* op) const;

  grid::Grid* grid_;  // grads: transient(wiring, re-bound at construction)
  // grads: transient(per-depot disk resources rebuilt from topology - transfers re-enter after a quiescent restore)
  std::map<grid::NodeId, std::unique_ptr<sim::PsResource>> disks_;
  std::map<std::string, Object> objects_;
  std::set<grid::NodeId> downDepots_;
  std::map<std::string, int> fences_;
  std::size_t staleEpochRejects_ = 0;
};

}  // namespace grads::services
