#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/snapshot.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace grads::grid {

using LinkId = std::size_t;

/// Scheduling class of a network transfer. Interactive covers everything on
/// an application's critical path (messages, stage-ins, contract traffic);
/// bulk covers background movers — checkpoint pushes, block-cyclic
/// redistribution, scrubber re-replication — which yield bandwidth to
/// interactive flows when a link is contended (pacing).
enum class TransferClass : std::uint8_t { kInteractive = 0, kBulk = 1 };

/// Flow-level network model: every active transfer is a *flow* over its
/// route, and each link's bandwidth is divided among the flows crossing it
/// by weighted max-min fairness (progressive water-filling). The allocation
/// is re-solved whenever a flow arrives or departs and whenever a link's
/// deliverable capacity changes (bandwidthScale), so a multi-hop flow always
/// streams at its current bottleneck share instead of consuming `bytes` on
/// every link concurrently.
///
/// Invariants (DESIGN.md §11):
///  - a lone flow runs at min over its links of min(perFlowCap, capacity) —
///    numerically identical to the legacy per-link streaming model, so
///    single-flow transfer times reproduce bit-for-bit;
///  - pacing weights are powers of two, so an *uncontended* bulk flow also
///    keeps the legacy rate exactly (w · capacity/w == capacity);
///  - capacity a capped flow cannot use is redistributed to the others
///    (max-min), which the old processor-sharing model left idle;
///  - link up/down never changes the allocation — a downed link refuses new
///    flows (Grid::transfer throws LinkDownError) while flows already
///    streaming keep draining, matching the old PsResource semantics.
///
/// kStatic mode disables sharing entirely (every flow streams at its solo
/// rate regardless of contention) — the ablation baseline benchmarked by
/// netsim_campaign, not a mode production scenarios use.
class FlowRegistry {
 public:
  enum class SharingMode : std::uint8_t { kStatic = 0, kMaxMin = 1 };

  explicit FlowRegistry(sim::Engine& engine);
  ~FlowRegistry();
  FlowRegistry(const FlowRegistry&) = delete;
  FlowRegistry& operator=(const FlowRegistry&) = delete;

  /// Registers a link; ids are dense and assigned in call order so they
  /// coincide with Grid's LinkIds (Grid creates links in id order).
  LinkId addLink(double capacityBytesPerSec, double perFlowCapBytesPerSec);
  /// Deliverable capacity change (Link::setBandwidthScale): re-solves the
  /// allocation for every flow sharing the link.
  void setLinkCapacity(LinkId link, double capacityBytesPerSec);

  std::size_t linkCount() const { return links_.size(); }

  /// Streams `bytes` across `links` as one flow; completes when the
  /// integral of the flow's (re-solved) bottleneck share reaches `bytes`.
  sim::Task transfer(std::vector<LinkId> links, double bytes,
                     TransferClass cls);

  /// Rate a new unit-weight flow over `link` would be allocated right now,
  /// without admitting it — what the NWS bandwidth sensor reads. On an idle
  /// link this is exactly min(perFlowCap, capacity).
  double probeShare(LinkId link) const;

  // --- Congestion gauges (NWS measurement inputs). ---
  /// Fraction of the link's capacity currently allocated to flows [0, 1].
  double linkUtilization(LinkId link) const;

  // --- Pacing / sharing configuration. ---
  void setSharingMode(SharingMode mode);
  SharingMode sharingMode() const { return mode_; }
  /// Pacing on: bulk flows weigh kBulkWeight against 1.0 for interactive
  /// flows in the max-min solve. Off: every flow weighs 1.0.
  void setPacingEnabled(bool enabled);
  bool pacingEnabled() const { return pacing_; }
  /// A power of two in (0, 1], so that a lone bulk flow's rate stays
  /// bit-identical to an interactive one's.
  static constexpr double kBulkWeight = 0.25;

  // --- Introspection / stats (benches, snapshot). ---
  std::size_t activeFlows() const { return flows_.size(); }
  std::uint64_t flowsOpened() const { return flowsOpened_; }
  std::uint64_t flowsCompleted() const { return flowsCompleted_; }
  double bytesCompleted() const { return bytesCompleted_; }
  std::uint64_t solves() const { return solves_; }
  std::uint64_t peakConcurrentFlows() const { return peakConcurrent_; }

  /// Snapshot participation (embedded in Grid's "grid.fabric" section).
  /// Link roster/capacities are topology, rebuilt by the testbed builder and
  /// re-scaled by Grid's link decode; active flows live in coroutine frames
  /// and restart from checkpoints, exactly like PsResource jobs. What
  /// round-trips here is the sharing configuration and the counters.
  void encodeState(core::SnapshotWriter& w) const { snapshotIo(*this, w); }
  void decodeState(core::SnapshotReader& r) { snapshotIo(*this, r); }

 private:
  template <class Self, class Ar>
  static void snapshotIo(Self& s, Ar& a) {
    a(s.mode_, s.pacing_);
    a.expect("grid.fabric: snapshot bulk weight does not match the "
             "rebuilt flow registry",
             kBulkWeight);
    a(s.flowsOpened_, s.flowsCompleted_, s.bytesCompleted_, s.solves_,
      s.peakConcurrent_);
  }

  struct LinkState {
    double capacity = 0.0;
    double perFlowCap = 0.0;
  };
  struct Flow {
    std::vector<LinkId> links;
    double remaining = 0.0;
    double bytes = 0.0;
    TransferClass cls = TransferClass::kInteractive;
    double rate = 0.0;  ///< current allocated share (bytes/s)
    // Owned out-of-line so waiter addresses survive flows_ reallocation.
    std::unique_ptr<sim::Event> done;
  };
  /// Solver workspace entry: one row per flow (plus an optional phantom).
  struct Demand {
    const std::vector<LinkId>* links;
    double weight;       ///< effective (pacing-adjusted) weight
    double soloCap;      ///< min perFlowCap over the flow's links
    double rate = 0.0;
    bool frozen = false;
  };

  double effectiveWeight(TransferClass cls) const;
  double soloRate(const std::vector<LinkId>& links) const;
  /// Weighted max-min water-fill over `demands`; writes each row's rate.
  void computeShares(std::vector<Demand>& demands) const;
  void advance();
  void solve();
  void replan();

  sim::Engine* engine_;  // grads: transient(wiring, re-bound at construction)
  // grads: transient(per-link table rebuilt from the grid topology - dynamic link state is Grid's snapshot section)
  std::vector<LinkState> links_;
  // Contiguous for the same reason PsResource keeps its jobs flat: every
  // solve and finish sweep walks all flows.
  // grads: transient(live flow table - snapshots cut at quiescent boundaries and replayed transfers re-open their flows)
  std::vector<Flow> flows_;
  sim::Time lastUpdate_ = 0.0;  // grads: transient(solver bookkeeping, re-anchored on first post-restore event)
  sim::Engine::EventHandle pendingFinish_;  // grads: transient(pending event handle, re-armed when flows re-open)

  SharingMode mode_ = SharingMode::kMaxMin;
  bool pacing_ = true;

  std::uint64_t flowsOpened_ = 0;
  std::uint64_t flowsCompleted_ = 0;
  double bytesCompleted_ = 0.0;
  std::uint64_t solves_ = 0;
  std::uint64_t peakConcurrent_ = 0;
};

}  // namespace grads::grid
