#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/app_manager.hpp"
#include "core/snapshot.hpp"
#include "grid/grid.hpp"
#include "metasched/admission.hpp"
#include "metasched/types.hpp"
#include "reschedule/journal.hpp"
#include "services/gis.hpp"
#include "services/nws.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace grads::metasched {

/// 32:32 packed (tenant, sequence) job identity. Stable across snapshot /
/// restore and cheap to order — every deterministic tie-break in the
/// frontend bottoms out on this key.
using JobKey = std::uint64_t;

inline JobKey makeJobKey(std::uint32_t tenant, std::uint32_t seq) {
  return (static_cast<JobKey>(tenant) << 32) | seq;
}
inline std::uint32_t jobTenant(JobKey key) {
  return static_cast<std::uint32_t>(key >> 32);
}
inline std::uint32_t jobSeq(JobKey key) {
  return static_cast<std::uint32_t>(key & 0xffffffffu);
}

enum class JobState : int {
  kQueued = 0,     ///< admitted, waiting for a slot
  kRetryWait = 1,  ///< shed, resubmission scheduled (retry-after + backoff)
  kRunning = 2,    ///< dispatched to the application manager
  kParked = 3,     ///< preempted: checkpointed, off its node, gate closed
};

/// Shared between a job's control block and its COP mapper: the mapper pins
/// each (re)launch to whatever slot the frontend assigned last, so an
/// unpark lands on the new slot without a fresh selection pass.
struct PinnedSlot {
  grid::NodeId node = grid::kNoId;
};

struct FrontendOptions {
  std::vector<TenantSpec> tenants;
  /// Dedicated single-rank slots the frontend schedules onto. The slot pool
  /// — not GIS reservation — is the unit of capacity here.
  std::vector<grid::NodeId> slots;
  /// Arrivals (and resubmits) stop at this virtual time.
  double horizonSec = 3600.0;
  /// Hard deadline: jobs still queued here are dropped as unserved (the
  /// "timeout collapse" the unmitigated arm exhibits). 0 = run to drain.
  double hardDeadlineSec = 0.0;
  double controlPeriodSec = 60.0;
  /// Checkpoint quantum: jobs poll the RSS stop flag every ~this many flops,
  /// bounding preemption latency to one phase + one checkpoint write.
  double flopsPerPhase = 1e9;
  /// Ideal service rate used as the slowdown denominator.
  double refFlopsPerSec = 1e9;
  AdmissionOptions admission;
  BrownoutOptions brownout;
  PreemptOptions preempt;
  /// Template for each job's manager run; the frontend fills in the journal,
  /// relaunch gate, and per-job retry seed.
  core::ManagerOptions jobOptions;
  std::uint64_t seed = 0x7e47a5cdULL;
};

/// Aggregate counters across all tenants (plus frontend-global gauges).
struct FrontendTotals {
  std::int64_t submitted = 0;
  std::int64_t admitted = 0;
  std::int64_t shed = 0;
  std::int64_t resubmits = 0;
  std::int64_t abandoned = 0;
  std::int64_t dispatched = 0;
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  std::int64_t preempted = 0;
  std::int64_t parks = 0;
  std::int64_t unparked = 0;
  std::int64_t deferrals = 0;
  std::int64_t unserved = 0;
  std::int64_t brownoutEscalations = 0;
  std::int64_t brownoutDeescalations = 0;
  std::int64_t peakQueueDepth = 0;
  std::int64_t peakInSystem = 0;  ///< queued + retry-wait + running + parked
  double busySlotSeconds = 0.0;
  double meanQueueDepth = 0.0;
};

/// Per-job completion report (fed to campaign CSVs and tests).
struct JobStats {
  std::string app;
  std::uint32_t tenant = 0;
  int tier = 0;
  double submitAt = 0.0;
  double completeAt = 0.0;
  double slowdown = 0.0;
  bool failed = false;
  core::RunBreakdown breakdown;
};

/// Multi-tenant submission frontend over core::AppManager: open-loop
/// arrival generators feed per-tenant queues behind an admission valve;
/// a stride (fair-share) scheduler with strict priority tiers dispatches
/// onto a fixed slot pool; a brownout ladder sheds service predictably
/// under overload; and a preemption governor checkpoint-and-parks victims
/// through the ActionJournal prepare->commit path.
///
/// All frontend state (queues, ledgers, RNG streams, brownout rung, busy
/// accounting) is Snapshottable, so control-plane crash-restart extends to
/// the metascheduler: decode rebuilds the data, resumeAfterRestore()
/// re-arms the daemons and respawns live jobs exactly once.
class MetaScheduler : public core::Snapshottable {
 public:
  MetaScheduler(core::AppManager& mgr, grid::Grid& grid, services::Gis& gis,
                const services::Nws* nws, reschedule::ActionJournal* journal,
                FrontendOptions opts);

  /// Fresh start: draws first arrivals and arms the control loop. Once.
  void start();
  /// Restore protocol: after decodeState (and journal recovery), re-arm
  /// generators/ticks and respawn every running/parked job in key order.
  /// Mutually exclusive with start(); also once.
  void resumeAfterRestore();

  // --- Observability. ---
  FrontendTotals totals() const;
  const std::vector<TenantLedger>& ledgers() const { return ledgers_; }
  std::int64_t jobsInSystem() const {
    return static_cast<std::int64_t>(jobs_.size());
  }
  /// True when every admitted job reached a terminal state (nothing queued,
  /// running, or parked) — the crash sweep's completion criterion.
  bool drained() const {
    return queuedTotal_ == 0 && running_.empty() && parked_.empty();
  }
  /// All slowdown samples across tenants (campaign percentile input).
  std::vector<double> allSlowdowns() const;
  /// Deterministic digest of the full frontend outcome (ledgers, gauges,
  /// brownout rung) for the replay-divergence oracle.
  void foldDigest(util::DigestStream& ds) const;

  /// Per-sample hook from the control loop: (now, queued, running, parked,
  /// pressure, brownout rung). Campaign time-series CSV.
  void setOnSample(
      std::function<void(double, std::int64_t, std::int64_t, std::int64_t,
                         double, BrownoutLevel)>
          fn) {
    onSample_ = std::move(fn);
  }
  /// Per-completion hook (stats + the job's RunBreakdown).
  void setOnJobComplete(std::function<void(const JobStats&)> fn) {
    onJobComplete_ = std::move(fn);
  }
  /// Fired on every frontend state transition ("admit", "shed", "dispatch",
  /// "preempt", "park", "unpark", "brownout") — a kill hook for the
  /// benchmark's crash-restart workload, mirroring
  /// ActionJournal::setOnTransition.
  void setOnTransition(std::function<void(const char*)> fn) {
    onTransition_ = std::move(fn);
  }

  // --- Snapshot participation. ---
  const char* snapshotSection() const override { return "metasched.frontend"; }
  void encodeState(core::SnapshotWriter& w) const override {
    snapshotIo(*this, w);
  }
  void decodeState(core::SnapshotReader& r) override;

  /// Current admission pressure in [0, inf): max of queue-depth and
  /// backlog-seconds utilization of their admission bounds.
  double pressure() const;
  double backlogSeconds() const;

 private:
  struct Job {
    int tier = 0;
    double sizeFlops = 0.0;
    std::uint64_t phases = 1;
    double submitAt = 0.0;     ///< first submission attempt
    double dispatchAt = -1.0;  ///< first dispatch
    double lastStartAt = -1.0; ///< latest dispatch or unpark (minRunSec anchor)
    double parkedAt = -1.0;
    int attempts = 1;          ///< submission attempts so far
    int sheds = 0;
    int parks = 0;
    int deferrals = 0;
    JobState state = JobState::kQueued;
    grid::NodeId node = grid::kNoId;

    template <class Self, class Ar>
    static void snapshotIo(Self& s, Ar& a) {
      a(s.tier, s.sizeFlops, s.phases, s.submitAt, s.dispatchAt,
        s.lastStartAt, s.parkedAt, s.attempts, s.sheds, s.parks, s.deferrals,
        s.state, s.node);
    }
  };

  /// Runtime-only control block (never serialized; rebuilt on restore).
  struct JobControl {
    JobControl(sim::Engine& eng, bool gateOpen) : gate(eng, gateOpen) {}
    sim::Gate gate;
    bool parkPending = false;
    std::shared_ptr<PinnedSlot> slot = std::make_shared<PinnedSlot>();
    core::RunBreakdown breakdown;
  };

  struct TenantRuntime {
    Rng rng{1};
    double nextArrivalAt = -1.0;  ///< < 0 or past horizon = stream exhausted
    std::uint32_t nextSeq = 0;
    double stridePass = 0.0;
    double lastPreemptAt = -1e300;  ///< victim-side cooldown anchor

    template <class Self, class Ar>
    static void snapshotIo(Self& s, Ar& a) {
      a(s.rng, s.nextArrivalAt, s.nextSeq, s.stridePass, s.lastPreemptAt);
    }
  };

  /// Ledgers, tenant streams and queues are fixed-shape (one per tenant or
  /// tier, set at construction), so only the ledger count is written.
  template <class Self, class Ar>
  static void snapshotIo(Self& s, Ar& a) {
    a.expect("MetaScheduler::decodeState: tenant count mismatch",
             s.ledgers_.size());
    for (auto& led : s.ledgers_) a(led);
    for (auto& rt : s.tenants_) a(rt);
    a(s.jobs_);
    for (auto& q : s.queues_) a(q);
    a(s.resubmitAt_, s.freeSlots_, s.peakQueueDepth_, s.peakInSystem_,
      s.queueDepthSum_, s.queueSamples_, s.busySlotSec_, s.busyStamp_,
      s.busyCount_, s.deadlineFired_, s.brownout_);
  }

  sim::Engine& engine() const;
  std::string appName(JobKey key) const;
  double idealSeconds(const Job& job) const;

  // Arrivals.
  double arrivalRate(const TenantSpec& spec, double t) const;
  double drawNextArrival(std::size_t tenant, double from);
  void armArrival(std::size_t tenant);
  void onArrival(std::size_t tenant);
  void submit(JobKey key);
  void scheduleResubmit(JobKey key, double retryAfterSec);
  void onResubmit(JobKey key);

  // Dispatch.
  void kickDispatch();
  void pump();
  void dispatchJob(JobKey key);
  sim::Task runJob(JobKey key, std::shared_ptr<JobControl> ctrl);
  sim::Task gateTask(JobKey key, std::shared_ptr<JobControl> ctrl);
  void onJobFinished(JobKey key, std::shared_ptr<JobControl> ctrl,
                     bool failed);

  // Preemption + brownout.
  void maybePreempt();
  bool preempt(JobKey victim);
  void onParkedAtGate(JobKey key, const std::shared_ptr<JobControl>& ctrl);
  void unpark(JobKey key);

  // Control loop.
  void controlTick();
  void armTick();
  void applyDeadline();
  void integrateBusy();
  void noteInSystem();
  void fire(const char* kind);

  core::AppManager* mgr_;      // grads: transient(wiring, re-bound at construction)
  grid::Grid* grid_;           // grads: transient(wiring, re-bound at construction)
  services::Gis* gis_;         // grads: transient(wiring, re-bound at construction)
  const services::Nws* nws_;   // grads: transient(wiring, re-bound at construction)
  reschedule::ActionJournal* journal_;  // grads: transient(wiring, re-bound at construction)
  FrontendOptions opts_;       // grads: transient(construction-time config)
  AdmissionController admission_;  // grads: transient(stateless policy over wiring + config)
  BrownoutController brownout_;

  std::vector<TenantLedger> ledgers_;
  std::vector<TenantRuntime> tenants_;
  std::map<JobKey, Job> jobs_;  ///< every non-terminal job
  std::vector<std::deque<JobKey>> queues_;
  std::map<JobKey, double> resubmitAt_;
  /// Runtime stop-handles; journal recovery rolls parked actions back.
  // grads: transient(runtime stop-handles, cleared on decode - journal recovery rolls their actions back)
  std::map<JobKey, std::shared_ptr<JobControl>> controls_;
  std::vector<grid::NodeId> freeSlots_;
  /// The kRunning and kParked jobs, in key order: the victim search and the
  /// unpark pick walk these instead of the whole backlog. Each points into
  /// jobs_ (map nodes do not move); a key leaves here before it leaves jobs_.
  std::map<JobKey, Job*> running_;  // grads: transient(derived index, rebuilt from jobs_ on decode)
  std::map<JobKey, Job*> parked_;   // grads: transient(derived index, rebuilt from jobs_ on decode)

  std::int64_t queuedTotal_ = 0;   // grads: transient(derived gauge, rebuilt from queues_ on decode)
  double queuedFlops_ = 0.0;       // grads: transient(derived gauge, rebuilt from queues_ on decode)
  // grads: transient(runtime only - journal recovery rolled the park actions back)
  std::int64_t pendingParks_ = 0;
  std::int64_t peakQueueDepth_ = 0;
  std::int64_t peakInSystem_ = 0;
  double queueDepthSum_ = 0.0;
  std::int64_t queueSamples_ = 0;
  double busySlotSec_ = 0.0;
  double busyStamp_ = 0.0;
  std::int64_t busyCount_ = 0;
  bool started_ = false;  // grads: transient(arm-once flag - restore re-arms daemons explicitly)
  bool deadlineFired_ = false;
  bool kickPending_ = false;  // grads: transient(pending-event latch, re-armed after restore)
  bool tickPending_ = false;  // grads: transient(pending-event latch, re-armed after restore)

  std::function<void(double, std::int64_t, std::int64_t, std::int64_t, double,
                     BrownoutLevel)>
      onSample_;  // grads: transient(observer callback, re-registered by the driver)
  // grads: transient(observer callback, re-registered by the driver)
  std::function<void(const JobStats&)> onJobComplete_;
  // grads: transient(observer callback, re-registered by the driver)
  std::function<void(const char*)> onTransition_;
};

}  // namespace grads::metasched
