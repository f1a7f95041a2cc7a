#include "metasched/frontend.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/log.hpp"
#include "vmpi/world.hpp"

namespace grads::metasched {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;
/// Bytes each job checkpoints at a stop.
constexpr double kCheckpointBytes = 1 << 20;

/// Dedicated single-rank prediction: the job's remaining flops at the slot
/// node's effective rate (NWS forecast when available).
class SlotPerfModel final : public core::AppPerfModel {
 public:
  SlotPerfModel(const grid::Grid& grid, std::uint64_t phases,
                double flopsPerPhase)
      : grid_(&grid), phases_(phases), flopsPerPhase_(flopsPerPhase) {}

  std::size_t totalPhases() const override {
    return static_cast<std::size_t>(phases_);
  }

  double phaseSeconds(const std::vector<grid::NodeId>& mapping,
                      std::size_t /*phase*/, const services::Nws* nws,
                      core::RateView /*view*/) const override {
    GRADS_REQUIRE(!mapping.empty(), "SlotPerfModel: empty mapping");
    double rate = grid_->node(mapping[0]).spec().effectiveFlopsPerCpu();
    if (nws != nullptr) {
      const auto measured = nws->tryEffectiveRate(mapping[0]);
      if (measured && *measured > 0.0) rate = *measured;
    }
    GRADS_REQUIRE(rate > 0.0, "SlotPerfModel: zero node rate");
    return flopsPerPhase_ / rate;
  }

 private:
  const grid::Grid* grid_;
  std::uint64_t phases_;
  double flopsPerPhase_;
};

/// The frontend owns placement: every (re)launch maps onto whatever slot
/// the frontend pinned last. An unpark re-pins before opening the gate, so
/// the manager's fresh selection lands on the new slot deterministically.
class PinnedMapper final : public core::Mapper {
 public:
  explicit PinnedMapper(std::shared_ptr<PinnedSlot> slot)
      : slot_(std::move(slot)) {}

  std::vector<grid::NodeId> chooseMapping(
      const std::vector<grid::NodeId>& /*available*/,
      const services::Nws* /*nws*/) const override {
    GRADS_REQUIRE(slot_->node != grid::kNoId, "PinnedMapper: no slot pinned");
    return {slot_->node};
  }

 private:
  std::shared_ptr<PinnedSlot> slot_;
};

/// Single-rank job body: compute in checkpoint-quantum phases, polling the
/// RSS stop flag at each boundary (the preemption latency bound). The stop
/// branch is the standard SRS park protocol: checkpoint written by
/// checkIfStop, iteration recorded, incarnation exits stopped.
sim::Task tenantJobBody(core::LaunchContext& ctx, int rank,
                        std::uint64_t phases, double flopsPerPhase) {
  if (ctx.restored && ctx.srs != nullptr) {
    try {
      co_await ctx.srs->restoreCheckpoint(rank);
    } catch (const reschedule::CheckpointUnavailableError&) {
      ctx.stopped = true;
      ctx.restoreFailed = true;
      co_return;
    }
  }
  for (std::uint64_t ph = ctx.startPhase; ph < phases; ++ph) {
    co_await ctx.world->compute(rank, flopsPerPhase);
    ctx.completedPhases = static_cast<std::size_t>(ph) + 1;
    if (ctx.srs == nullptr) continue;
    bool stop = false;
    co_await ctx.srs->checkIfStop(rank, &stop);
    if (stop) {
      ctx.srs->storeIteration(static_cast<std::size_t>(ph) + 1);
      ctx.stopped = true;
      co_return;
    }
  }
}

}  // namespace

MetaScheduler::MetaScheduler(core::AppManager& mgr, grid::Grid& grid,
                             services::Gis& gis, const services::Nws* nws,
                             reschedule::ActionJournal* journal,
                             FrontendOptions opts)
    : mgr_(&mgr),
      grid_(&grid),
      gis_(&gis),
      nws_(nws),
      journal_(journal),
      opts_(std::move(opts)),
      admission_(grid, gis, nws, opts_.slots, opts_.admission),
      brownout_(opts_.brownout) {
  GRADS_REQUIRE(!opts_.tenants.empty(), "MetaScheduler: no tenants");
  GRADS_REQUIRE(!opts_.slots.empty(), "MetaScheduler: no slots");
  GRADS_REQUIRE(opts_.flopsPerPhase > 0.0 && opts_.refFlopsPerSec > 0.0,
                "MetaScheduler: bad flops options");
  ledgers_.resize(opts_.tenants.size());
  tenants_.resize(opts_.tenants.size());
  queues_.resize(opts_.tenants.size());
  for (std::size_t i = 0; i < opts_.tenants.size(); ++i) {
    tenants_[i].rng =
        Rng(opts_.seed ^ (opts_.tenants[i].seed * 0x9e3779b97f4a7c15ULL));
  }
  freeSlots_ = opts_.slots;
}

sim::Engine& MetaScheduler::engine() const { return grid_->engine(); }

std::string MetaScheduler::appName(JobKey key) const {
  // append, not operator+: gcc 12 at -O3 flags operator+(const char*,
  // std::string&&) with a false -Wrestrict.
  return std::string("t")
      .append(std::to_string(jobTenant(key)))
      .append(".j")
      .append(std::to_string(jobSeq(key)));
}

double MetaScheduler::idealSeconds(const Job& job) const {
  return job.sizeFlops / opts_.refFlopsPerSec;
}

// --- Arrivals. ---

double MetaScheduler::arrivalRate(const TenantSpec& spec, double t) const {
  const double phase =
      kTwoPi * (t - spec.diurnalPhaseSec) / std::max(spec.diurnalPeriodSec, 1.0);
  const double r =
      spec.baseRatePerSec * (1.0 + spec.diurnalAmplitude * std::sin(phase));
  return r < 0.0 ? 0.0 : r;
}

double MetaScheduler::drawNextArrival(std::size_t tenant, double from) {
  const TenantSpec& spec = opts_.tenants[tenant];
  TenantRuntime& rt = tenants_[tenant];
  // Thinning for the non-homogeneous Poisson process: candidates at the
  // peak rate, accepted with probability rate(t)/rateMax.
  const double rateMax =
      spec.baseRatePerSec * (1.0 + std::abs(spec.diurnalAmplitude));
  if (rateMax <= 0.0) return -1.0;
  double t = from;
  for (int guard = 0; guard < (1 << 20); ++guard) {
    t += rt.rng.exponential(rateMax);
    if (t > opts_.horizonSec) return -1.0;
    if (rt.rng.uniform() * rateMax <= arrivalRate(spec, t)) return t;
  }
  return -1.0;
}

void MetaScheduler::armArrival(std::size_t tenant) {
  const double at = tenants_[tenant].nextArrivalAt;
  if (at < 0.0 || at > opts_.horizonSec) return;
  engine().scheduleDaemonAt(at, [this, tenant] { onArrival(tenant); });
}

void MetaScheduler::onArrival(std::size_t tenant) {
  TenantRuntime& rt = tenants_[tenant];
  const TenantSpec& spec = opts_.tenants[tenant];
  const double now = engine().now();
  double size = rt.rng.pareto(spec.paretoXmFlops, spec.paretoAlpha);
  if (spec.maxJobFlops > 0.0 && size > spec.maxJobFlops) {
    size = spec.maxJobFlops;
  }
  const JobKey key =
      makeJobKey(static_cast<std::uint32_t>(tenant), rt.nextSeq++);
  Job job;
  job.tier = spec.tier;
  job.sizeFlops = size;
  job.phases = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(size / opts_.flopsPerPhase)));
  job.submitAt = now;
  jobs_.emplace(key, job);
  noteInSystem();
  submit(key);
  rt.nextArrivalAt = drawNextArrival(tenant, now);
  armArrival(tenant);
}

void MetaScheduler::submit(JobKey key) {
  Job& job = jobs_.at(key);
  const std::size_t t = jobTenant(key);
  TenantLedger& led = ledgers_[t];
  ++led.submitted;
  const AdmissionDecision d = admission_.decide(
      job.tier, queues_[t].size(), static_cast<std::size_t>(queuedTotal_),
      backlogSeconds(), brownout_.level());
  if (d.admit) {
    job.state = JobState::kQueued;
    queues_[t].push_back(key);
    ++queuedTotal_;
    queuedFlops_ += job.sizeFlops;
    if (queuedTotal_ > peakQueueDepth_) peakQueueDepth_ = queuedTotal_;
    ++led.admitted;
    fire("admit");
    kickDispatch();
  } else {
    ++led.shed;
    ++job.sheds;
    fire("shed");
    scheduleResubmit(key, d.retryAfterSec);
  }
}

void MetaScheduler::scheduleResubmit(JobKey key, double retryAfterSec) {
  Job& job = jobs_.at(key);
  const std::size_t t = jobTenant(key);
  TenantLedger& led = ledgers_[t];
  const util::RetryPolicy& policy = opts_.tenants[t].resubmit;
  const double now = engine().now();
  if (job.attempts >= policy.maxAttempts) {
    ++led.abandoned;
    jobs_.erase(key);
    return;
  }
  // Honor the admission retry-after hint, but never come back sooner than
  // the tenant's own jittered backoff would.
  const double delay = std::max(
      retryAfterSec, policy.delaySec(job.attempts - 1, &tenants_[t].rng));
  if (now + delay > opts_.horizonSec) {
    // Simulated-time deadline: the retry would land past the submission
    // horizon — the generator gives up instead of queueing a ghost.
    ++led.abandoned;
    jobs_.erase(key);
    return;
  }
  ++job.attempts;
  ++led.resubmits;
  job.state = JobState::kRetryWait;
  const double due = now + delay;
  resubmitAt_[key] = due;
  engine().scheduleDaemonAt(due, [this, key] { onResubmit(key); });
}

void MetaScheduler::onResubmit(JobKey key) {
  if (jobs_.find(key) == jobs_.end()) return;  // dropped at the deadline
  resubmitAt_.erase(key);
  submit(key);
}

// --- Dispatch. ---

void MetaScheduler::kickDispatch() {
  if (kickPending_ || !started_) return;
  kickPending_ = true;
  engine().schedule(0.0, [this] {
    kickPending_ = false;
    pump();
  });
}

void MetaScheduler::pump() {
  // Unpark first: parked jobs already paid their checkpoint and hold
  // admitted-work obligations, so they outrank fresh dispatch. An empty
  // queue always unparks regardless of the brownout rung — holding a park
  // with nothing else to serve would strand the job forever.
  while (!freeSlots_.empty() && !parked_.empty() &&
         (queuedTotal_ == 0 || !opts_.brownout.enabled ||
          brownout_.level() < BrownoutLevel::kPark)) {
    // Highest tier first, then longest parked, then lowest key.
    JobKey pick = parked_.begin()->first;
    const Job* best = parked_.begin()->second;
    for (const auto& [key, job] : parked_) {
      if (job->tier > best->tier ||
          (job->tier == best->tier && job->parkedAt < best->parkedAt)) {
        pick = key;
        best = job;
      }
    }
    unpark(pick);
  }

  // Strict priority across tiers; stride (fair-share) scheduling within a
  // tier. The brownout ladder's first rung stops dispatching tier 0 — but
  // only while higher-tier work is actually waiting. Deferral reserves
  // capacity; it must never strand it (the deferred backlog itself keeps
  // pressure high, so an unconditional defer would livelock the ladder).
  bool priorityWaiting = false;
  for (std::size_t i = 0; i < opts_.tenants.size(); ++i) {
    if (opts_.tenants[i].tier >= 1 && !queues_[i].empty()) {
      priorityWaiting = true;
      break;
    }
  }
  const int minTier =
      (opts_.brownout.enabled && priorityWaiting &&
       brownout_.level() >= BrownoutLevel::kDeferLow)
          ? 1
          : 0;
  while (!freeSlots_.empty()) {
    int tier = -1;
    for (std::size_t i = 0; i < opts_.tenants.size(); ++i) {
      if (!queues_[i].empty() && opts_.tenants[i].tier >= minTier) {
        tier = std::max(tier, opts_.tenants[i].tier);
      }
    }
    if (tier < 0) break;
    bool found = false;
    std::size_t pick = 0;
    double best = 0.0;
    for (std::size_t i = 0; i < opts_.tenants.size(); ++i) {
      if (opts_.tenants[i].tier != tier || queues_[i].empty()) continue;
      if (!found || tenants_[i].stridePass < best) {
        found = true;
        pick = i;
        best = tenants_[i].stridePass;
      }
    }
    const JobKey key = queues_[pick].front();
    queues_[pick].pop_front();
    --queuedTotal_;
    queuedFlops_ -= jobs_.at(key).sizeFlops;
    tenants_[pick].stridePass +=
        1.0 / std::max(opts_.tenants[pick].weight, 1e-9);
    dispatchJob(key);
  }

  // Deferral accounting: free capacity exists but the ladder holds the
  // tier-0 queue heads back.
  if (minTier > 0 && !freeSlots_.empty()) {
    for (std::size_t i = 0; i < opts_.tenants.size(); ++i) {
      if (opts_.tenants[i].tier >= minTier || queues_[i].empty()) continue;
      ++ledgers_[i].deferrals;
      ++jobs_.at(queues_[i].front()).deferrals;
    }
  }

  maybePreempt();
  armTick();
}

void MetaScheduler::dispatchJob(JobKey key) {
  Job& job = jobs_.at(key);
  const double now = engine().now();
  const grid::NodeId node = freeSlots_.back();
  freeSlots_.pop_back();
  job.state = JobState::kRunning;
  job.node = node;
  job.lastStartAt = now;
  if (job.dispatchAt < 0.0) job.dispatchAt = now;
  ++ledgers_[jobTenant(key)].dispatched;
  integrateBusy();
  ++busyCount_;
  running_.emplace(key, &job);
  auto ctrl = std::make_shared<JobControl>(engine(), /*gateOpen=*/true);
  ctrl->slot->node = node;
  controls_[key] = ctrl;
  fire("dispatch");
  engine().spawn(runJob(key, ctrl), appName(key));
}

sim::Task MetaScheduler::runJob(JobKey key, std::shared_ptr<JobControl> ctrl) {
  const Job& job = jobs_.at(key);
  const std::uint64_t phases = job.phases;
  const double perPhase = job.sizeFlops / static_cast<double>(phases);

  core::Cop cop;
  cop.name = appName(key);
  cop.isMpi = false;
  cop.requiredSoftware = {services::software::kLocalBinder,
                          services::software::kSrsLibrary};
  cop.checkpointArrays = {{"state", kCheckpointBytes}};
  cop.perfModel = std::make_shared<SlotPerfModel>(*grid_, phases, perPhase);
  cop.mapper = std::make_shared<PinnedMapper>(ctrl->slot);
  cop.code = [phases, perPhase](core::LaunchContext& ctx, int rank) {
    return tenantJobBody(ctx, rank, phases, perPhase);
  };

  core::ManagerOptions mo = opts_.jobOptions;
  mo.journal = journal_;
  mo.relaunchGate = [this, key, ctrl](const std::string& /*app*/) {
    return gateTask(key, ctrl);
  };
  mo.retrySeed = opts_.seed ^ (key * 0x9e3779b97f4a7c15ULL);

  bool failed = false;
  try {
    co_await mgr_->run(cop, nullptr, mo, &ctrl->breakdown);
  } catch (const std::exception& e) {
    GRADS_WARN("metasched", engine().now())
        << cop.name << " failed: " << e.what();
    failed = true;
  }
  onJobFinished(key, ctrl, failed);
}

sim::Task MetaScheduler::gateTask(JobKey key,
                                  std::shared_ptr<JobControl> ctrl) {
  if (ctrl->parkPending) onParkedAtGate(key, ctrl);
  co_await ctrl->gate.wait();
}

void MetaScheduler::onJobFinished(JobKey key, std::shared_ptr<JobControl> ctrl,
                                  bool failed) {
  const auto it = jobs_.find(key);
  if (it == jobs_.end()) return;
  const double now = engine().now();
  const Job job = it->second;
  const std::size_t t = jobTenant(key);
  TenantLedger& led = ledgers_[t];
  if (ctrl->parkPending) {
    // The stop flag raced a launch boundary (beginIncarnation cleared it)
    // and the job ran to completion: the preemption is moot. The manager's
    // defensive close already committed the journaled action.
    ctrl->parkPending = false;
    --pendingParks_;
  }
  integrateBusy();
  --busyCount_;
  running_.erase(key);
  freeSlots_.push_back(job.node);

  // Surface the frontend's view of this run in its breakdown (satellite:
  // admission/shed/preempt/brownout counters ride RunBreakdown).
  ctrl->breakdown.admissionRetries = job.attempts - 1;
  ctrl->breakdown.admissionSheds = job.sheds;
  ctrl->breakdown.preemptParks = job.parks;
  ctrl->breakdown.brownoutDeferrals = job.deferrals;

  double slowdown = 0.0;
  if (failed) {
    ++led.failed;
  } else {
    ++led.completed;
    slowdown = (now - job.submitAt) / idealSeconds(job);
    led.slowdowns.push_back(slowdown);
  }
  jobs_.erase(it);
  controls_.erase(key);
  if (onJobComplete_) {
    JobStats s;
    s.app = appName(key);
    s.tenant = static_cast<std::uint32_t>(t);
    s.tier = job.tier;
    s.submitAt = job.submitAt;
    s.completeAt = now;
    s.slowdown = slowdown;
    s.failed = failed;
    s.breakdown = ctrl->breakdown;
    onJobComplete_(s);
  }
  kickDispatch();
}

// --- Preemption + brownout. ---

void MetaScheduler::maybePreempt() {
  if (!opts_.preempt.enabled || journal_ == nullptr || !freeSlots_.empty()) {
    return;
  }
  const double now = engine().now();
  while (pendingParks_ < opts_.preempt.maxConcurrent) {
    // Requester: the highest queued tier; only tiers above 0 may preempt.
    int reqTier = -1;
    JobKey reqHead = 0;
    std::int64_t queuedPriority = 0;
    for (std::size_t i = 0; i < opts_.tenants.size(); ++i) {
      if (queues_[i].empty()) continue;
      if (opts_.tenants[i].tier > 0) {
        queuedPriority += static_cast<std::int64_t>(queues_[i].size());
      }
      if (opts_.tenants[i].tier > reqTier) {
        reqTier = opts_.tenants[i].tier;
        reqHead = queues_[i].front();
      }
    }
    if (reqTier <= 0 || queuedPriority <= pendingParks_) return;
    const bool parkRung = opts_.brownout.enabled &&
                          brownout_.level() >= BrownoutLevel::kPark;
    const bool starving = now - jobs_.at(reqHead).submitAt >=
                          opts_.preempt.highTierMaxWaitSec;
    if (!parkRung && !starving) return;

    // Victim: lowest tier first, then most recently (re)started, then
    // lowest key — deterministic, and it evicts the least sunk cost.
    bool found = false;
    JobKey victim = 0;
    int vTier = 0;
    double vStart = 0.0;
    for (const auto& [key, jobPtr] : running_) {
      const Job& job = *jobPtr;
      if (job.tier >= reqTier) continue;
      const auto cit = controls_.find(key);
      if (cit == controls_.end() || cit->second->parkPending) continue;
      if (now - job.lastStartAt < opts_.preempt.minRunSec) continue;
      if (now - tenants_[jobTenant(key)].lastPreemptAt <
          opts_.preempt.cooldownSec) {
        continue;
      }
      if (journal_->openAction(appName(key)) != nullptr) continue;
      if (!found || job.tier < vTier ||
          (job.tier == vTier && job.lastStartAt > vStart)) {
        found = true;
        victim = key;
        vTier = job.tier;
        vStart = job.lastStartAt;
      }
    }
    if (!found || !preempt(victim)) return;
  }
}

bool MetaScheduler::preempt(JobKey victim) {
  Job& job = jobs_.at(victim);
  const std::string name = appName(victim);
  // Deliver the stop first: if the app has no live incarnation yet the
  // flag would be cleared by the next beginIncarnation and the park would
  // never happen — skip this victim.
  if (!mgr_->requestStop(name)) return false;
  // The park rides the journal's prepare phase: a crash between here and
  // the park resolves as a rollback (presumed abort) and the job simply
  // keeps its pre-preemption identity after restore.
  journal_->open(name, reschedule::ActionKind::kPreempt, {job.node});
  auto ctrl = controls_.at(victim);
  ctrl->parkPending = true;
  ctrl->gate.close();
  ++pendingParks_;
  tenants_[jobTenant(victim)].lastPreemptAt = engine().now();
  ++ledgers_[jobTenant(victim)].preempted;
  fire("preempt");
  return true;
}

void MetaScheduler::onParkedAtGate(JobKey key,
                                   const std::shared_ptr<JobControl>& ctrl) {
  Job& job = jobs_.at(key);
  ctrl->parkPending = false;
  --pendingParks_;
  job.state = JobState::kParked;
  job.parkedAt = engine().now();
  ++job.parks;
  ++ledgers_[jobTenant(key)].parks;
  integrateBusy();
  --busyCount_;
  running_.erase(key);
  parked_.emplace(key, &job);
  freeSlots_.push_back(job.node);
  job.node = grid::kNoId;
  fire("park");
  kickDispatch();
}

void MetaScheduler::unpark(JobKey key) {
  Job& job = jobs_.at(key);
  auto ctrl = controls_.at(key);
  const grid::NodeId node = freeSlots_.back();
  freeSlots_.pop_back();
  job.state = JobState::kRunning;
  job.node = node;
  job.lastStartAt = engine().now();
  ctrl->slot->node = node;
  integrateBusy();
  ++busyCount_;
  running_.emplace(key, &job);
  parked_.erase(key);
  ++ledgers_[jobTenant(key)].unparked;
  fire("unpark");
  ctrl->gate.open();
}

// --- Control loop. ---

void MetaScheduler::start() {
  GRADS_REQUIRE(!started_, "MetaScheduler::start: already started");
  started_ = true;
  busyStamp_ = engine().now();
  for (std::size_t i = 0; i < opts_.tenants.size(); ++i) {
    tenants_[i].nextArrivalAt = drawNextArrival(i, engine().now());
    armArrival(i);
  }
  armTick();
}

void MetaScheduler::resumeAfterRestore() {
  GRADS_REQUIRE(!started_,
                "MetaScheduler::resumeAfterRestore: already started");
  started_ = true;
  // Re-arm generators and pending resubmits from the decoded schedule.
  for (std::size_t i = 0; i < opts_.tenants.size(); ++i) armArrival(i);
  for (const auto& [key, due] : resubmitAt_) {
    const JobKey k = key;
    engine().scheduleDaemonAt(due, [this, k] { onResubmit(k); });
  }
  // Respawn live jobs in key order (restore parity depends only on both
  // arms respawning identically). A parked job waits behind a closed gate;
  // its journaled preempt action was rolled back by recovery, so the
  // eventual unpark relaunches it as a plain restore.
  for (const auto& [key, job] : jobs_) {
    if (job.state != JobState::kRunning && job.state != JobState::kParked) {
      continue;
    }
    auto ctrl = std::make_shared<JobControl>(
        engine(), /*gateOpen=*/job.state == JobState::kRunning);
    ctrl->slot->node = job.node;
    controls_[key] = ctrl;
    engine().spawn(runJob(key, ctrl), appName(key));
  }
  armTick();
  kickDispatch();
}

void MetaScheduler::armTick() {
  if (tickPending_ || !started_) return;
  const double now = engine().now();
  const double endAt = std::max(opts_.horizonSec, opts_.hardDeadlineSec);
  // The tick is a *non-daemon* event: it holds the engine open through the
  // submission window and for as long as queued/parked work or pending
  // resubmits exist — otherwise run() would drain with work stranded
  // behind a brownout deferral or a closed gate.
  const bool liveWork =
      queuedTotal_ > 0 || !parked_.empty() || !resubmitAt_.empty();
  if (now >= endAt && !liveWork) return;
  tickPending_ = true;
  engine().schedule(opts_.controlPeriodSec, [this] { controlTick(); });
}

void MetaScheduler::controlTick() {
  tickPending_ = false;
  const double now = engine().now();
  if (!deadlineFired_ && opts_.hardDeadlineSec > 0.0 &&
      now + 1e-9 >= opts_.hardDeadlineSec) {
    applyDeadline();
  }
  integrateBusy();
  if (opts_.brownout.enabled) {
    const BrownoutLevel before = brownout_.level();
    brownout_.update(pressure(), now);
    if (brownout_.level() != before) {
      GRADS_INFO("metasched", now)
          << "brownout " << brownoutLevelName(before) << " -> "
          << brownoutLevelName(brownout_.level()) << " (pressure "
          << pressure() << ")";
      fire("brownout");
    }
  }
  ++queueSamples_;
  queueDepthSum_ += static_cast<double>(queuedTotal_);
  if (queuedTotal_ > peakQueueDepth_) peakQueueDepth_ = queuedTotal_;
  if (onSample_) {
    onSample_(now, queuedTotal_, static_cast<std::int64_t>(running_.size()),
              static_cast<std::int64_t>(parked_.size()), pressure(),
              brownout_.level());
  }
  pump();  // also re-arms the tick
}

void MetaScheduler::applyDeadline() {
  deadlineFired_ = true;
  std::int64_t dropped = 0;
  for (std::size_t i = 0; i < queues_.size(); ++i) {
    for (const JobKey key : queues_[i]) {
      ++ledgers_[i].unserved;
      ++dropped;
      jobs_.erase(key);
    }
    queues_[i].clear();
  }
  queuedTotal_ = 0;
  queuedFlops_ = 0.0;
  for (const auto& [key, due] : resubmitAt_) {
    ++ledgers_[jobTenant(key)].abandoned;
    jobs_.erase(key);
  }
  resubmitAt_.clear();
  if (dropped > 0) {
    GRADS_WARN("metasched", engine().now())
        << "hard deadline: dropped " << dropped << " queued jobs as unserved";
  }
}

double MetaScheduler::backlogSeconds() const {
  if (queuedFlops_ <= 0.0) return 0.0;
  const double cap = admission_.capacityFlops();
  if (cap <= 0.0) return opts_.admission.maxBacklogSec * 1e6;
  return queuedFlops_ / cap;
}

double MetaScheduler::pressure() const {
  const AdmissionOptions& a = opts_.admission;
  double p = 0.0;
  if (a.maxQueuedTotal > 0) {
    p = static_cast<double>(queuedTotal_) /
        static_cast<double>(a.maxQueuedTotal);
  }
  if (a.maxBacklogSec > 0.0) {
    p = std::max(p, backlogSeconds() / a.maxBacklogSec);
  }
  return p;
}

void MetaScheduler::integrateBusy() {
  const double now = engine().now();
  busySlotSec_ += static_cast<double>(busyCount_) * (now - busyStamp_);
  busyStamp_ = now;
}

void MetaScheduler::noteInSystem() {
  const auto n = static_cast<std::int64_t>(jobs_.size());
  if (n > peakInSystem_) peakInSystem_ = n;
}

void MetaScheduler::fire(const char* kind) {
  if (onTransition_) onTransition_(kind);
}

// --- Observability. ---

FrontendTotals MetaScheduler::totals() const {
  FrontendTotals t;
  for (const TenantLedger& led : ledgers_) {
    t.submitted += led.submitted;
    t.admitted += led.admitted;
    t.shed += led.shed;
    t.resubmits += led.resubmits;
    t.abandoned += led.abandoned;
    t.dispatched += led.dispatched;
    t.completed += led.completed;
    t.failed += led.failed;
    t.preempted += led.preempted;
    t.parks += led.parks;
    t.unparked += led.unparked;
    t.deferrals += led.deferrals;
    t.unserved += led.unserved;
  }
  t.brownoutEscalations = brownout_.escalations();
  t.brownoutDeescalations = brownout_.deescalations();
  t.peakQueueDepth = peakQueueDepth_;
  t.peakInSystem = peakInSystem_;
  t.busySlotSeconds =
      busySlotSec_ +
      static_cast<double>(busyCount_) * (engine().now() - busyStamp_);
  t.meanQueueDepth =
      queueSamples_ > 0
          ? queueDepthSum_ / static_cast<double>(queueSamples_)
          : 0.0;
  return t;
}

std::vector<double> MetaScheduler::allSlowdowns() const {
  std::vector<double> all;
  for (const TenantLedger& led : ledgers_) {
    all.insert(all.end(), led.slowdowns.begin(), led.slowdowns.end());
  }
  return all;
}

void MetaScheduler::foldDigest(util::DigestStream& ds) const {
  for (const TenantLedger& led : ledgers_) {
    ds.put(static_cast<std::uint64_t>(led.submitted));
    ds.put(static_cast<std::uint64_t>(led.admitted));
    ds.put(static_cast<std::uint64_t>(led.shed));
    ds.put(static_cast<std::uint64_t>(led.resubmits));
    ds.put(static_cast<std::uint64_t>(led.abandoned));
    ds.put(static_cast<std::uint64_t>(led.dispatched));
    ds.put(static_cast<std::uint64_t>(led.completed));
    ds.put(static_cast<std::uint64_t>(led.failed));
    ds.put(static_cast<std::uint64_t>(led.preempted));
    ds.put(static_cast<std::uint64_t>(led.parks));
    ds.put(static_cast<std::uint64_t>(led.unparked));
    ds.put(static_cast<std::uint64_t>(led.deferrals));
    ds.put(static_cast<std::uint64_t>(led.unserved));
    for (const double s : led.slowdowns) ds.put(s);
  }
  ds.put(static_cast<std::uint64_t>(brownout_.level()));
  ds.put(static_cast<std::uint64_t>(brownout_.escalations()));
  ds.put(static_cast<std::uint64_t>(brownout_.deescalations()));
  ds.put(static_cast<std::uint64_t>(peakQueueDepth_));
  ds.put(static_cast<std::uint64_t>(peakInSystem_));
  ds.put(busySlotSec_);
  ds.put(static_cast<std::uint64_t>(queuedTotal_));
  ds.put(static_cast<std::uint64_t>(jobs_.size()));
}

// --- Snapshot participation. ---

void MetaScheduler::decodeState(core::SnapshotReader& r) {
  snapshotIo(*this, r);
  // Derived gauges and job sets rebuild from the queues and the job table;
  // park-pending stops are runtime-only (journal recovery rolled their
  // actions back).
  queuedTotal_ = 0;
  queuedFlops_ = 0.0;
  for (const auto& q : queues_) {
    for (const JobKey key : q) {
      ++queuedTotal_;
      queuedFlops_ += jobs_.at(key).sizeFlops;
    }
  }
  running_.clear();
  parked_.clear();
  for (auto& [key, job] : jobs_) {
    if (job.state == JobState::kRunning) {
      running_.emplace_hint(running_.end(), key, &job);
    }
    if (job.state == JobState::kParked) {
      parked_.emplace_hint(parked_.end(), key, &job);
    }
  }
  pendingParks_ = 0;
  controls_.clear();
}

}  // namespace grads::metasched
