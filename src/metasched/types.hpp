#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/snapshot.hpp"
#include "util/retry.hpp"

namespace grads::metasched {

/// One tenant of the submission frontend: an open-loop arrival process
/// (Poisson, diurnally modulated, heavy-tailed job sizes) plus the policy
/// knobs admission and fair-share read for its jobs.
struct TenantSpec {
  std::string name;
  int tier = 1;         ///< 0 = batch, 1 = normal, 2 = high priority
  double weight = 1.0;  ///< fair-share stride weight within the tier

  // Arrival process: non-homogeneous Poisson with rate
  //   base * (1 + amplitude * sin(2*pi * (t - phase) / period)).
  double baseRatePerSec = 0.01;
  double diurnalAmplitude = 0.0;  ///< in [0, 1)
  double diurnalPeriodSec = 86400.0;
  double diurnalPhaseSec = 0.0;

  // Job sizes: Pareto(xm, alpha) flops, optionally truncated.
  double paretoXmFlops = 1e9;
  double paretoAlpha = 1.9;
  double maxJobFlops = 0.0;  ///< 0 = uncapped

  /// Resubmission behavior after a shed: the generator waits for
  /// max(admission retry-after hint, policy backoff) and gives up once the
  /// attempt budget is exhausted or the submission horizon has passed.
  util::RetryPolicy resubmit;

  std::uint64_t seed = 1;  ///< arrival/size/jitter stream for this tenant
};

/// Per-tenant accounting. Every job ends in exactly one of completed /
/// failed / abandoned / unserved, so the ledger is auditable:
///   admitted == completed + failed + unserved + still-in-system
/// and the campaign asserts still-in-system == 0 at drain.
struct TenantLedger {
  std::int64_t submitted = 0;   ///< submission attempts (arrivals + resubmits)
  std::int64_t admitted = 0;    ///< accepted into the queue
  std::int64_t shed = 0;        ///< rejected with a retry-after hint
  std::int64_t resubmits = 0;   ///< sheds that scheduled a retry
  std::int64_t abandoned = 0;   ///< sheds past the retry budget or horizon
  std::int64_t dispatched = 0;  ///< handed to the application manager
  std::int64_t completed = 0;
  std::int64_t failed = 0;      ///< manager run threw (launch budget etc.)
  std::int64_t preempted = 0;   ///< checkpoint-and-park requests issued
  std::int64_t parks = 0;       ///< parks that actually reached the gate
  std::int64_t unparked = 0;    ///< re-dispatches of parked jobs
  std::int64_t deferrals = 0;   ///< dispatch opportunities lost to brownout
  std::int64_t unserved = 0;    ///< queued jobs dropped at the hard deadline
  /// (completion - submit) / ideal service time, one entry per completion.
  std::vector<double> slowdowns;

  template <class Self, class Ar>
  static void snapshotIo(Self& s, Ar& a) {
    a(s.submitted, s.admitted, s.shed, s.resubmits, s.abandoned,
      s.dispatched, s.completed, s.failed, s.preempted, s.parks, s.unparked,
      s.deferrals, s.unserved, s.slowdowns);
  }
};

/// Brownout ladder: each rung trades progressively more service for
/// stability. kDeferLow stops dispatching tier-0 work, kPark lets the
/// preemption governor checkpoint-and-park victims for higher tiers, kShed
/// rejects all non-protected arrivals outright.
enum class BrownoutLevel : int {
  kFull = 0,
  kDeferLow = 1,
  kPark = 2,
  kShed = 3,
};

const char* brownoutLevelName(BrownoutLevel level);

struct BrownoutOptions {
  bool enabled = true;
  /// Minimum dwell on a rung before the next transition (either way).
  double dwellSec = 120.0;
};

/// Hysteresis ladder controller (the ViolationGovernor idiom applied to
/// load): moves at most one rung per update, holds each rung for dwellSec,
/// and enters high / exits low so a pressure signal hovering at a threshold
/// cannot thrash the service level.
class BrownoutController {
 public:
  BrownoutController() = default;
  explicit BrownoutController(BrownoutOptions opts) : opts_(opts) {}

  BrownoutLevel level() const { return static_cast<BrownoutLevel>(level_); }
  std::int64_t escalations() const { return escalations_; }
  std::int64_t deescalations() const { return deescalations_; }

  /// Feeds one pressure sample at virtual time `now`; returns true when the
  /// rung changed.
  bool update(double pressure, double now);

  /// Snapshot field list (core/snapshot.hpp).
  template <class Self, class Ar>
  static void snapshotIo(Self& s, Ar& a) {
    a(s.level_, s.lastChangeAt_, s.escalations_, s.deescalations_);
  }

 private:
  BrownoutOptions opts_;  // grads: transient(construction-time config)
  int level_ = 0;
  double lastChangeAt_ = -1e300;
  std::int64_t escalations_ = 0;
  std::int64_t deescalations_ = 0;
};

/// Governor-mediated preemption knobs (checkpoint-and-park of a running
/// victim to make room for queued higher-tier work).
struct PreemptOptions {
  bool enabled = true;
  /// Victim must have run at least this long — in particular longer than
  /// the launch overheads, so the RSS stop flag lands on a live incarnation
  /// instead of being cleared by the next beginIncarnation().
  double minRunSec = 60.0;
  /// Per victim-tenant cooldown between preemptions (anti-thrash).
  double cooldownSec = 300.0;
  /// Parks in flight (stop requested, gate not yet reached) at once.
  int maxConcurrent = 2;
  /// Even below the kPark rung, a high-tier job queued longer than this
  /// with no free slot triggers a preemption.
  double highTierMaxWaitSec = 600.0;
};

}  // namespace grads::metasched
