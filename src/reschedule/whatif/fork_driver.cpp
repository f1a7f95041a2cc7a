#include "reschedule/whatif/fork_driver.hpp"

#include <algorithm>
#include <iterator>

#include "util/error.hpp"
#include "util/log.hpp"

namespace grads::reschedule::whatif {

namespace {
/// Per-fork sandbox event cap, the stand-in for a wall-clock timeout.
constexpr std::uint64_t kMaxEventsPerFork = 400000;
/// Severity ranges the pessimistic futures draw from (units per
/// PerturbationKind).
constexpr double kSlowdownSeverityMin = 1.5;
constexpr double kSlowdownSeverityMax = 3.0;
constexpr double kDegradeScaleMin = 0.15;
constexpr double kDegradeScaleMax = 0.5;
constexpr double kDepotOutageSecMin = 120.0;
constexpr double kDepotOutageSecMax = 300.0;
/// Harm weights for scoring a realized future.
constexpr double kMigrateBackWeight = 3.0;
constexpr double kAbortPenalty = 1000.0;
/// Seed of the driver's future-drawing Rng stream.
constexpr std::uint64_t kSeed = 0x5eedf0c5ULL;

static_assert(ForkDriver::kMistrustDecay >= 0.0 &&
                  ForkDriver::kMistrustDecay <= 1.0,
              "ForkDriver: mistrust decay must be in [0,1]");
static_assert(ForkDriver::kHorizonSec > 0.0,
              "ForkDriver: non-positive horizon");
}  // namespace

const char* candidateKindName(CandidateKind kind) {
  switch (kind) {
    case CandidateKind::kSuppress: return "suppress";
    case CandidateKind::kMigrate: return "migrate";
  }
  return "?";
}

ForkDriver::ForkDriver(sim::Engine& engine, DriverOptions options)
    : engine_(&engine), opts_(options), rng_(kSeed) {
  GRADS_REQUIRE(opts_.budget.maxForks >= 0,
                "ForkDriver: negative fork budget");
  GRADS_REQUIRE(opts_.budget.pessimisticFutures >= 0,
                "ForkDriver: negative future count");
}

double ForkDriver::harmOf(const ForkOutcome& o) const {
  double harm = static_cast<double>(o.violationRecurrences) +
                kMigrateBackWeight * static_cast<double>(o.migrateBacks);
  if (o.aborted) harm += kAbortPenalty;
  return harm;
}

std::vector<Candidate> ForkDriver::buildCandidates(
    const DecisionInput& in) const {
  std::vector<Candidate> cands;
  cands.push_back({CandidateKind::kSuppress, {}, "suppress"});
  if (in.modelWantedMigrate && !in.modelTarget.empty() &&
      in.modelTarget != in.current) {
    cands.push_back({CandidateKind::kMigrate, in.modelTarget, "model-target"});
  }
  if (!in.alternateTarget.empty() && in.alternateTarget != in.current &&
      in.alternateTarget != in.modelTarget) {
    cands.push_back({CandidateKind::kMigrate, in.alternateTarget, "alternate"});
  }
  return cands;
}

std::vector<Perturbation> ForkDriver::drawFutures() {
  std::vector<Perturbation> futures;
  futures.push_back({PerturbationKind::kNone, 0, 0.0});
  constexpr PerturbationKind kKinds[] = {PerturbationKind::kTargetSlowdown,
                                         PerturbationKind::kLinkDegrade,
                                         PerturbationKind::kDepotOutage};
  for (int i = 0; i < opts_.budget.pessimisticFutures; ++i) {
    Perturbation p;
    p.kind = kKinds[static_cast<std::size_t>(i) % std::size(kKinds)];
    p.seed = rng_.next();
    switch (p.kind) {
      case PerturbationKind::kTargetSlowdown:
        p.severity = rng_.uniform(kSlowdownSeverityMin, kSlowdownSeverityMax);
        break;
      case PerturbationKind::kLinkDegrade:
        p.severity = rng_.uniform(kDegradeScaleMin, kDegradeScaleMax);
        break;
      case PerturbationKind::kDepotOutage:
        p.severity = rng_.uniform(kDepotOutageSecMin, kDepotOutageSecMax);
        break;
      case PerturbationKind::kNone: break;
    }
    futures.push_back(p);
  }
  return futures;
}

ForkDriver::Decision ForkDriver::fallback(DecisionRecord rec,
                                          const DecisionInput& in,
                                          const std::string& why) {
  ++stats_.fallbacks;
  rec.chosen = -1;
  rec.fallbackReason = why;
  log_.push_back(std::move(rec));
  Decision d;
  d.fromForks = false;
  d.recordId = log_.back().id;
  d.kind = in.modelWantedMigrate ? CandidateKind::kMigrate
                                 : CandidateKind::kSuppress;
  d.target = in.modelTarget;
  d.summary = "whatif fallback: " + why;
  GRADS_INFO("whatif", engine_->now())
      << in.app << ": decision #" << d.recordId << " degraded to model-only ("
      << why << ")";
  return d;
}

ForkDriver::Decision ForkDriver::decide(const DecisionInput& in) {
  ++stats_.decisions;
  // Settle anything already past its horizon before deciding again, so the
  // mistrust this decision's cooldown extension reads is current.
  settle(in.app, engine_->now(), false);

  DecisionRecord rec;
  rec.id = static_cast<int>(log_.size()) + 1;
  rec.app = in.app;
  rec.at = engine_->now();
  rec.phase = in.phase;
  rec.modelWantedMigrate = in.modelWantedMigrate;
  rec.modelTarget = in.modelTarget;
  rec.shadow = opts_.shadowOnly;

  if (!armed()) return fallback(std::move(rec), in, "no sandbox runner");
  if (onFork_) onFork_("decision");

  std::vector<Candidate> cands = buildCandidates(in);
  if (cands.size() < 2) {
    return fallback(std::move(rec), in, "no competing candidates");
  }
  // Budget trim degrades gracefully: pessimistic futures are shed first
  // (keeping the nominal future for every candidate), then speculation is
  // abandoned entirely.
  std::vector<Perturbation> futures = drawFutures();
  while (static_cast<int>(cands.size() * futures.size()) >
             opts_.budget.maxForks &&
         futures.size() > 1) {
    futures.pop_back();
  }
  if (static_cast<int>(cands.size() * futures.size()) >
      opts_.budget.maxForks) {
    return fallback(std::move(rec), in, "fork budget exhausted");
  }

  const std::vector<std::uint8_t> image = source_();
  if (image.empty()) return fallback(std::move(rec), in, "empty snapshot");

  for (const Candidate& cand : cands) {
    CandidateScore cs;
    cs.candidate = cand;
    for (const Perturbation& fut : futures) {
      if (onFork_) onFork_("fork-start");
      ForkRequest rq;
      rq.image = &image;
      rq.app = in.app;
      rq.current = in.current;
      rq.candidate = cand;
      rq.perturbation = fut;
      rq.horizonSec = kHorizonSec;
      rq.maxEvents = kMaxEventsPerFork;
      FutureScore fs;
      fs.perturbation = fut;
      fs.outcome = runner_(rq);
      fs.harm = harmOf(fs.outcome);
      ++stats_.forksRun;
      if (onFork_) onFork_("fork-done");
      cs.worstHarm = std::max(cs.worstHarm, fs.harm);
      cs.worstMakespanSec =
          std::max(cs.worstMakespanSec, fs.outcome.makespanSec);
      cs.totalProgressSec += fs.outcome.progressSec;
      cs.totalCheckpointCostSec += fs.outcome.checkpointCostSec;
      cs.futures.push_back(std::move(fs));
    }
    rec.scores.push_back(std::move(cs));
  }

  // Minimax with deterministic tie-breaks: least worst-case harm, then least
  // worst-case makespan, then most realized progress, then least checkpoint
  // traffic, then candidate order (suppress first — the conservative arm
  // wins exact ties).
  int best = 0;
  for (int i = 1; i < static_cast<int>(rec.scores.size()); ++i) {
    const CandidateScore& a = rec.scores[static_cast<std::size_t>(i)];
    const CandidateScore& b = rec.scores[static_cast<std::size_t>(best)];
    if (a.worstHarm != b.worstHarm) {
      if (a.worstHarm < b.worstHarm) best = i;
    } else if (a.worstMakespanSec != b.worstMakespanSec) {
      if (a.worstMakespanSec < b.worstMakespanSec) best = i;
    } else if (a.totalProgressSec != b.totalProgressSec) {
      if (a.totalProgressSec > b.totalProgressSec) best = i;
    } else if (a.totalCheckpointCostSec < b.totalCheckpointCostSec) {
      best = i;
    }
  }
  rec.chosen = best;
  rec.predictedWorstHarm =
      rec.scores[static_cast<std::size_t>(best)].worstHarm;
  const Candidate chosen = rec.scores[static_cast<std::size_t>(best)].candidate;
  log_.push_back(std::move(rec));
  if (onFork_) onFork_("verdict");

  const bool overrides =
      (chosen.kind == CandidateKind::kMigrate) != in.modelWantedMigrate ||
      (chosen.kind == CandidateKind::kMigrate &&
       chosen.target != in.modelTarget);
  if (overrides) ++stats_.overrides;
  if (chosen.kind == CandidateKind::kSuppress) ++stats_.suppressChosen;
  GRADS_INFO("whatif", engine_->now())
      << in.app << ": decision #" << log_.back().id << ": chose "
      << candidateKindName(chosen.kind) << " (" << chosen.label
      << "), worst-case harm " << log_.back().predictedWorstHarm << " across "
      << stats_.forksRun << " cumulative forks"
      << (opts_.shadowOnly ? " [shadow]" : "")
      << (overrides ? " [overrides model]" : "");

  Decision d;
  d.recordId = log_.back().id;
  if (opts_.shadowOnly) {
    // Shadow: record the verdict, commit the model decision, leave the
    // mistrust ledger untouched — the parent trajectory must stay
    // bit-identical to a driver-less run.
    d.fromForks = false;
    d.kind = in.modelWantedMigrate ? CandidateKind::kMigrate
                                   : CandidateKind::kSuppress;
    d.target = in.modelTarget;
    d.summary = "whatif shadow verdict: " + chosen.label;
    return d;
  }
  d.fromForks = true;
  d.kind = chosen.kind;
  d.target = chosen.target;
  d.summary = "whatif #" + std::to_string(d.recordId) + ": " + chosen.label +
              " worst-harm=" + std::to_string(log_.back().predictedWorstHarm);
  Pending p;
  p.app = in.app;
  p.recordId = d.recordId;
  p.expiresAt = engine_->now() + kHorizonSec;
  p.predictedHarm = log_.back().predictedWorstHarm;
  p.nodes = chosen.kind == CandidateKind::kMigrate ? chosen.target : in.current;
  lastChosen_[in.app] = p.nodes;
  pending_.push_back(std::move(p));
  return d;
}

void ForkDriver::settle(const std::string& app, double now, bool violated) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->app != app) {
      ++it;
      continue;
    }
    if (violated && now <= it->expiresAt) {
      // A confirmed violation landed inside the prediction window. If the
      // fork ensemble promised a clean future, reality diverged: distrust
      // the nodes the chosen arm bet on.
      if (it->predictedHarm <= 0.0) {
        ++stats_.divergences;
        if (it->recordId >= 1 &&
            it->recordId <= static_cast<int>(log_.size())) {
          log_[static_cast<std::size_t>(it->recordId) - 1].diverged = true;
        }
        for (const grid::NodeId n : it->nodes) {
          mistrust_[n] += kMistrustBump;
        }
        GRADS_INFO("whatif", now)
            << app << ": prediction #" << it->recordId
            << " diverged (violation inside horizon); mistrust bumped on "
            << it->nodes.size() << " node(s)";
      }
      if (it->recordId >= 1 && it->recordId <= static_cast<int>(log_.size())) {
        log_[static_cast<std::size_t>(it->recordId) - 1].settled = true;
      }
      it = pending_.erase(it);
      continue;
    }
    if (now > it->expiresAt) {
      // The window closed clean: the prediction held, so the chosen nodes
      // earn trust back.
      for (const grid::NodeId n : it->nodes) {
        auto mit = mistrust_.find(n);
        if (mit != mistrust_.end()) {
          mit->second *= kMistrustDecay;
          if (mit->second < 1e-9) mistrust_.erase(mit);
        }
      }
      if (it->recordId >= 1 && it->recordId <= static_cast<int>(log_.size())) {
        log_[static_cast<std::size_t>(it->recordId) - 1].settled = true;
      }
      it = pending_.erase(it);
      continue;
    }
    ++it;
  }
}

void ForkDriver::noteViolation(const std::string& app, double now) {
  settle(app, now, true);
}

double ForkDriver::mistrustOf(grid::NodeId node) const {
  const auto it = mistrust_.find(node);
  return it == mistrust_.end() ? 0.0 : it->second;
}

double ForkDriver::cooldownExtraFor(const std::string& app) const {
  const auto it = lastChosen_.find(app);
  if (it == lastChosen_.end() || it->second.empty()) return 0.0;
  double sum = 0.0;
  for (const grid::NodeId n : it->second) sum += mistrustOf(n);
  const double avg = sum / static_cast<double>(it->second.size());
  return kMistrustCooldownSec * avg;
}

void ForkDriver::decodeState(core::SnapshotReader& r) {
  snapshotIo(*this, r);
  int id = 0;
  for (DecisionRecord& rec : log_) rec.id = ++id;
}

}  // namespace grads::reschedule::whatif
