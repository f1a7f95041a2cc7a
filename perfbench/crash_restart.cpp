// crash-restart: one op is one crash point. The op builds a fresh control
// plane for one of the five scenarios, runs it with periodic snapshots
// (every image serialized, as a process would write it), kills it at the
// point, then parses the latest image, restores it onto a fresh world and
// runs that to completion. Snapshot capture, serialize, parse and restore
// are all on the op's blocking path.

#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/snapshot.hpp"
#include "util/hash.hpp"
#include "workload.hpp"
#include "worlds.hpp"

namespace perfbench {
namespace {

constexpr double kSnapshotPeriodSec = 90.0;
/// Each scenario runs as several seeded instances, so a phase's cost
/// averages over trajectories instead of hanging on one seed's.
constexpr int kInstances = 16;
/// Crash points per instance. An instance's candidates are the middle
/// transition of each kind it has (journal, frontend, fork) followed by
/// evenly spaced event ordinals; instance i takes its points starting at
/// candidate i, so the kinds rotate across instances.
constexpr std::size_t kPointsPerInstance = 2;
/// Attempts at drawing a scenario seed whose uncrashed run completes.
constexpr int kSeedAttempts = 8;

enum class PointKind { kJournal, kEvent, kFrontend, kFork };

struct CrashPoint {
  ScenarioKind scenario = ScenarioKind::kChaos;
  std::uint64_t seed = 0;
  PointKind kind = PointKind::kEvent;
  std::uint64_t index = 0;  ///< 1-based transition or event ordinal
};

struct Profile {
  bool completed = false;
  std::uint64_t events = 0;
  std::uint64_t journal = 0;
  std::uint64_t frontend = 0;
  std::uint64_t fork = 0;
};

/// `n` ordinals evenly spaced strictly inside [1, total].
std::vector<std::uint64_t> spread(std::uint64_t total, std::uint64_t n) {
  std::vector<std::uint64_t> out;
  if (total == 0) return out;
  if (n >= total) {
    for (std::uint64_t k = 1; k <= total; ++k) out.push_back(k);
    return out;
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    out.push_back(1 + (total - 1) * (i + 1) / (n + 1));
  }
  return out;
}

/// Stops the engine at the target ordinal of one transition kind, and
/// counts journal, frontend and fork transitions on the way.
struct KillSwitch {
  World* w = nullptr;
  Counters* c = nullptr;
  PointKind kind = PointKind::kEvent;
  std::uint64_t target = 0;  ///< 0 = never fire
  std::uint64_t seen = 0;
  std::uint64_t forks = 0;
  bool fired = false;

  void hit(PointKind k) {
    if (k != kind || target == 0 || fired) return;
    if (++seen == target) {
      fired = true;
      w->eng.stop();
    }
  }

  void install() {
    if (w->journal) {
      w->journal->setOnTransition([this](const grads::reschedule::ActionRecord&) {
        ++c->journalTransitions;
        hit(PointKind::kJournal);
      });
    }
    if (w->meta) {
      w->meta->setOnTransition([this](const char*) {
        ++c->metaTransitions;
        hit(PointKind::kFrontend);
      });
      w->meta->setOnSample([this](double, std::int64_t, std::int64_t,
                                  std::int64_t, double,
                                  grads::metasched::BrownoutLevel) {
        ++c->metaTicks;
      });
    }
    if (w->fork) {
      w->fork->setOnFork([this](const char*) {
        ++forks;
        hit(PointKind::kFork);
      });
    }
    if (kind == PointKind::kEvent && target != 0) {
      w->eng.setPopObserver(
          [](void* ctx, grads::sim::Time, std::uint64_t, bool) {
            static_cast<KillSwitch*>(ctx)->hit(PointKind::kEvent);
          },
          this);
    }
  }
};

/// Periodic image writer: captures and serializes every period, keeping
/// only the latest bytes — all that survives the kill.
struct ImageWriter {
  World* w = nullptr;
  Probe* probe = nullptr;
  std::vector<std::uint8_t> latest;

  void take() {
    Counters& c = probe->count();
    std::optional<grads::core::SnapshotImage> img;
    {
      Scope span(*probe, Layer::kCapture);
      img.emplace(w->mgr->snapshotNow());
    }
    ++c.captures;
    {
      Scope span(*probe, Layer::kSerialize);
      latest = img->serialize();
    }
    ++c.serializes;
    c.serializeBytes += latest.size();
  }

  void arm() {
    w->eng.scheduleDaemon(kSnapshotPeriodSec, [this] {
      take();
      arm();
    });
  }
};

class CrashRestart final : public Workload {
 public:
  Sampling sampling() const override { return {1.5, 5}; }

  void setup(std::uint64_t seed, Probe& probe) override {
    points_.clear();
    static constexpr ScenarioKind kKinds[kScenarioCount] = {
        ScenarioKind::kChaos, ScenarioKind::kIntegrity, ScenarioKind::kThrash,
        ScenarioKind::kTenant, ScenarioKind::kWhatif};
    constexpr std::uint64_t kStreams = kScenarioCount * kInstances;
    std::uint64_t stream = 0;
    for (const ScenarioKind kind : kKinds) {
      for (int inst = 0; inst < kInstances; ++inst, ++stream) {
        Profile prof;
        std::uint64_t scSeed = 0;
        for (int attempt = 0; attempt < kSeedAttempts && !prof.completed;
             ++attempt) {
          scSeed = 1 + deriveSeed(seed, stream + kStreams * attempt) % 1000000;
          prof = profile(kind, scSeed, probe);
        }
        if (!prof.completed) {
          throw std::runtime_error(std::string("no completing seed for ") +
                                   scenarioName(kind));
        }
        std::vector<CrashPoint> candidates;
        auto add = [&](PointKind pk, const std::vector<std::uint64_t>& idx) {
          for (const auto i : idx) candidates.push_back({kind, scSeed, pk, i});
        };
        add(PointKind::kJournal, spread(prof.journal, 1));
        add(PointKind::kFrontend, spread(prof.frontend, 1));
        add(PointKind::kFork, spread(prof.fork, 1));
        add(PointKind::kEvent, spread(prof.events, kPointsPerInstance));
        for (std::size_t j = 0; j < kPointsPerInstance; ++j) {
          points_.push_back(
              candidates[(static_cast<std::size_t>(inst) + j) % candidates.size()]);
        }
      }
    }
  }

  void warmUp(Probe& probe) override { runOp(points_.front(), probe); }

  PhaseResult runPhase(Probe& probe) override {
    const Clock::time_point start = Clock::now();
    PhaseResult res;
    std::unordered_set<std::uint64_t> images;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      probe.setOp(static_cast<std::uint32_t>(i));
      const Clock::time_point t0 = Clock::now();
      const OpResult r = tryOp(points_[i], probe);
      res.opMs.push_back(secondsSince(t0) * 1e3);
      res.outcomes.push_back({r.digest, 1, r.ok ? 0u : 1u});
      if (probe.tracing()) images.insert(r.imageDigest);
    }
    probe.count().crashPoints = points_.size();
    probe.count().distinctImages = images.size();
    res.wallSec = secondsSince(start);
    return res;
  }

 private:
  struct OpResult {
    bool ok = false;
    std::uint64_t digest = 0;
    std::uint64_t imageDigest = 0;
  };

  /// A throwing op (a restore that fails to decode, a run that dies) is a
  /// failed op, not a benchmark crash.
  static OpResult tryOp(const CrashPoint& pt, Probe& probe) {
    try {
      return runOp(pt, probe);
    } catch (const std::exception&) {
      return {};
    }
  }

  /// Uncrashed run: learns the event and transition counts crash points
  /// are drawn from. Part of set-up.
  static Profile profile(ScenarioKind kind, std::uint64_t seed, Probe& probe) {
    Counters scratch;
    World w;
    buildScenario(w, kind, seed, true, probe);
    KillSwitch counter{&w, &scratch};
    counter.install();
    Profile prof;
    spawnApps(w, false);
    try {
      w.eng.run();
      w.eng.rethrowIfFailed();
      prof.completed = scenarioCompleted(w);
    } catch (const std::exception&) {
      prof.completed = false;
    }
    prof.events = w.eng.processedEvents();
    prof.journal = scratch.journalTransitions;
    prof.frontend = scratch.metaTransitions;
    prof.fork = counter.forks;
    return prof;
  }

  static OpResult runOp(const CrashPoint& pt, Probe& probe) {
    Scope opSpan(probe, Layer::kOp);
    Counters& c = probe.count();
    OpResult res;
    std::vector<std::uint8_t> image;
    bool fired = false;
    {
      World w;
      {
        Scope span(probe, Layer::kWorldBuild);
        buildScenario(w, pt.scenario, pt.seed, true, probe);
      }
      ++c.worldBuilds;
      KillSwitch kill{&w, &c, pt.kind, pt.index};
      kill.install();
      ImageWriter writer{&w, &probe, {}};
      spawnApps(w, false);
      writer.arm();
      writer.take();  // t=0 baseline: an early crash restores from the start
      {
        Scope span(probe, Layer::kSimRun);
        w.eng.run();
      }
      w.eng.rethrowIfFailed();
      fired = kill.fired;
      noteWorld(c, w);
      image = std::move(writer.latest);
    }  // the kill: every object of the control plane dies here

    if (probe.tracing()) {
      res.imageDigest = grads::util::fnv1a64(image.data(), image.size());
    }
    World w;
    {
      Scope span(probe, Layer::kWorldBuild);
      buildScenario(w, pt.scenario, pt.seed, false, probe);
    }
    ++c.worldBuilds;
    KillSwitch counter{&w, &c};
    counter.install();
    std::optional<grads::core::SnapshotImage> img;
    {
      Scope span(probe, Layer::kParse);
      img.emplace(grads::core::SnapshotImage::parse(image));
    }
    ++c.parses;
    c.parseBytes += image.size();
    {
      Scope span(probe, Layer::kSimRun);
      w.eng.runUntil(img->simTime);
    }
    {
      Scope span(probe, Layer::kRestore);
      w.mgr->restoreFrom(*img);
    }
    ++c.restores;
    rearmAfterRestore(w, img->simTime);
    spawnApps(w, true);
    {
      Scope span(probe, Layer::kSimRun);
      w.eng.run();
    }
    w.eng.rethrowIfFailed();
    noteWorld(c, w);
    noteFinished(c, w);

    grads::util::DigestStream ds;
    foldOutcome(ds, w);
    res.digest = ds.digest();
    res.ok = fired && scenarioCompleted(w);
    return res;
  }

  std::vector<CrashPoint> points_;
};

}  // namespace

std::unique_ptr<Workload> makeCrashRestart() {
  return std::make_unique<CrashRestart>();
}

}  // namespace perfbench
