#include "reschedule/scrubber.hpp"

#include <utility>

#include "util/log.hpp"

namespace grads::reschedule {

struct DepotScrubber::State {
  sim::Engine* engine;
  services::Ibp* ibp;
  const Rss* rss;
  sim::Engine::EventHandle tick;
  double periodSec = 0.0;
  bool running = false;
  bool scanning = false;
  Stats stats;
};

namespace {

void armTick(const std::shared_ptr<DepotScrubber::State>& s);

sim::Task repairCopy(std::shared_ptr<DepotScrubber::State> s, std::string key,
                     Rss::SliceEntry want, grid::NodeId to,
                     grid::NodeId from) {
  // Depot-to-depot copy of the surviving good bytes; the rewritten object
  // carries the manifest digest again. Unfenced: the scrubber acts for the
  // ledger, not for any incarnation.
  services::PutOptions opts;
  opts.digest = want.digest;
  // Re-replication is the canonical bandwidth thief; bulk pacing keeps it
  // from crowding out application transfers on a contended link.
  opts.transferClass = grid::TransferClass::kBulk;
  try {
    co_await s->ibp->put(key, want.bytes, to, from, opts);
    ++s->stats.repaired;
    GRADS_INFO("scrub", s->engine->now())
        << s->rss->appName() << ": re-replicated " << key;
  } catch (const services::DepotDownError&) {
    ++s->stats.deferred;
    GRADS_INFO("scrub", s->engine->now())
        << s->rss->appName() << ": repair of " << key
        << " deferred (depot dark)";
  }
}

sim::Task scanTask(std::shared_ptr<DepotScrubber::State> s) {
  s->scanning = true;
  for (const int gen : s->rss->manifestGenerations()) {
    // Only published generations: an incomplete manifest describes a torn
    // checkpoint that restores already refuse — repairing it wastes IO.
    if (!s->rss->manifestComplete(gen)) continue;
    const Rss::Manifest* m = s->rss->manifest(gen);
    for (const auto& [id, want] : m->slices) {
      const auto& [array, rank] = id;
      struct Copy {
        std::string key;
        grid::NodeId node;
        bool good = false;
        bool present = false;
      };
      Copy primary{Srs::objectKey(s->rss->appName(), array, rank, gen),
                   want.primaryNode};
      Copy replica{Srs::objectKey(s->rss->appName(), array, rank, gen,
                                  /*replica=*/true),
                   want.replicaNode};
      for (Copy* c : {&primary, &replica}) {
        if (c->node == grid::kNoId) continue;
        ++s->stats.slicesChecked;
        c->present = s->ibp->exists(c->key);
        c->good = sliceCopyVerifies(*s->ibp, c->key, want);
        if (c->present && !c->good && s->ibp->isDepotUp(c->node)) {
          ++s->stats.corruptFound;
        } else if (!c->present) {
          ++s->stats.missingFound;
        }
      }
      const Copy* good =
          primary.good ? &primary : (replica.good ? &replica : nullptr);
      if (good == nullptr) {
        // Both copies gone or rotted: nothing on the grid can rebuild this
        // slice — restores will walk back past this generation.
        if (primary.node != grid::kNoId || replica.node != grid::kNoId) {
          ++s->stats.unrepairable;
          GRADS_WARN("scrub", s->engine->now())
              << s->rss->appName() << ": slice " << primary.key
              << " has no intact copy left";
        }
        continue;
      }
      for (const Copy* c : {&primary, &replica}) {
        if (c == good || c->node == grid::kNoId || c->good) continue;
        co_await repairCopy(s, c->key, want, c->node, good->node);
      }
    }
  }
  ++s->stats.scans;
  s->scanning = false;
}

void armTick(const std::shared_ptr<DepotScrubber::State>& s) {
  s->tick = s->engine->scheduleDaemon(s->periodSec, [s] {
    if (!s->running) return;
    // One scan at a time: a slow repair (dark depot retried next period)
    // must not pile overlapping walks onto the same manifests.
    if (!s->scanning) {
      s->engine->spawn(scanTask(s), s->rss->appName() + ".scrub");
    }
    armTick(s);
  });
}

}  // namespace

DepotScrubber::DepotScrubber(sim::Engine& engine, services::Ibp& ibp,
                             const Rss& rss)
    : state_(std::make_shared<State>()) {
  state_->engine = &engine;
  state_->ibp = &ibp;
  state_->rss = &rss;
}

DepotScrubber::~DepotScrubber() { stop(); }

bool DepotScrubber::start(double periodSec) {
  GRADS_REQUIRE(periodSec > 0.0, "DepotScrubber::start: period must be > 0");
  if (state_->running) return false;  // arm-once: one tick chain, ever
  state_->periodSec = periodSec;
  state_->running = true;
  armTick(state_);
  return true;
}

bool DepotScrubber::started() const { return state_->running; }

void DepotScrubber::adoptStats(const Stats& stats) { state_->stats = stats; }

void DepotScrubber::stop() {
  state_->running = false;
  state_->tick.cancel();
}

sim::Task DepotScrubber::scanOnce() { return scanTask(state_); }

bool DepotScrubber::scanning() const { return state_->scanning; }

const DepotScrubber::Stats& DepotScrubber::stats() const {
  return state_->stats;
}

}  // namespace grads::reschedule
