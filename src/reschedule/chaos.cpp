#include "reschedule/chaos.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/log.hpp"

namespace grads::reschedule {

const char* chaosKindName(ChaosKind kind) {
  switch (kind) {
    case ChaosKind::kNodeFailure: return "node-failure";
    case ChaosKind::kLinkPartition: return "link-partition";
    case ChaosKind::kLinkDegrade: return "link-degrade";
    case ChaosKind::kNwsOutage: return "nws-outage";
    case ChaosKind::kDepotOutage: return "depot-outage";
    case ChaosKind::kBitFlip: return "bit-flip";
    case ChaosKind::kTornWrite: return "torn-write";
    case ChaosKind::kStaleDelivery: return "stale-delivery";
  }
  return "?";
}

ChaosDriver::ChaosDriver(sim::Engine& engine, grid::Grid& grid,
                         FailureInjector& failures, services::Nws* nws,
                         services::Ibp* ibp)
    : engine_(&engine), grid_(&grid), failures_(&failures), nws_(nws),
      ibp_(ibp) {}

void ChaosDriver::arm(const ChaosEvent& event) {
  GRADS_REQUIRE(event.atSec >= engine_->now(),
                "ChaosDriver: event in the past");
  switch (event.kind) {
    case ChaosKind::kNodeFailure:
      GRADS_REQUIRE(event.node != grid::kNoId, "ChaosDriver: no node");
      break;
    case ChaosKind::kLinkPartition:
    case ChaosKind::kLinkDegrade:
      GRADS_REQUIRE(event.link != grid::kNoId, "ChaosDriver: no link");
      break;
    case ChaosKind::kNwsOutage:
      GRADS_REQUIRE(nws_ != nullptr, "ChaosDriver: no NWS wired");
      break;
    case ChaosKind::kDepotOutage:
      GRADS_REQUIRE(ibp_ != nullptr, "ChaosDriver: no IBP wired");
      GRADS_REQUIRE(event.node != grid::kNoId, "ChaosDriver: no depot node");
      break;
    case ChaosKind::kBitFlip:
    case ChaosKind::kTornWrite:
    case ChaosKind::kStaleDelivery:
      GRADS_REQUIRE(ibp_ != nullptr, "ChaosDriver: no IBP wired");
      GRADS_REQUIRE(event.node != grid::kNoId, "ChaosDriver: no depot node");
      break;
  }
  engine_->scheduleDaemonAt(event.atSec, [this, event] { apply(event); });
  if (event.durationSec > 0.0) {
    engine_->scheduleDaemonAt(event.atSec + event.durationSec,
                              [this, event] { revert(event); });
  }
  ++armed_;
}

void ChaosDriver::armAll(const std::vector<ChaosEvent>& events) {
  for (const auto& e : events) arm(e);
}

void ChaosDriver::armFrom(const std::vector<ChaosEvent>& events, double t0) {
  GRADS_REQUIRE(engine_->now() >= t0,
                "ChaosDriver::armFrom: engine clock behind the snapshot time");
  for (const auto& e : events) {
    if (e.atSec >= t0) {
      arm(e);
      continue;
    }
    const bool inFlight = e.durationSec > 0.0 && e.atSec + e.durationSec > t0;
    if (e.kind == ChaosKind::kNodeFailure && e.atSec < t0) {
      // The failure fired pre-snapshot; its stale-GIS and heartbeat tails
      // may still be due (rearmFailureTail skips any at or before now).
      failures_->rearmFailureTail(e.node, e.atSec + e.detectionDelaySec,
                                  e.gisLagSec > 0.0 ? e.atSec + e.gisLagSec
                                                    : 0.0);
    }
    if (!inFlight) continue;  // fully over by t0: state is in the image
    // In-flight window: rebuild the depth the pre-crash apply() created
    // (the decoded component state already holds the effect) and re-arm
    // just the recovery.
    switch (e.kind) {
      case ChaosKind::kLinkPartition:
        ++linkDownDepth_[e.link];
        break;
      case ChaosKind::kNwsOutage:
        ++nwsDarkDepth_;
        break;
      case ChaosKind::kDepotOutage:
        ++depotDownDepth_[e.node];
        break;
      default:
        break;  // node failure / degrade revert unconditionally
    }
    engine_->scheduleDaemonAt(e.atSec + e.durationSec,
                              [this, e] { revert(e); });
    ++armed_;
  }
}

void ChaosDriver::apply(const ChaosEvent& event) {
  switch (event.kind) {
    case ChaosKind::kNodeFailure:
      failures_->failNow(event.node, event.detectionDelaySec,
                         event.gisLagSec);
      ++counters_.nodeFailures;
      break;
    case ChaosKind::kLinkPartition:
      if (linkDownDepth_[event.link]++ == 0) {
        GRADS_WARN("chaos", engine_->now())
            << "link " << grid_->link(event.link).spec().name
            << " partitioned";
        grid_->link(event.link).setUp(false);
      }
      ++counters_.linkPartitions;
      break;
    case ChaosKind::kLinkDegrade:
      GRADS_WARN("chaos", engine_->now())
          << "link " << grid_->link(event.link).spec().name << " degraded to "
          << event.bandwidthScale << "x bandwidth";
      grid_->link(event.link).setBandwidthScale(event.bandwidthScale);
      ++counters_.linkDegrades;
      break;
    case ChaosKind::kNwsOutage:
      if (nwsDarkDepth_++ == 0) {
        GRADS_WARN("chaos", engine_->now()) << "NWS sensors dark";
        nws_->setDark(true);
      }
      ++counters_.nwsOutages;
      break;
    case ChaosKind::kDepotOutage:
      if (depotDownDepth_[event.node]++ == 0) {
        GRADS_WARN("chaos", engine_->now())
            << "IBP depot on " << grid_->node(event.node).name() << " down";
        ibp_->setDepotUp(event.node, false);
      }
      ++counters_.depotOutages;
      break;
    case ChaosKind::kBitFlip:
    case ChaosKind::kTornWrite:
    case ChaosKind::kStaleDelivery:
      applyIntegrity(event);
      break;
  }
}

void ChaosDriver::applyIntegrity(const ChaosEvent& event) {
  // The victim is drawn at fire time: the campaign was generated before the
  // application wrote anything, so the object population only exists now.
  // The per-event seed keeps the draw deterministic regardless of how many
  // objects other events have already touched.
  const auto keys = ibp_->keysOnDepot(event.node);
  if (keys.empty()) {
    ++counters_.integrityMisses;
    return;
  }
  Rng rng(event.victimSeed != 0 ? event.victimSeed : 0xb17f11bULL);
  const auto& key = keys[static_cast<std::size_t>(
      rng.uniformInt(0, static_cast<std::int64_t>(keys.size()) - 1))];
  switch (event.kind) {
    case ChaosKind::kBitFlip: {
      const auto bit = static_cast<std::uint64_t>(rng.uniformInt(0, 63));
      ibp_->injectBitFlip(key, std::uint64_t{1} << bit);
      ++counters_.bitFlips;
      break;
    }
    case ChaosKind::kTornWrite:
      ibp_->injectTornWrite(key, event.tornKeepFrac);
      ++counters_.tornWrites;
      break;
    case ChaosKind::kStaleDelivery:
      ibp_->injectStaleDelivery(key);
      ++counters_.staleDeliveries;
      break;
    default:
      break;
  }
}

void ChaosDriver::revert(const ChaosEvent& event) {
  switch (event.kind) {
    case ChaosKind::kNodeFailure:
      failures_->recoverNow(event.node);
      ++counters_.nodeRecoveries;
      break;
    case ChaosKind::kLinkPartition:
      if (--linkDownDepth_[event.link] == 0) {
        GRADS_INFO("chaos", engine_->now())
            << "link " << grid_->link(event.link).spec().name
            << " partition healed";
        grid_->link(event.link).setUp(true);
      }
      break;
    case ChaosKind::kLinkDegrade:
      GRADS_INFO("chaos", engine_->now())
          << "link " << grid_->link(event.link).spec().name
          << " bandwidth restored";
      grid_->link(event.link).setBandwidthScale(1.0);
      break;
    case ChaosKind::kNwsOutage:
      if (--nwsDarkDepth_ == 0) {
        GRADS_INFO("chaos", engine_->now()) << "NWS sensors back";
        nws_->setDark(false);
      }
      break;
    case ChaosKind::kDepotOutage:
      if (--depotDownDepth_[event.node] == 0) {
        GRADS_INFO("chaos", engine_->now())
            << "IBP depot on " << grid_->node(event.node).name() << " back";
        ibp_->setDepotUp(event.node, true);
      }
      break;
    case ChaosKind::kBitFlip:
    case ChaosKind::kTornWrite:
    case ChaosKind::kStaleDelivery:
      // Corruption does not heal itself; only a scrub repair undoes it.
      break;
  }
}

namespace {

template <typename T>
T pick(const std::vector<T>& pool, Rng& rng) {
  GRADS_REQUIRE(!pool.empty(), "makeCampaign: empty candidate pool");
  return pool[static_cast<std::size_t>(
      rng.uniformInt(0, static_cast<std::int64_t>(pool.size()) - 1))];
}

}  // namespace

std::vector<ChaosEvent> makeCampaign(const CampaignConfig& config) {
  GRADS_REQUIRE(config.horizonSec > 0.0, "makeCampaign: bad horizon");
  Rng rng(config.seed);
  std::vector<ChaosEvent> events;

  for (int i = 0; i < config.nodeFailures; ++i) {
    ChaosEvent e;
    e.kind = ChaosKind::kNodeFailure;
    e.atSec = rng.uniform(0.0, config.horizonSec);
    e.durationSec = config.nodeOutageSec;
    e.node = pick(config.candidateNodes, rng);
    e.detectionDelaySec = config.detectionDelaySec;
    e.gisLagSec = config.gisLagSec;
    events.push_back(e);
  }
  for (int i = 0; i < config.linkPartitions; ++i) {
    ChaosEvent e;
    e.kind = ChaosKind::kLinkPartition;
    e.atSec = rng.uniform(0.0, config.horizonSec);
    e.durationSec = config.linkOutageSec;
    e.link = pick(config.candidateLinks, rng);
    events.push_back(e);
  }
  for (int i = 0; i < config.linkDegrades; ++i) {
    ChaosEvent e;
    e.kind = ChaosKind::kLinkDegrade;
    e.atSec = rng.uniform(0.0, config.horizonSec);
    e.durationSec = config.degradeDurationSec;
    e.link = pick(config.candidateLinks, rng);
    e.bandwidthScale = config.degradeScale;
    events.push_back(e);
  }
  for (int i = 0; i < config.nwsOutages; ++i) {
    ChaosEvent e;
    e.kind = ChaosKind::kNwsOutage;
    e.atSec = rng.uniform(0.0, config.horizonSec);
    e.durationSec = config.nwsOutageSec;
    events.push_back(e);
  }
  for (int i = 0; i < config.depotOutages; ++i) {
    ChaosEvent e;
    e.kind = ChaosKind::kDepotOutage;
    e.atSec = rng.uniform(0.0, config.horizonSec);
    e.durationSec = config.depotOutageSec;
    e.node = pick(config.candidateDepots, rng);
    events.push_back(e);
  }
  const auto& integrityPool = config.integrityDepots.empty()
                                  ? config.candidateDepots
                                  : config.integrityDepots;
  const auto addIntegrity = [&](ChaosKind kind, int count) {
    for (int i = 0; i < count; ++i) {
      ChaosEvent e;
      e.kind = kind;
      e.atSec = rng.uniform(0.0, config.horizonSec);
      e.durationSec = 0.0;  // corruption is permanent until scrubbed
      e.node = pick(integrityPool, rng);
      e.victimSeed = rng.next();
      e.tornKeepFrac = config.tornKeepFrac;
      events.push_back(e);
    }
  };
  addIntegrity(ChaosKind::kBitFlip, config.bitFlips);
  addIntegrity(ChaosKind::kTornWrite, config.tornWrites);
  addIntegrity(ChaosKind::kStaleDelivery, config.staleDeliveries);

  std::sort(events.begin(), events.end(),
            [](const ChaosEvent& a, const ChaosEvent& b) {
              return a.atSec < b.atSec;
            });
  return events;
}

}  // namespace grads::reschedule
