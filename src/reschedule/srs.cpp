#include "reschedule/srs.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"

namespace grads::reschedule {

Rss::Rss(sim::Engine& engine, std::string appName)
    : engine_(&engine), app_(std::move(appName)) {}

void Rss::requestStop() {
  if (!stopRequested_) {
    GRADS_INFO("rss", engine_->now()) << app_ << ": stop requested";
  }
  stopRequested_ = true;
}

void Rss::beginIncarnation(int nProcs) {
  GRADS_REQUIRE(nProcs > 0, "Rss::beginIncarnation: need processes");
  previousProcs_ = currentProcs_;
  currentProcs_ = nProcs;
  ++incarnation_;
  stopRequested_ = false;
  failureSignaled_ = false;
  failedNode_ = grid::kNoId;
  occupied_.clear();
}

void Rss::setOccupiedNodes(const std::vector<grid::NodeId>& nodes) {
  occupied_.clear();
  occupied_.insert(nodes.begin(), nodes.end());
}

bool Rss::occupiesNode(grid::NodeId node) const {
  return occupied_.empty() || occupied_.count(node) > 0;
}

void Rss::markFailure(grid::NodeId node) {
  if (!occupiesNode(node)) {
    // Late detection: the heartbeat timeout fired for a node this app
    // migrated off (or never mapped). The incarnation is healthy — aborting
    // it would turn a stale signal into a real outage.
    ++ignoredFailures_;
    GRADS_INFO("rss", engine_->now())
        << app_ << ": ignoring failure of unoccupied node";
    return;
  }
  if (!failureSignaled_) {
    GRADS_WARN("rss", engine_->now()) << app_ << ": node failure signaled";
  }
  failureSignaled_ = true;
  failedNode_ = node;
}

void Rss::storeIteration(std::size_t it) { storeIterationFor(incarnation_, it); }

bool Rss::storeIterationFor(int epoch, std::size_t it) {
  if (epoch != incarnation_) {
    ++staleEpochRejects_;
    GRADS_WARN("rss", engine_->now())
        << app_ << ": zombie publish (epoch " << epoch << " vs live "
        << incarnation_ << ") dropped";
    return false;
  }
  storedIteration_ = it;
  // The ledger is optimistic: a generation is recorded even if some rank's
  // depot write failed — restorability is re-checked object-by-object at
  // restart time (findRestorableGeneration). Manifest *completeness* is the
  // stricter two-phase gate used when integrity verification is on.
  checkpoints_[incarnation_] = CheckpointRecord{it, currentProcs_};
  Manifest& m = manifests_[incarnation_];
  m.iteration = it;
  m.iterationStored = true;
  return true;
}

bool Rss::stageSlice(int epoch, const std::string& array, int rank,
                     SliceEntry entry, int arraysPerRank) {
  if (epoch != incarnation_) {
    ++staleEpochRejects_;
    GRADS_WARN("rss", engine_->now())
        << app_ << ": zombie slice stage (epoch " << epoch << " vs live "
        << incarnation_ << ") dropped";
    return false;
  }
  Manifest& m = manifests_[epoch];
  m.arraysPerRank = arraysPerRank;
  m.slices[{array, rank}] = entry;
  return true;
}

const Rss::Manifest* Rss::manifest(int generation) const {
  const auto it = manifests_.find(generation);
  return it == manifests_.end() ? nullptr : &it->second;
}

const Rss::SliceEntry* Rss::sliceEntry(int generation,
                                       const std::string& array,
                                       int rank) const {
  const Manifest* m = manifest(generation);
  if (m == nullptr) return nullptr;
  const auto it = m->slices.find({array, rank});
  return it == m->slices.end() ? nullptr : &it->second;
}

bool Rss::manifestComplete(int generation) const {
  const Manifest* m = manifest(generation);
  const auto record = checkpointRecord(generation);
  if (m == nullptr || !record || !m->iterationStored || m->arraysPerRank <= 0) {
    return false;
  }
  const auto expected = static_cast<std::size_t>(record->procs) *
                        static_cast<std::size_t>(m->arraysPerRank);
  return m->slices.size() == expected;
}

std::uint64_t Rss::manifestDigest(int generation) const {
  const Manifest* m = manifest(generation);
  if (m == nullptr) return 0;
  std::uint64_t h = util::fnv1a64(app_);
  h = util::hashCombine(h, static_cast<std::uint64_t>(generation));
  h = util::hashCombine(h, static_cast<std::uint64_t>(m->iteration));
  const auto record = checkpointRecord(generation);
  h = util::hashCombine(
      h, static_cast<std::uint64_t>(record ? record->procs : 0));
  for (const auto& [id, entry] : m->slices) {
    h = util::hashCombine(h, util::fnv1a64(id.first));
    h = util::hashCombine(h, static_cast<std::uint64_t>(id.second));
    h = util::hashCombine(h, entry.bytes);
    h = util::hashCombine(h, entry.digest);
  }
  return h;
}

std::vector<int> Rss::manifestGenerations() const {
  std::vector<int> gens;
  gens.reserve(manifests_.size());
  for (const auto& [gen, m] : manifests_) {
    (void)m;
    gens.push_back(gen);
  }
  return gens;
}

std::optional<Rss::CheckpointRecord> Rss::checkpointRecord(
    int generation) const {
  const auto it = checkpoints_.find(generation);
  if (it == checkpoints_.end()) return std::nullopt;
  return it->second;
}

Srs::Srs(services::Ibp& ibp, Rss& rss, vmpi::World& world)
    : ibp_(&ibp), rss_(&rss), world_(&world), epoch_(rss.incarnation()) {}

void Srs::registerArray(const std::string& name, double totalBytes,
                        std::size_t blockElements, double bytesPerElement) {
  GRADS_REQUIRE(totalBytes >= 0.0, "Srs::registerArray: negative size");
  arrays_[name] = ArrayInfo{totalBytes, blockElements, bytesPerElement};
}

double Srs::registeredBytes() const {
  double total = 0.0;
  for (const auto& [name, info] : arrays_) {
    (void)name;
    total += info.totalBytes;
  }
  return total;
}

std::string Srs::objectKey(const std::string& app, const std::string& array,
                           int rank, int incarnation, bool replica) {
  return app + ".ckpt." + array + ".r" + std::to_string(rank) + ".i" +
         std::to_string(incarnation) + (replica ? ".rep" : "");
}

std::uint64_t Srs::contentDigest(const std::string& app,
                                 const std::string& array, int rank,
                                 int generation, double bytes) {
  std::uint64_t h = util::fnv1a64(objectKey(app, array, rank, generation));
  h = util::hashCombine(h, bytes);
  return h == 0 ? 1 : h;  // 0 means "derive" to Ibp::put; never emit it
}

sim::Task Srs::checkIfStop(int rank, bool* shouldStop) {
  GRADS_REQUIRE(shouldStop != nullptr, "Srs::checkIfStop: null output");
  // Poll the RSS daemon; the real SRS exchanges a small control message.
  *shouldStop = rss_->stopRequested();
  if (*shouldStop) {
    co_await writeCheckpoint(rank);
  }
}

double Srs::writeSpanSeconds() const {
  return writeEnd_ < 0.0 ? 0.0 : writeEnd_ - writeStart_;
}

double Srs::readSpanSeconds() const {
  return readEnd_ < 0.0 ? 0.0 : readEnd_ - readStart_;
}

sim::Task Srs::writeCheckpoint(int rank) {
  const int p = world_->size();
  const grid::NodeId node = world_->nodeOf(rank);
  const double t0 = world_->engine().now();
  if (writeStart_ < 0.0 || t0 < writeStart_) writeStart_ = t0;
  const grid::NodeId depot = stableDepot_ != grid::kNoId ? stableDepot_ : node;
  // Writes are keyed and fenced by the epoch captured at construction: a
  // zombie instance keeps stamping its own stale generation and epoch, so
  // it can neither collide with the live incarnation's keys nor get past a
  // raised depot fence.
  services::PutOptions fence;
  fence.fenceDomain = rss_->appName();
  fence.epoch = epoch_;
  // Checkpoint pushes are background movers: pace them behind the
  // application's interactive traffic instead of stealing its bandwidth.
  fence.transferClass = grid::TransferClass::kBulk;
  // Skipped copies are logged after the loop, one line per copy and cause
  // naming every array it skipped, stamped with the first skip's time.
  struct Skipped {
    std::string arrays;
    double at = 0.0;
    void add(const std::string& array, double t) {
      if (arrays.empty()) at = t;
      arrays += (arrays.empty() ? "" : ", ") + array;
    }
  };
  Skipped primaryDark, primaryFenced, replicaDark, replicaFenced;
  bool allWritten = true;
  for (const auto& [array, info] : arrays_) {
    // This rank's exact block-cyclic share (block counts are generally not
    // divisible by p, so shares are unequal by up to one block).
    const auto elements = static_cast<std::size_t>(
        info.totalBytes / info.bytesPerElement + 0.5);
    const RedistributionPlan owned(p, 1, elements, info.blockElements,
                                   info.bytesPerElement);
    const double bytes = owned.bytes(rank, 0);
    const std::uint64_t digest =
        contentDigest(rss_->appName(), array, rank, epoch_, bytes);
    fence.digest = digest;
    // A dark depot must not kill the application mid-checkpoint: the write
    // is skipped (this generation simply won't qualify at restore time) and
    // the replica, if configured, still gets its copy. A *fenced-out* write
    // is different — the whole instance is a zombie; drop and move on.
    bool primaryOk = false;
    try {
      co_await ibp_->put(objectKey(rss_->appName(), array, rank, epoch_),
                         bytes, depot, node, fence);
      primaryOk = true;
    } catch (const services::DepotDownError&) {
      primaryDark.add(array, world_->engine().now());
    } catch (const services::StaleEpochError&) {
      ++staleWriteRejects_;
      primaryFenced.add(array, world_->engine().now());
    }
    bool replicaOk = false;
    if (replicaDepot_ != grid::kNoId && replicaDepot_ != depot) {
      try {
        co_await ibp_->put(objectKey(rss_->appName(), array, rank, epoch_,
                                     /*replica=*/true),
                           bytes, replicaDepot_, node, fence);
        replicaOk = true;
      } catch (const services::DepotDownError&) {
        replicaDark.add(array, world_->engine().now());
      } catch (const services::StaleEpochError&) {
        ++staleWriteRejects_;
        replicaFenced.add(array, world_->engine().now());
      }
    }
    allWritten = allWritten && (primaryOk || replicaOk);
    // Stage the manifest entry even when a copy was skipped: the digest
    // describes the *content*, and restore verifies whichever copy it can
    // reach. A zombie's stage is rejected inside the RSS.
    Rss::SliceEntry entry;
    entry.bytes = bytes;
    entry.digest = digest;
    entry.primaryNode = depot;
    entry.replicaNode =
        (replicaDepot_ != grid::kNoId && replicaDepot_ != depot)
            ? replicaDepot_
            : grid::kNoId;
    if (!rss_->stageSlice(epoch_, array, rank, entry,
                          static_cast<int>(arrays_.size()))) {
      allWritten = false;  // zombie: never mark a checkpoint
    }
  }
  const auto warn = [&](const Skipped& s, const std::string& what) {
    if (s.arrays.empty()) return;
    GRADS_WARN("srs", s.at) << rss_->appName() << ": rank " << rank << ": "
                            << what << " for " << s.arrays;
  };
  const std::string stale = " (stale epoch " + std::to_string(epoch_) + ")";
  warn(primaryDark, "primary depot dark, checkpoint copy skipped");
  warn(replicaDark, "replica depot dark, mirror copy skipped");
  warn(primaryFenced, "primary write fenced out" + stale);
  warn(replicaFenced, "replica write fenced out" + stale);
  if (allWritten && epoch_ == rss_->incarnation()) rss_->markCheckpoint();
  writeEnd_ = std::max(writeEnd_, world_->engine().now());
}

bool sliceCopyVerifies(const services::Ibp& ibp, const std::string& key,
                       const Rss::SliceEntry& want) {
  return ibp.readable(key) && ibp.observedDigest(key) == want.digest &&
         std::abs(ibp.observedBytes(key) - want.bytes) < 0.5;
}

bool Srs::copyUsable(const std::string& key, const Rss::SliceEntry* want) {
  if (!ibp_->readable(key)) return false;
  if (!verify_ || want == nullptr) return true;
  if (sliceCopyVerifies(*ibp_, key, *want)) return true;
  ++integrityRejects_;
  GRADS_WARN("srs", world_->engine().now())
      << rss_->appName() << ": integrity check failed for " << key
      << ", copy rejected";
  return false;
}

sim::Task Srs::readSlice(const std::string& array, int sourceRank, int gen,
                         double bytes, grid::NodeId toNode) {
  const std::string primary =
      objectKey(rss_->appName(), array, sourceRank, gen);
  const std::string replica =
      objectKey(rss_->appName(), array, sourceRank, gen, /*replica=*/true);
  const Rss::SliceEntry* want = rss_->sliceEntry(gen, array, sourceRank);
  util::Retry retry(retry_, &retryRng_);
  while (true) {
    // Prefer whichever copy is readable — and, when verifying, whose
    // content matches the manifest — right now (primary first: it is
    // usually the closer depot). A corrupt copy is treated exactly like a
    // dark depot: replica, then backoff, then the caller's generation walk.
    const std::string* key = nullptr;
    if (copyUsable(primary, want)) {
      key = &primary;
    } else if (copyUsable(replica, want)) {
      key = &replica;
    }
    if (key != nullptr) {
      // Block-cyclic redistribution reads are bulk: N restarted ranks
      // pulling slices at once would otherwise starve whatever contract
      // traffic shares the WAN (incast on migration).
      co_await ibp_->getSlice(*key, bytes, toNode,
                              grid::TransferClass::kBulk);
      if (want != nullptr && !sliceCopyVerifies(*ibp_, *key, *want)) {
        // Only reachable with verification off: ground-truth accounting of
        // a silent wrong restore (the app now holds corrupt data).
        ++corruptSliceReads_;
      }
      co_return;
    }
    const auto delay = retry.nextDelaySec();
    if (!delay) {
      throw CheckpointUnavailableError(
          "checkpoint slice " + primary + " unreadable after " +
          std::to_string(retry.attemptsUsed() + 1) + " attempts");
    }
    co_await sim::sleepFor(world_->engine(), *delay);
  }
}

sim::Task Srs::restoreCheckpoint(int rank) {
  GRADS_REQUIRE(rss_->hasCheckpoint(), "Srs::restoreCheckpoint: no checkpoint");
  const int gen = restoreGen_ > 0 ? restoreGen_ : rss_->incarnation() - 1;
  // The generation's own rank count (an older generation may have been
  // written by a different incarnation width than the previous one).
  const auto record = rss_->checkpointRecord(gen);
  const int oldP = record ? record->procs : rss_->previousProcs();
  GRADS_REQUIRE(oldP > 0, "Srs::restoreCheckpoint: no previous incarnation");
  const int newP = world_->size();
  const grid::NodeId node = world_->nodeOf(rank);
  const double t0 = world_->engine().now();
  if (readStart_ < 0.0 || t0 < readStart_) readStart_ = t0;
  // Block-cyclic N-to-M redistribution: the exact per-pair volumes come
  // from the block-ownership intersection (RedistributionPlan); this rank
  // pulls its slices from every old depot holding part of its new share
  // (mostly across the WAN). Each slice read retries with backoff and falls
  // back to the replica copy; only when both copies stay unreadable past
  // the retry budget does CheckpointUnavailableError escape to the manager.
  for (const auto& [array, info] : arrays_) {
    const auto elements = static_cast<std::size_t>(
        info.totalBytes / info.bytesPerElement + 0.5);
    const RedistributionPlan plan(oldP, newP, elements, info.blockElements,
                                  info.bytesPerElement);
    for (int o = 0; o < oldP; ++o) {
      const double slice = plan.bytes(o, rank);
      if (slice <= 0.0) continue;
      co_await readSlice(array, o, gen, slice, node);
    }
  }
  restored_ = true;
  ++ranksRestored_;
  readEnd_ = std::max(readEnd_, world_->engine().now());
  if (ranksRestored_ == world_->size() && onAllRestored_) {
    // Every rank of the new incarnation holds its share: the migration's
    // point of no return. Notify before returning control to the app.
    auto fn = std::move(onAllRestored_);
    onAllRestored_ = nullptr;
    fn();
  }
}

std::optional<int> findRestorableGeneration(
    const services::Ibp& ibp, const Rss& rss,
    const std::vector<std::string>& arrays, bool verifyIntegrity) {
  for (int gen = rss.incarnation(); gen >= 1; --gen) {
    const auto record = rss.checkpointRecord(gen);
    if (!record) continue;
    // Crash-consistency gate: a generation whose two-phase publish never
    // finished (a rank died mid-checkpoint, or the iteration was never
    // recorded) is not a checkpoint — skip it without touching the depot.
    if (verifyIntegrity && !rss.manifestComplete(gen)) continue;
    bool complete = true;
    for (const auto& array : arrays) {
      for (int r = 0; r < record->procs && complete; ++r) {
        const std::string primary = Srs::objectKey(rss.appName(), array, r, gen);
        const std::string replica =
            Srs::objectKey(rss.appName(), array, r, gen, /*replica=*/true);
        if (verifyIntegrity) {
          const Rss::SliceEntry* want = rss.sliceEntry(gen, array, r);
          complete = want != nullptr &&
                     (sliceCopyVerifies(ibp, primary, *want) ||
                      sliceCopyVerifies(ibp, replica, *want));
        } else {
          complete = ibp.readable(primary) || ibp.readable(replica);
        }
      }
      if (!complete) break;
    }
    if (complete) return gen;
  }
  return std::nullopt;
}

}  // namespace grads::reschedule
