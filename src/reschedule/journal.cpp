#include "reschedule/journal.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/log.hpp"

namespace grads::reschedule {

const char* actionKindName(ActionKind kind) {
  switch (kind) {
    case ActionKind::kMigrate: return "migrate";
    case ActionKind::kPreempt: return "preempt";
  }
  return "?";
}

const char* actionStateName(ActionState state) {
  switch (state) {
    case ActionState::kPrepared: return "prepared";
    case ActionState::kCommitting: return "committing";
    case ActionState::kCommitted: return "committed";
    case ActionState::kRolledBack: return "rolled-back";
  }
  return "?";
}

ActionJournal::ActionJournal(sim::Engine& engine) : engine_(&engine) {}

int ActionJournal::open(const std::string& app, ActionKind kind,
                        std::vector<grid::NodeId> prior,
                        std::vector<grid::NodeId> target, bool pinned,
                        const std::string& note) {
  GRADS_REQUIRE(openByApp_.count(app) == 0,
                "ActionJournal::open: app already has an action in flight");
  GRADS_REQUIRE(!pinned || !target.empty(),
                "ActionJournal::open: pinned action needs a target");
  ActionRecord r;
  r.id = static_cast<int>(records_.size()) + 1;
  r.app = app;
  r.kind = kind;
  r.state = ActionState::kPrepared;
  r.openedAt = engine_->now();
  r.prior = std::move(prior);
  r.target = std::move(target);
  r.pinned = pinned;
  r.note = note;
  records_.push_back(std::move(r));
  openByApp_[app] = records_.back().id;
  ++inFlight_;
  ++opened_;
  GRADS_INFO("journal", engine_->now())
      << app << ": action #" << records_.back().id << " ("
      << actionKindName(kind) << ") prepared";
  const int id = records_.back().id;
  if (onTransition_) onTransition_(records_.back());
  return id;
}

ActionRecord& ActionJournal::mutableRecord(int id) {
  GRADS_REQUIRE(id >= 1 && id <= static_cast<int>(records_.size()),
                "ActionJournal: unknown record id");
  return records_[static_cast<std::size_t>(id) - 1];
}

const ActionRecord& ActionJournal::record(int id) const {
  return const_cast<ActionJournal*>(this)->mutableRecord(id);
}

void ActionJournal::setTarget(int id, std::vector<grid::NodeId> target) {
  ActionRecord& r = mutableRecord(id);
  GRADS_REQUIRE(r.resolvedAt < 0.0, "ActionJournal::setTarget: resolved");
  r.target = std::move(target);
}

void ActionJournal::beginCommit(int id) {
  ActionRecord& r = mutableRecord(id);
  GRADS_REQUIRE(r.state == ActionState::kPrepared,
                "ActionJournal::beginCommit: not in prepared state");
  r.state = ActionState::kCommitting;
  GRADS_INFO("journal", engine_->now())
      << r.app << ": action #" << r.id << " committing";
  if (onTransition_) onTransition_(r);
}

void ActionJournal::resolve(ActionRecord& r, ActionState state,
                            const std::string& note) {
  GRADS_REQUIRE(r.state == ActionState::kPrepared ||
                    r.state == ActionState::kCommitting,
                "ActionJournal: action already resolved");
  r.state = state;
  r.resolvedAt = engine_->now();
  // A prepare-time note (the what-if decision summary) survives a noteless
  // resolve; an explicit resolve note still wins.
  if (!note.empty()) r.note = note;
  openByApp_.erase(r.app);
  AppOutcomes& outcomes = outcomes_[r.app];
  outcomes.lastResolvedAt = r.resolvedAt;
  --inFlight_;
  if (state == ActionState::kCommitted) {
    ++committed_;
    ++outcomes.committed;
  } else {
    ++rolledBack_;
    ++outcomes.rolledBack;
  }
  GRADS_INFO("journal", engine_->now())
      << r.app << ": action #" << r.id << " " << actionStateName(state)
      << (note.empty() ? "" : " (" + note + ")");
  if (onTransition_) onTransition_(r);
}

void ActionJournal::commit(int id, const std::string& note) {
  resolve(mutableRecord(id), ActionState::kCommitted, note);
}

void ActionJournal::rollback(int id, const std::string& note) {
  resolve(mutableRecord(id), ActionState::kRolledBack, note);
}

const ActionRecord* ActionJournal::openAction(const std::string& app) const {
  const auto it = openByApp_.find(app);
  if (it == openByApp_.end()) return nullptr;
  return &record(it->second);
}

const ActionJournal::AppOutcomes& ActionJournal::outcomesFor(
    const std::string& app) const {
  static const AppOutcomes kNone;
  const auto it = outcomes_.find(app);
  return it == outcomes_.end() ? kNone : it->second;
}

double ActionJournal::lastResolvedAt(const std::string& app) const {
  return outcomesFor(app).lastResolvedAt;
}

int ActionJournal::committedFor(const std::string& app) const {
  return outcomesFor(app).committed;
}

int ActionJournal::rolledBackFor(const std::string& app) const {
  return outcomesFor(app).rolledBack;
}

int ActionJournal::recover(const std::string& note) {
  // Collect first, then resolve: resolve() mutates openByApp_, and walking
  // records_ by state directly would re-resolve records a concurrent
  // observer already closed. Only unresolved records qualify — this is what
  // makes a second scan a structural no-op rather than a double rollback.
  std::vector<int> unresolved;
  for (const auto& r : records_) {
    if (r.state == ActionState::kPrepared ||
        r.state == ActionState::kCommitting) {
      unresolved.push_back(r.id);
    }
  }
  for (const int id : unresolved) rollback(id, note);
  if (!unresolved.empty()) {
    ++recoveries_;
    GRADS_WARN("journal", engine_->now())
        << "recovery scan rolled back " << unresolved.size()
        << " in-flight action(s)";
  }
  return static_cast<int>(unresolved.size());
}

void ActionJournal::decodeState(core::SnapshotReader& r) {
  snapshotIo(*this, r);
  // Rebuild the ids and derived indexes from the log itself.
  openByApp_.clear();
  outcomes_.clear();
  inFlight_ = 0;
  committed_ = 0;
  rolledBack_ = 0;
  int id = 0;
  for (ActionRecord& rec : records_) {
    rec.id = ++id;
    if (rec.state == ActionState::kPrepared ||
        rec.state == ActionState::kCommitting) {
      openByApp_[rec.app] = rec.id;
      ++inFlight_;
    } else {
      AppOutcomes& outcomes = outcomes_[rec.app];
      outcomes.lastResolvedAt =
          std::max(outcomes.lastResolvedAt, rec.resolvedAt);
      if (rec.state == ActionState::kCommitted) {
        ++committed_;
        ++outcomes.committed;
      } else {
        ++rolledBack_;
        ++outcomes.rolledBack;
      }
    }
  }
  opened_ = id;
}

}  // namespace grads::reschedule
