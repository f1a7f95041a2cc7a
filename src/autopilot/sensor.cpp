#include "autopilot/sensor.hpp"

#include "util/error.hpp"

namespace grads::autopilot {

std::size_t AutopilotManager::attach(const std::string& channel, Listener fn) {
  GRADS_REQUIRE(static_cast<bool>(fn), "AutopilotManager::attach: empty fn");
  subs_.push_back(Sub{channel, std::move(fn), true});
  return subs_.size() - 1;
}

void AutopilotManager::detach(std::size_t token) {
  GRADS_REQUIRE(token < subs_.size(), "AutopilotManager::detach: bad token");
  subs_[token].active = false;
}

void AutopilotManager::report(const std::string& channel, double value) {
  const Reading r{channel, value, engine_->now()};
  history_[channel].push_back(r);
  ++total_;
  for (const auto& s : subs_) {
    if (s.active && s.channel == channel) s.fn(r);
  }
}

void AutopilotManager::decodeState(core::SnapshotReader& r) {
  snapshotIo(*this, r);
  for (auto& [channel, readings] : history_) {
    for (auto& reading : readings) reading.channel = channel;
  }
}

const std::vector<Reading>& AutopilotManager::history(
    const std::string& channel) const {
  static const std::vector<Reading> kEmpty;
  const auto it = history_.find(channel);
  return it == history_.end() ? kEmpty : it->second;
}

std::string phaseTimeChannel(const std::string& app) {
  return app + ".phase-time";
}

std::string iterationChannel(const std::string& app) {
  return app + ".iteration";
}

}  // namespace grads::autopilot
