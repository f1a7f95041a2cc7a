#include "metasched/types.hpp"

namespace grads::metasched {

namespace {
/// Pressure thresholds to enter rung i+1 from rung i...
constexpr double kEnterPressure[3] = {0.35, 0.65, 0.90};
/// ...and to drop back below rung i+1. exit < enter gives the hysteresis
/// band that keeps the ladder from flapping on a noisy pressure signal.
constexpr double kExitPressure[3] = {0.25, 0.50, 0.75};
}  // namespace

const char* brownoutLevelName(BrownoutLevel level) {
  switch (level) {
    case BrownoutLevel::kFull: return "full";
    case BrownoutLevel::kDeferLow: return "defer-low";
    case BrownoutLevel::kPark: return "park";
    case BrownoutLevel::kShed: return "shed";
  }
  return "?";
}

bool BrownoutController::update(double pressure, double now) {
  if (!opts_.enabled) return false;
  if (now - lastChangeAt_ < opts_.dwellSec) return false;
  if (level_ < 3 && pressure >= kEnterPressure[level_]) {
    ++level_;
    ++escalations_;
    lastChangeAt_ = now;
    return true;
  }
  if (level_ > 0 && pressure <= kExitPressure[level_ - 1]) {
    --level_;
    ++deescalations_;
    lastChangeAt_ = now;
    return true;
  }
  return false;
}

}  // namespace grads::metasched
